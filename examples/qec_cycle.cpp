/**
 * @file
 * QEC-outlook example: compile repeated surface-code syndrome-
 * extraction rounds (the paper's Outlook workload) and inspect where
 * the schedule spends its shuttles using the analyzer API.
 *
 *   qec_cycle [distance] [rounds]
 */
#include <iostream>

#include "common/logging.h"
#include "common/string_util.h"
#include "core/compiler.h"
#include "sim/analyzer.h"
#include "sim/timeline.h"
#include "workloads/workloads.h"

using namespace mussti;

namespace {

int
run(int argc, char **argv)
{
    const int distance =
        argc > 1 ? parseIntArg(argv[1], "code distance") : 5;
    const int rounds = argc > 2 ? parseIntArg(argv[2], "round count") : 2;

    const Circuit circuit = makeSurfaceCodeCycle(distance, rounds);
    const MusstiCompiler compiler;
    const auto result = compiler.compile(circuit);
    const auto device = compiler.deviceFor(circuit);

    std::cout << "surface code d=" << distance << ", " << rounds
              << " syndrome rounds\n"
              << "qubits       : " << circuit.numQubits() << " ("
              << distance * distance << " data + "
              << distance * distance - 1 << " ancilla)\n"
              << "modules      : " << device->numModules() << "\n"
              << "CX gates     : " << circuit.twoQubitCount() << "\n"
              << "shuttles     : " << result.metrics.shuttleCount << "\n"
              << "fiber gates  : " << result.metrics.fiberGateCount
              << "\n"
              << "exec time    : " << result.metrics.executionTimeUs
              << " us\n"
              << "log10 F      : " << result.metrics.log10Fidelity()
              << "\n\n";

    const auto report = analyzeSchedule(result.schedule, *device,
                                        compiler.params());
    std::cout << "hottest zones (final n-bar):\n";
    int shown = 0;
    for (int z : report.hottestZones()) {
        if (shown++ == 5)
            break;
        const auto &zone = report.zones[z];
        std::cout << "  module " << zone.module << " "
                  << zoneKindName(zone.kind) << ": heat "
                  << zone.finalHeat << ", " << zone.arrivals
                  << " arrivals, " << zone.gatesExecuted << " gates\n";
    }

    const Timeline timeline(*device);
    const auto t = timeline.replay(result.schedule, circuit.numQubits());
    std::cout << "\nserial time " << t.serialUs << " us vs makespan "
              << t.makespanUs << " us (" << t.parallelism()
              << "x overlap available)\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCliMain(run, argc, argv);
}
