/**
 * @file
 * Extension study (beyond the paper's figures): heterogeneous EML
 * module mixes. The paper's EML device gives every module an identical
 * 2-storage / 1-operation / 1-optical layout; the DeviceRegistry's
 * `eml:hetero=...` specs let modules differ, so this bench asks the
 * co-design question the paper never ran: at a fixed trap capacity,
 * does enriching one hub module (extra optical or operation zones)
 * beat the symmetric device?
 *
 * All compilations fan out through the shared CompileService; devices
 * are selected purely by spec string, exercising the same parsing path
 * as compile_cli.
 */
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"

using namespace mussti;
using namespace mussti::bench;

namespace {

/** Uniform 2.1.1 modules at capacity 16, with one enriched hub. */
std::string
hubSpec(int modules, int hub, const EmlModuleMix &hub_mix)
{
    std::vector<EmlModuleMix> mixes(modules);
    if (hub >= 0 && hub < modules)
        mixes[hub] = hub_mix;
    return DeviceRegistry::heteroSpec(mixes, 16);
}

} // namespace

int
main()
{
    printHeader("Extension: heterogeneous EML modules",
                "Per-module zone mixes (eml:hetero=... specs) vs the "
                "paper's uniform device");

    const std::vector<std::pair<const char *, int>> apps = {
        {"bv", 128}, {"ghz", 128}, {"qaoa", 96}, {"adder", 128}};

    struct Variant
    {
        const char *label;
        std::string (*spec)(int modules);
    };
    const Variant variants[] = {
        {"uniform 2.1.1", [](int m) { return hubSpec(m, -1, {}); }},
        {"optical hub 2.1.2",
         [](int m) { return hubSpec(m, 0, {2, 1, 2}); }},
        {"operation hub 2.2.1",
         [](int m) { return hubSpec(m, 0, {2, 2, 1}); }},
        {"fat middle 3.1.2",
         [](int m) { return hubSpec(m, m / 2, {3, 1, 2}); }},
    };

    // Fan the whole grid of (app, variant) jobs out up front.
    std::vector<std::future<CompileResult>> futures;
    for (const auto &[family, qubits] : apps) {
        const Circuit qc = makeBenchmark(family, qubits);
        for (const Variant &variant : variants) {
            const int modules = (qubits + 31) / 32;
            futures.push_back(sharedService().submit(
                makeBackend("mussti",
                            DeviceRegistry::parse(variant.spec(modules))),
                qc));
        }
    }

    TextTable table;
    table.setHeader({"Application", "ModuleMix", "Shuttles", "Fiber",
                     "Time(us)", "log10(F)"});
    std::size_t next = 0;
    for (const auto &[family, qubits] : apps) {
        for (const Variant &variant : variants) {
            const auto result = futures[next++].get();
            std::ostringstream name;
            name << family << "_n" << qubits;
            char log10f[32];
            std::snprintf(log10f, sizeof(log10f), "%.2f",
                          result.metrics.log10Fidelity());
            table.addRow({name.str(), variant.label,
                          intCell(result.metrics.shuttleCount),
                          intCell(result.metrics.fiberGateCount),
                          timeCell(result.metrics.executionTimeUs),
                          log10f});
        }
    }
    table.print(std::cout);
    std::cout << "Mixes are storage.operation.optical per module; the "
                 "hub is module 0 (or the center for `fat middle`).\n"
                 "Specs parse through the DeviceRegistry — any mix the "
                 "grammar expresses can join the sweep.\n";
    return 0;
}
