/**
 * @file
 * Reproduces Fig 10: MUSS-TI compilation time versus application size
 * (128-299 qubits) for Adder, BV, GHZ, and QAOA. Paper shape: growth is
 * polynomial (O(n*g)), not exponential, with workload-dependent spikes.
 *
 * Besides the paper table, the run is recorded as machine-readable
 * bench JSON (common/bench_json.h, suite "fig10_compile_time") with the
 * per-pass trace of each compilation, extending the repo's BENCH_*.json
 * trajectory. Pass --out <path> to choose the file (default
 * bench_results_fig10.json).
 */
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/bench_json.h"

using namespace mussti;
using namespace mussti::bench;

namespace {

int
run(int argc, char **argv)
{
    std::string out_path = "bench_results_fig10.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            fatal("unknown argument: " + arg + " (only --out <path>)");
        }
    }

    printHeader("Figure 10",
                "Compilation time (seconds) vs application size");
    // Even sizes keep the QAOA instances 3-regular (odd sizes use the
    // circulant fallback, which would add structure noise to the trend).
    const std::vector<int> sizes = {128, 160, 192, 224, 256, 288};
    const std::vector<std::string> families = {"adder", "bv", "ghz",
                                               "qaoa"};

    TextTable table;
    std::vector<std::string> header{"Size"};
    for (const auto &f : families)
        header.push_back(f);
    table.setHeader(header);

    std::vector<BenchRecord> records;
    for (int n : sizes) {
        std::vector<std::string> row{std::to_string(n)};
        for (const auto &family : families) {
            const Circuit qc = makeBenchmark(family, n);
            const auto result = runMussti(qc);
            char cell[32];
            std::snprintf(cell, sizeof(cell), "%.4f",
                          result.compileTimeSec);
            row.push_back(cell);

            BenchRecord record;
            record.suite = "fig10_compile_time";
            record.name = family;
            record.qubits = n;
            record.repeats = 1;
            record.wallMs = 1e3 * result.compileTimeSec;
            for (const PassTiming &timing : result.passTrace)
                record.passTrace.push_back(
                    {timing.pass, 1e3 * timing.seconds});
            records.push_back(std::move(record));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    writeBenchResults(out_path, records, "fig10_compile_time");
    std::cout << "wrote " << out_path << "\n";
    std::cout << "Paper (Python): 0-12 s over this range; the C++ "
                 "implementation is faster but must show the same "
                 "polynomial growth.\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runCliMain(run, argc, argv);
}
