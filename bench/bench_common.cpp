#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/string_util.h"

namespace mussti::bench {

std::string
fidelityCell(const Metrics &metrics)
{
    const double f = metrics.fidelity();
    char buf[64];
    if (f >= 1e-3) {
        std::snprintf(buf, sizeof(buf), "%.2f", f);
    } else if (f > 0.0) {
        std::snprintf(buf, sizeof(buf), "%.1e", f);
    } else {
        // Below double range: report via log10 like "1e-340".
        std::snprintf(buf, sizeof(buf), "1e%.0f",
                      metrics.log10Fidelity());
    }
    return buf;
}

std::string
intCell(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
}

std::string
timeCell(double value_us)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value_us);
    return buf;
}

CompileService &
sharedService()
{
    static CompileService service([] {
        CompileServiceConfig config;
        // Validated parse: garbage, negatives, and zero fall back to
        // hardware concurrency with a warning instead of atoi's silent
        // 0 / accepted negatives.
        config.numThreads = parseEnvThreadCount(
            "MUSSTI_BENCH_THREADS", std::getenv("MUSSTI_BENCH_THREADS"),
            CompileService::kMaxThreads);
        return config;
    }());
    return service;
}

std::future<CompileResult>
submitMussti(const Circuit &circuit, const MusstiConfig &config,
             const PhysicalParams &params)
{
    return sharedService().submit(makeMusstiBackend(config, params),
                                  circuit);
}

std::future<CompileResult>
submitBaseline(const std::string &which, const Circuit &circuit,
               const GridConfig &grid, const PhysicalParams &params)
{
    return sharedService().submit(makeGridBackend(which, grid, params),
                                  circuit);
}

CompileResult
runMussti(const Circuit &circuit, const MusstiConfig &config,
          const PhysicalParams &params)
{
    return submitMussti(circuit, config, params).get();
}

CompileResult
runBaseline(const std::string &which, const Circuit &circuit,
            const GridConfig &grid, const PhysicalParams &params)
{
    return submitBaseline(which, circuit, grid, params).get();
}

GridConfig smallGrid22() { return DeviceRegistry::parse("grid:2x2,cap=12").grid; }
GridConfig smallGrid23() { return DeviceRegistry::parse("grid:3x2,cap=8").grid; }
GridConfig smallGrid()   { return DeviceRegistry::parse("grid:2x2,cap=16").grid; }
GridConfig mediumGrid()  { return DeviceRegistry::parse("grid:4x3,cap=16").grid; }
GridConfig largeGrid()   { return DeviceRegistry::parse("grid:5x4,cap=16").grid; }

void
printHeader(const std::string &experiment, const std::string &description)
{
    std::cout << "==========================================================\n"
              << experiment << "\n" << description << "\n"
              << "MUSS-TI reproduction (paper: MICRO 2025, "
                 "arXiv:2509.25988)\n"
              << "==========================================================\n";
}

} // namespace mussti::bench
