/**
 * @file
 * Shared harness for the paper-reproduction bench binaries: compile
 * submission through the process-wide CompileService, formatting of the
 * paper's table cells, and the standard architecture settings of
 * section 4.
 *
 * Benches fan out: submit every compilation of a suite up front (the
 * service spreads them across its worker pool), then collect futures in
 * row order. Sequential helpers (runMussti/runBaseline) remain for
 * single-shot call sites and also route through the service, so every
 * bench shares the result cache.
 */
#ifndef MUSSTI_BENCH_BENCH_COMMON_H
#define MUSSTI_BENCH_BENCH_COMMON_H

#include <future>
#include <memory>
#include <string>

#include "arch/device_registry.h"
#include "arch/grid_device.h"
#include "baselines/backend_factory.h"
#include "common/csv.h"
#include "core/compile_service.h"
#include "core/compiler.h"
#include "workloads/workloads.h"

namespace mussti::bench {

/** Pretty fidelity cell: fixed for >= 1e-3, scientific otherwise. */
std::string fidelityCell(const Metrics &metrics);

/** Integer cell. */
std::string intCell(double value);

/** Execution-time cell in microseconds. */
std::string timeCell(double value_us);

/**
 * The process-wide compile service every bench submits through.
 * Pool size = hardware concurrency, overridable with the
 * MUSSTI_BENCH_THREADS environment variable.
 */
CompileService &sharedService();

/** Enqueue a MUSS-TI compilation (paper defaults, overridable). */
std::future<CompileResult>
submitMussti(const Circuit &circuit, const MusstiConfig &config = {},
             const PhysicalParams &params = {});

/** Enqueue one of the named baselines on a grid. */
std::future<CompileResult>
submitBaseline(const std::string &which, const Circuit &circuit,
               const GridConfig &grid, const PhysicalParams &params = {});

/** Compile with MUSS-TI paper defaults (overridable); blocks. */
CompileResult runMussti(const Circuit &circuit,
                        const MusstiConfig &config = {},
                        const PhysicalParams &params = {});

/** Compile with one of the named baselines on a grid; blocks. */
CompileResult runBaseline(const std::string &which, const Circuit &circuit,
                          const GridConfig &grid,
                          const PhysicalParams &params = {});

/**
 * The paper's grid settings per suite (section 4), selected by
 * DeviceRegistry spec so every bench exercises the same parsing path
 * as the CLI.
 */
GridConfig smallGrid22();   ///< grid:2x2,cap=12 (Table 2).
GridConfig smallGrid23();   ///< grid:3x2,cap=8  (Table 2).
GridConfig smallGrid();     ///< grid:2x2,cap=16 (Fig 6 small).
GridConfig mediumGrid();    ///< grid:4x3,cap=16 (Fig 6 medium).
GridConfig largeGrid();     ///< grid:5x4,cap=16 (Fig 6 large).

/** Section-4 architecture banner printed by every bench binary. */
void printHeader(const std::string &experiment,
                 const std::string &description);

} // namespace mussti::bench

#endif // MUSSTI_BENCH_BENCH_COMMON_H
