/**
 * @file
 * Machine-readable benchmark results (the repo's BENCH_*.json format).
 *
 * Every perf harness emits the same schema so runs are comparable
 * across PRs and tooling can diff them:
 *
 * @code{.json}
 * {
 *   "schema": "mussti-bench-v1",
 *   "context": "micro_scheduler_bench --repeats 5",
 *   "results": [
 *     {
 *       "suite": "micro_scheduler/large",
 *       "name": "qaoa",
 *       "qubits": 288,
 *       "repeats": 5,
 *       "wall_ms": 4.31,
 *       "speedup_vs_baseline": 12.9,
 *       "pass_trace": [{"pass": "mussti-schedule", "ms": 1.02}, ...]
 *     }
 *   ]
 * }
 * @endcode
 *
 * `wall_ms` is the best-of-`repeats` wall clock of one compilation;
 * `pass_trace` is CompileResult::passTrace of the best run;
 * `speedup_vs_baseline` is present (> 0) only when the harness was
 * given a baseline file to compare against. The reader is a small
 * self-contained JSON parser, so round-tripping needs no external
 * dependency (tests assert write -> parse fidelity).
 */
#ifndef MUSSTI_COMMON_BENCH_JSON_H
#define MUSSTI_COMMON_BENCH_JSON_H

#include <string>
#include <vector>

// jsonEscape and the JsonReader the parser below is built on live in
// common/json.h, shared with the lint renderer and the serve framing.
#include "common/json.h"

namespace mussti {

/** One pass of a result's per-pass wall-clock breakdown. */
struct BenchPassTiming
{
    std::string pass;
    double ms = 0.0;
};

/** One benchmark measurement. */
struct BenchRecord
{
    std::string suite;  ///< Harness + tier, e.g. "micro_scheduler/large".
    std::string name;   ///< Workload family.
    int qubits = 0;
    int repeats = 1;
    double wallMs = 0.0;             ///< Best-of-repeats wall clock.
    double speedupVsBaseline = 0.0;  ///< baseline/current; 0 = unknown.
    std::vector<BenchPassTiming> passTrace;

    /**
     * Scheduler-loop accounting (mussti suites only; absent = -1).
     * `routingSteps` counts phase-2 routed gates across the whole
     * compile; `steadyAllocs` is the heap-allocation count inside the
     * scheduling loops of the LAST repeat — the steady state, with the
     * workspace warm — as seen by the harness's instrumented operator
     * new. `allocs_per_step` in the JSON is their ratio; the CI perf
     * smoke asserts it stays 0.
     */
    long long routingSteps = -1;
    long long steadyAllocs = -1;

    /**
     * Device-tuner sweep scoring (device_tuner suites only; absent =
     * `shuttles` < 0): the candidate device's ScoreCard for one
     * workload, so a sweep trajectory file carries everything the
     * Pareto front was computed from.
     */
    long long shuttles = -1;
    double makespanUs = 0.0;
    double log10Fidelity = 0.0;

    /**
     * Delta-compilation accounting (micro_scheduler/delta records
     * only). `wall_ms` holds the warm resumed path; `delta_cold_ms`
     * (absent = <= 0) is the cold-path reference on the same edited
     * circuit and `delta_speedup` their ratio. The snapshot counters
     * (absent = -1) come from the scenario's CompileService
     * verification pass, proving the cache tier actually hit and the
     * compile resumed end to end. All optional fields of the same
     * mussti-bench-v1 schema; readers that predate them skip unknown
     * keys.
     */
    double deltaColdMs = 0.0;
    double deltaSpeedup = 0.0;
    long long snapshotHits = -1;
    long long snapshotMisses = -1;
    long long deltaResumes = -1;
    long long deltaFallbacks = -1;

    /**
     * CompileService failure-path counters (absent = -1): jobs that
     * resolved with a structured error, split by taxonomy. Emitted by
     * records whose scenario ran through a CompileService, proving the
     * fault-tolerance accounting is live on the production path.
     */
    long long jobsFailed = -1;
    long long jobsTimedOut = -1;
    long long jobsCancelled = -1;

    /**
     * Per-tier result-cache counters (absent = -1): the in-memory LRU
     * tier and the disk-backed persistent tier behind it (see
     * core/result_cache.h). `cacheDiskCorrupt` counts entries that
     * failed validation and were quarantined as misses — on a healthy
     * store it reconciles to 0. Optional mussti-bench-v1 fields like
     * the groups above; readers that predate them skip unknown keys.
     */
    long long cacheMemHits = -1;
    long long cacheMemMisses = -1;
    long long cacheMemEvictions = -1;
    long long cacheDiskHits = -1;
    long long cacheDiskMisses = -1;
    long long cacheDiskEvictions = -1;
    long long cacheDiskCorrupt = -1;
};

/** Render records as a mussti-bench-v1 JSON document. */
std::string benchResultsToJson(const std::vector<BenchRecord> &records,
                               const std::string &context);

/** Write the JSON document to `path`; fatal() on I/O failure. */
void writeBenchResults(const std::string &path,
                       const std::vector<BenchRecord> &records,
                       const std::string &context);

/**
 * Parse a mussti-bench-v1 document back into records; fatal() on
 * malformed input or a wrong schema tag. `context_out`, when non-null,
 * receives the document's context string.
 */
std::vector<BenchRecord> parseBenchResults(const std::string &text,
                                           std::string *context_out =
                                               nullptr);

/** Read and parse a results file; fatal() if unreadable. */
std::vector<BenchRecord> readBenchResults(const std::string &path,
                                          std::string *context_out =
                                              nullptr);

} // namespace mussti

#endif // MUSSTI_COMMON_BENCH_JSON_H
