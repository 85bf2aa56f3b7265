/**
 * @file
 * Device-aware auto-tuner: search the DeviceRegistry spec space for the
 * device shape that best serves a workload set.
 *
 * The paper's central claim is that zoned EML architectures beat
 * monolithic grids only when the device shape (module count, trap
 * capacity, optical links, heterogeneous mixes) matches the workload.
 * The tuner closes that loop: it enumerates candidate DeviceSpecs from
 * a constrained search grammar (arch/spec_search.h), probes each for
 * feasibility, fans every feasible (spec x workload) job through the
 * CompileService as one sharded outcome-tolerant batch with per-flat-
 * index derived seeds, scores the results into compact ScoreCards
 * (sim/score_card.h), and returns a deterministic Pareto front plus
 * one recommended spec.
 *
 * Fault tolerance: a failed feasibility probe (fault site TunerProbe)
 * or a failed sweep compile marks just that candidate infeasible, with
 * the structured reason, instead of aborting the tune. Failures are not
 * retried.
 *
 * Determinism contract: a TuneOutcome is a pure function of the
 * TunerConfig — candidate order is the search grammar's enumeration
 * order, per-job seeds derive from (baseSeed, job index), every compile
 * is bit-identical regardless of pool size, and the recommendation
 * tie-breaks on scored objectives only (never wall-clock). Running the
 * same search under 1 thread and N threads yields identical fronts and
 * recommendations (tests/test_tuner.cpp pins this).
 */
#ifndef MUSSTI_TUNE_TUNER_H
#define MUSSTI_TUNE_TUNER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/spec_search.h"
#include "core/compile_service.h"
#include "sim/score_card.h"

namespace mussti {

/** One workload of a tuning run. */
struct TuneWorkload
{
    std::string family; ///< makeBenchmark() family name.
    int qubits = 0;

    /** "qaoa_n96"-style label used in reports and bench JSON. */
    std::string label() const;
};

/**
 * Parse a "family:qubits" workload token (e.g. "qaoa:96"); fatal()
 * names the offending token on garbage.
 */
TuneWorkload parseTuneWorkload(const std::string &text);

/** Everything a tuning run needs. */
struct TunerConfig
{
    /** Search-space text (arch/spec_search.h grammar). */
    std::string search;

    /** Workloads scored jointly (ScoreCards sum across them). */
    std::vector<TuneWorkload> workloads;

    /** Base seed the per-job seeds derive from. */
    std::uint64_t baseSeed = 2025;

    /** Sweep pool size; <= 0 selects hardware concurrency. */
    int numThreads = 0;

    /** Result-cache capacity of the sweep's service. */
    std::size_t cacheCapacity = 256;

    /**
     * Backend for grid:... searches ("murali", "dai", or "mqt");
     * eml:... searches always compile with MUSS-TI.
     */
    std::string gridBackend = "murali";
};

/** One enumerated candidate's outcome. */
struct TuneCandidate
{
    DeviceSpec spec;

    /** False when some workload does not fit the device. */
    bool feasible = false;
    std::string infeasibleReason; ///< Set when !feasible.

    /** Per-workload scores (config order); empty when infeasible. */
    std::vector<ScoreCard> perWorkload;

    /** Scores accumulated over every workload. */
    ScoreCard total;

    bool onParetoFront = false;
};

/** The result of a tuning run. */
struct TuneOutcome
{
    /** Every candidate, in search-grammar enumeration order. */
    std::vector<TuneCandidate> candidates;

    /** Indices of the Pareto-optimal candidates, ascending. */
    std::vector<std::size_t> paretoFront;

    /** Index of the recommended candidate; -1 if nothing is feasible. */
    int recommended = -1;

    /** The recommended candidate; panics when recommended < 0. */
    const TuneCandidate &recommendedCandidate() const;
};

/**
 * Run the sweep on a private CompileService sized by the config.
 * fatal() on malformed search/workload input or when every candidate
 * is infeasible.
 */
TuneOutcome tuneDeviceSpec(const TunerConfig &config);

/** Same, submitting through a caller-provided service (pool reuse). */
TuneOutcome tuneDeviceSpec(const TunerConfig &config,
                           CompileService &service);

/**
 * Same, over an already-parsed search space (`space` stands in for
 * config.search, which is ignored) — for callers that parsed once for
 * display and should not pay a second enumeration.
 */
TuneOutcome tuneDeviceSpec(const TunerConfig &config,
                           const SpecSearchSpace &space);

TuneOutcome tuneDeviceSpec(const TunerConfig &config,
                           const SpecSearchSpace &space,
                           CompileService &service);

} // namespace mussti

#endif // MUSSTI_TUNE_TUNER_H
