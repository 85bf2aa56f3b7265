/**
 * @file
 * Deterministic fault-injection harness for the compile stack.
 *
 * Production code is instrumented at a handful of named sites (pass
 * boundaries, snapshot capture/resume, cache stores, worker dequeue).
 * Each site consults the process-wide FaultInjector, which is disarmed
 * by default — a single relaxed atomic load on the hot path, and no
 * behaviour change whatsoever (the zero-steady-state-allocation bench
 * gates run disarmed).
 *
 * Tests arm it with a FaultScript: an explicit trigger list ("fire on
 * the 7th visit of SnapshotResume with a Transient error") for exact
 * replay, plus an optional seeded probabilistic mode where each visit
 * of an enabled site fires with probability p, keyed by
 * hash(seed, site, visit-index) — deterministic for a fixed submission
 * order, which the soak test pins by running the service single-file
 * per round.
 *
 * Arm/disarm must not race in-flight compiles: arm before submitting
 * work, disarm after every future has resolved. The per-site visit and
 * fired counters let tests assert coverage ("every site was actually
 * exercised").
 */
#ifndef MUSSTI_COMMON_FAULT_INJECTION_H
#define MUSSTI_COMMON_FAULT_INJECTION_H

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"

namespace mussti {

/** Instrumented locations that can be scripted to fail. */
enum class FaultSite {
    PassBoundary,    ///< before each compiler pass runs (throws)
    SnapshotCapture, ///< delta snapshot capture (degrades: capture dropped)
    SnapshotResume,  ///< delta snapshot resume (degrades: cold fallback)
    CacheStore,      ///< result/snapshot cache store (degrades: store skipped)
    WorkerDequeue,   ///< service worker picking up a job (throws)
    TunerProbe,      ///< tuner feasibility probe of one candidate (throws)
};

inline constexpr int kFaultSiteCount = 6;

const char *faultSiteName(FaultSite site);

/** One scripted fault: fire on the `visit`-th (0-based) visit of `site`. */
struct FaultTrigger {
    FaultSite site = FaultSite::PassBoundary;
    std::uint64_t visit = 0;
    ErrorCategory category = ErrorCategory::Transient;
    std::string code = "fault.injected";
};

/** What the injector does while armed. */
struct FaultScript {
    /** Exact-replay triggers, matched against per-site visit counters. */
    std::vector<FaultTrigger> triggers;

    /**
     * Seeded probabilistic mode: every visit of a site listed in
     * `probabilisticSites` fires with `probability`, decided by
     * hash(seed, site, visit) — no RNG state, so a site's n-th visit
     * always decides the same way for a given seed.
     */
    double probability = 0.0;
    std::uint64_t seed = 0;
    std::vector<FaultSite> probabilisticSites;
    ErrorCategory probabilisticCategory = ErrorCategory::Transient;
};

class FaultInjector
{
  public:
    /** Install a script and start firing. Not safe during compiles. */
    static void arm(FaultScript script);

    /** Stop firing. Counters survive until the next arm()/reset. */
    static void disarm();

    static bool armed();

    /** Visits of / faults fired at a site since the last arm(). */
    static std::uint64_t visitCount(FaultSite site);
    static std::uint64_t firedCount(FaultSite site);

    /**
     * Consult the script at a site. Disarmed: nullopt, nothing counted.
     * Armed: counts the visit and returns the trigger if this visit
     * fires. Degrade-style sites use fires(); throw-style sites use
     * maybeThrow(), which raises the trigger's category/code through
     * the structured error path.
     */
    static std::optional<FaultTrigger> at(FaultSite site);
    static bool fires(FaultSite site);
    static void maybeThrow(FaultSite site);
};

} // namespace mussti

#endif // MUSSTI_COMMON_FAULT_INJECTION_H
