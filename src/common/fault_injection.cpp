#include "common/fault_injection.h"

#include <algorithm>
#include <array>

#include "common/logging.h"

namespace mussti {

namespace {

std::atomic<bool> g_armed{false};

/**
 * Script state, written only by arm()/disarm() (documented to run with
 * no compiles in flight) and read lock-free by the instrumented sites
 * behind the acquire on g_armed.
 */
FaultScript g_script;
std::array<std::vector<FaultTrigger>, kFaultSiteCount> g_triggers_by_site;
std::array<bool, kFaultSiteCount> g_probabilistic_site{};

std::array<std::atomic<std::uint64_t>, kFaultSiteCount> g_visits{};
std::array<std::atomic<std::uint64_t>, kFaultSiteCount> g_fired{};

int
siteIndex(FaultSite site)
{
    return static_cast<int>(site);
}

/** SplitMix64 finalizer — the same mixer deriveJobSeed builds on. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Deterministic per-(seed, site, visit) coin flip against probability. */
bool
probabilisticFire(FaultSite site, std::uint64_t visit)
{
    if (g_script.probability <= 0.0 || !g_probabilistic_site[siteIndex(site)])
        return false;
    const std::uint64_t h = mix64(
        g_script.seed ^ mix64(static_cast<std::uint64_t>(siteIndex(site)) ^
                              (visit * 0x2545f4914f6cdd1dULL)));
    // Top 53 bits give a uniform double in [0, 1).
    const double u =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    return u < g_script.probability;
}

} // namespace

const char *
faultSiteName(FaultSite site)
{
    switch (site) {
      case FaultSite::PassBoundary: return "pass-boundary";
      case FaultSite::SnapshotCapture: return "snapshot-capture";
      case FaultSite::SnapshotResume: return "snapshot-resume";
      case FaultSite::CacheStore: return "cache-store";
      case FaultSite::WorkerDequeue: return "worker-dequeue";
      case FaultSite::TunerProbe: return "tuner-probe";
    }
    return "?";
}

void
FaultInjector::arm(FaultScript script)
{
    g_armed.store(false, std::memory_order_release);
    g_script = std::move(script);
    for (auto &list : g_triggers_by_site)
        list.clear();
    for (const FaultTrigger &trigger : g_script.triggers)
        g_triggers_by_site[siteIndex(trigger.site)].push_back(trigger);
    for (auto &list : g_triggers_by_site) {
        std::sort(list.begin(), list.end(),
                  [](const FaultTrigger &a, const FaultTrigger &b) {
                      return a.visit < b.visit;
                  });
    }
    g_probabilistic_site.fill(false);
    for (FaultSite site : g_script.probabilisticSites)
        g_probabilistic_site[siteIndex(site)] = true;
    for (auto &counter : g_visits)
        counter.store(0, std::memory_order_relaxed);
    for (auto &counter : g_fired)
        counter.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_release);
}

void
FaultInjector::disarm()
{
    g_armed.store(false, std::memory_order_release);
}

bool
FaultInjector::armed()
{
    return g_armed.load(std::memory_order_relaxed);
}

std::uint64_t
FaultInjector::visitCount(FaultSite site)
{
    return g_visits[siteIndex(site)].load(std::memory_order_relaxed);
}

std::uint64_t
FaultInjector::firedCount(FaultSite site)
{
    return g_fired[siteIndex(site)].load(std::memory_order_relaxed);
}

std::optional<FaultTrigger>
FaultInjector::at(FaultSite site)
{
    if (!g_armed.load(std::memory_order_acquire))
        return std::nullopt;
    const int idx = siteIndex(site);
    const std::uint64_t visit =
        g_visits[idx].fetch_add(1, std::memory_order_relaxed);

    const auto &list = g_triggers_by_site[idx];
    const auto it = std::lower_bound(
        list.begin(), list.end(), visit,
        [](const FaultTrigger &t, std::uint64_t v) { return t.visit < v; });
    if (it != list.end() && it->visit == visit) {
        g_fired[idx].fetch_add(1, std::memory_order_relaxed);
        return *it;
    }
    if (probabilisticFire(site, visit)) {
        g_fired[idx].fetch_add(1, std::memory_order_relaxed);
        FaultTrigger trigger;
        trigger.site = site;
        trigger.visit = visit;
        trigger.category = g_script.probabilisticCategory;
        trigger.code = "fault.injected";
        return trigger;
    }
    return std::nullopt;
}

bool
FaultInjector::fires(FaultSite site)
{
    return at(site).has_value();
}

void
FaultInjector::maybeThrow(FaultSite site)
{
    const std::optional<FaultTrigger> trigger = at(site);
    if (!trigger)
        return;
    raiseError(trigger->category, trigger->code,
               std::string("injected fault at ") + faultSiteName(site));
}

} // namespace mussti
