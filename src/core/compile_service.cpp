#include "core/compile_service.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "core/scheduler_workspace.h"

namespace mussti {

namespace {

CompileOutcome
cancelledOutcome(const std::string &message)
{
    CompileOutcome outcome;
    outcome.error = MusstiError(ErrorCategory::Cancelled, "job.cancelled",
                                message);
    return outcome;
}

/** The job control a request asks for: its deadline and its token. */
JobControl
controlOf(const CompileRequest &request)
{
    JobControl control;
    control.deadline = request.deadline;
    control.cancel = request.cancel.get();
    return control;
}

/** The result-tier key of a request: circuit x config x seed. */
ResultCacheKey
keyOf(const CompileRequest &request)
{
    ResultCacheKey key;
    key.circuitHash = request.circuit.contentHash();
    key.configDigest = request.backend->configDigest();
    key.hasSeed = request.seed.has_value();
    key.seed = request.seed.value_or(0);
    return key;
}

/**
 * The snapshot probe-index key of a job or a snapshot: its config and
 * seed coordinates, with the circuit or prefix hash zeroed.
 */
ResultCacheKey
probeKeyOf(const ResultCacheKey &key)
{
    return {0, key.configDigest, key.seed, key.hasSeed};
}

} // namespace

const CompileResult &
CompileOutcome::value() const
{
    if (!result.has_value())
        errorInfo().raise();
    return *result;
}

CompileResult
CompileOutcome::take()
{
    if (!result.has_value())
        errorInfo().raise();
    return std::move(*result);
}

const MusstiError &
CompileOutcome::errorInfo() const
{
    MUSSTI_ASSERT(error.has_value(),
                  "CompileOutcome carries neither result nor error");
    return *error;
}

CompileService::CompileService(const CompileServiceConfig &config)
    : config_(config),
      results_(config.cacheCapacity,
               config.cacheCapacity * kProtectedPercent / 100),
      snapshots_(config.snapshotCacheCapacity)
{
    MUSSTI_REQUIRE(config.numThreads <= kMaxThreads,
                   "worker thread count " << config.numThreads
                   << " exceeds the upper bound " << kMaxThreads);
    config_.admission.quantum =
        std::max<std::uint64_t>(1, config.admission.quantum);
    if (!config.diskCachePath.empty())
        disk_ = std::make_unique<DiskResultCache>(
            config.diskCachePath, config.diskCacheCapacity);

    int threads = config.numThreads;
    if (threads <= 0) {
        threads = static_cast<int>(std::thread::hardware_concurrency());
        threads = std::max(threads, 1);
    }
    workers_.reserve(static_cast<std::size_t>(threads));
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

CompileService::~CompileService()
{
    shutdown();
}

void
CompileService::shutdown()
{
    std::vector<Job> orphaned;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        if (stopping_) {
            // Already shut down (or shutting down on another thread
            // that owns the join below); nothing left to drain.
            return;
        }
        stopping_ = true;
        // Ring order, then per-client FIFO: the cancellation order is
        // as deterministic as the dispatch order.
        for (ClientQueue &client : ring_) {
            for (Job &job : client.jobs)
                orphaned.push_back(std::move(job));
            client.jobs.clear();
        }
        std::erase_if(ring_, [](const ClientQueue &client) {
            return client.running == 0;
        });
        cursor_ = 0;
        turnOpen_ = false;
        counters_.cancelledQueued += orphaned.size();
    }
    queueCv_.notify_all();

    // Queued-but-never-started jobs resolve Cancelled — a shutdown must
    // not abandon a caller nor silently run work nobody awaits. Running
    // jobs finish and deliver before their workers exit.
    for (Job &job : orphaned)
        deliver(std::move(job),
                cancelledOutcome("compile service shut down before the "
                                 "job started"));
    for (std::thread &worker : workers_)
        worker.join();
    workers_.clear();
}

std::uint64_t
CompileService::deriveJobSeed(std::uint64_t base_seed,
                              std::size_t job_index)
{
    // SplitMix64 over (base, index): statistically independent streams
    // per job, identical across runs and thread counts.
    std::uint64_t x = base_seed + 0x9E3779B97F4A7C15ull *
        (static_cast<std::uint64_t>(job_index) + 1);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::future<CompileResult>
CompileService::submit(CompileRequest request)
{
    MUSSTI_REQUIRE(request.backend != nullptr,
                   "compile request without a backend");
    // Shared: std::function needs a copyable callable.
    auto promise = std::make_shared<std::promise<CompileResult>>();
    std::future<CompileResult> future = promise->get_future();
    submitWithCallback(std::move(request),
                       [promise](CompileOutcome outcome) {
                           if (outcome.ok())
                               promise->set_value(
                                   std::move(*outcome.result));
                           else
                               promise->set_exception(
                                   outcome.errorInfo().toExceptionPtr());
                       });
    return future;
}

std::future<CompileOutcome>
CompileService::submitOutcome(CompileRequest request)
{
    auto promise = std::make_shared<std::promise<CompileOutcome>>();
    std::future<CompileOutcome> future = promise->get_future();
    submitWithCallback(std::move(request),
                       [promise](CompileOutcome outcome) {
                           promise->set_value(std::move(outcome));
                       });
    return future;
}

void
CompileService::submitWithCallback(CompileRequest request,
                                   std::function<void(CompileOutcome)> done)
{
    MUSSTI_REQUIRE(done != nullptr,
                   "submitWithCallback without a callback");
    Job job{std::move(request), std::move(done), std::nullopt};
    if (job.request.backend == nullptr) {
        CompileOutcome outcome;
        outcome.error = MusstiError(ErrorCategory::InvalidInput,
                                    "input.no-backend",
                                    "compile request without a backend");
        deliver(std::move(job), std::move(outcome));
        return;
    }
    // A memory hit is answered here, so it never waits behind queued
    // or running jobs. The key is computed once: a miss carries it to
    // the worker. The lookup, and its hashing, stay on the worker when
    // the tier is empty (nothing to hit), when the pool is idle (the
    // worker starts the job at once), and for a job already cancelled
    // or past its deadline (the worker's checkpoint resolves it).
    std::shared_ptr<const CompileResult> hit;
    const JobControl control = controlOf(job.request);
    if (config_.cacheCapacity > 0 && !control.cancelRequested() &&
        !control.deadlineExpired() && !memoryEmpty() && !poolIdle()) {
        job.key = keyOf(job.request);
        hit = memoryLookup(*job.key, /*count_miss=*/false);
    }
    bool accepted = false;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        if (!stopping_) {
            accepted = true;
            ++counters_.submitted;
            if (hit != nullptr) {
                // Booked as dispatched and completed at once; it never
                // enters the ring, so it spends no DRR credit.
                ++counters_.dispatched;
                ++counters_.completed;
            } else {
                enqueueLocked(std::move(job));
            }
        }
    }
    if (!accepted) {
        // Submit after shutdown: resolve immediately instead of racing
        // the worker teardown, hit or not.
        deliver(std::move(job),
                cancelledOutcome("submit after compile service shutdown"));
        return;
    }
    if (hit == nullptr) {
        queueCv_.notify_one();
        return;
    }
    cacheHits_.fetch_add(1);
    CompileOutcome outcome;
    outcome.result.emplace(*hit);
    deliver(std::move(job), std::move(outcome));
}

void
CompileService::enqueueLocked(Job job)
{
    auto it = std::find_if(ring_.begin(), ring_.end(),
                           [&job](const ClientQueue &client) {
                               return client.name == job.request.client;
                           });
    if (it == ring_.end()) {
        ring_.push_back(ClientQueue{job.request.client, {}, 0, 0});
        it = ring_.end() - 1;
    }
    it->jobs.push_back(std::move(job));
}

std::vector<CompileOutcome>
CompileService::compileAllOutcomes(std::vector<CompileRequest> requests)
{
    std::vector<std::future<CompileOutcome>> futures;
    futures.reserve(requests.size());
    for (CompileRequest &request : requests)
        futures.push_back(submitOutcome(std::move(request)));

    std::vector<CompileOutcome> outcomes;
    outcomes.reserve(futures.size());
    for (std::future<CompileOutcome> &future : futures)
        outcomes.push_back(future.get());
    return outcomes;
}

bool
CompileService::poolIdle() const
{
    std::lock_guard<std::mutex> lock(queueMutex_);
    return ring_.empty(); // A client stays in it while it has work.
}

AdmissionStats
CompileService::admissionStats() const
{
    std::lock_guard<std::mutex> lock(queueMutex_);
    AdmissionStats stats = counters_;
    for (const ClientQueue &client : ring_) {
        stats.queuedJobs += client.jobs.size();
        stats.inFlightJobs += client.running;
    }
    stats.activeClients = ring_.size();
    return stats;
}

void
CompileService::workerLoop()
{
    std::unique_lock<std::mutex> lock(queueMutex_);
    for (;;) {
        std::optional<Job> job = pickLocked();
        if (!job.has_value()) {
            if (stopping_)
                return; // shutdown() drained the queue; nothing runs.
            queueCv_.wait(lock);
            continue;
        }
        lock.unlock();
        CompileOutcome outcome = runJob(job->request, job->key);
        lock.lock();
        // Book before delivering, so a caller woken by its result sees
        // the job counted as completed.
        finishLocked(job->request.client);
        lock.unlock();
        deliver(std::move(*job), std::move(outcome));
        lock.lock();
    }
}

std::optional<CompileService::Job>
CompileService::pickLocked()
{
    const std::size_t budget = config_.admission.maxInFlightPerClient;
    const auto cost = [](const Job &job) {
        // DRR credit is spent in gate units, so a 10k-gate sweep job
        // drains ~10k credit while an interactive job costs its size.
        return std::max<std::uint64_t>(1, job.request.circuit.size());
    };
    const auto startable = [budget](const ClientQueue &client) {
        return !client.jobs.empty() &&
               (budget == 0 || client.running < budget);
    };

    // Rotate the ring until a full pass makes no progress. Banking a
    // quantum counts as progress: the blocked front job's cost is
    // finite, so its client gets through after a bounded number of
    // rotations.
    std::size_t idle_turns = 0;
    while (idle_turns < ring_.size()) {
        ClientQueue &client = ring_[cursor_];
        if (!startable(client)) {
            endTurnLocked();
            ++idle_turns;
            continue;
        }
        if (!turnOpen_) {
            client.deficit += config_.admission.quantum;
            turnOpen_ = true;
        }
        if (cost(client.jobs.front()) > client.deficit) {
            endTurnLocked();
            idle_turns = 0;
            continue;
        }
        client.deficit -= cost(client.jobs.front());
        Job job = std::move(client.jobs.front());
        client.jobs.pop_front();
        ++client.running;
        ++counters_.dispatched;
        // The turn lasts while the client can go on spending its credit
        // (the next worker continues it); otherwise it ends here.
        if (!startable(client) || cost(client.jobs.front()) > client.deficit)
            endTurnLocked();
        return job;
    }
    return std::nullopt;
}

void
CompileService::endTurnLocked()
{
    ClientQueue &client = ring_[cursor_];
    if (client.jobs.empty())
        client.deficit = 0; // Standard DRR: no banking across idle.
    turnOpen_ = false;
    cursor_ = (cursor_ + 1) % ring_.size();
}

void
CompileService::finishLocked(const std::string &name)
{
    const auto it = std::find_if(
        ring_.begin(), ring_.end(),
        [&name](const ClientQueue &client) { return client.name == name; });
    --it->running;
    ++counters_.completed;
    if (!it->jobs.empty()) {
        // Budget freed: a sleeping worker may now start this client's
        // next job (this worker might pick another client's).
        queueCv_.notify_one();
        return;
    }
    if (it->running > 0)
        return;
    const auto index = static_cast<std::size_t>(it - ring_.begin());
    ring_.erase(it);
    if (index < cursor_)
        --cursor_;
    else if (index == cursor_)
        turnOpen_ = false;
    if (cursor_ >= ring_.size())
        cursor_ = 0;
}

CompileOutcome
CompileService::runJob(CompileRequest &request,
                       std::optional<CacheKey> key)
{
    CompileOutcome outcome;
    try {
        const JobControl control = controlOf(request);
        // A job whose deadline already passed (or whose token fired
        // while queued) resolves without compiling anything.
        control.checkpoint();
        FaultInjector::maybeThrow(FaultSite::WorkerDequeue);

        if (!key.has_value())
            key = keyOf(request);

        // Memory is asked again before disk: a duplicate queued behind
        // its twin missed at submit but hits once the twin is stored.
        const bool result_cache =
            config_.cacheCapacity > 0 || disk_ != nullptr;
        if (result_cache) {
            if (auto cached = cacheLookup(*key)) {
                cacheHits_.fetch_add(1);
                outcome.result = std::move(*cached);
                return outcome;
            }
        }

        // One scheduler arena per worker thread: consecutive jobs on a
        // worker reuse warm buffers (a pure allocation cache — results
        // are bit-identical, pinned by test_compile_service /
        // test_scheduler_workspace). Thread-local rather than
        // per-service so the arena survives as long as the worker.
        thread_local auto workspace = std::make_shared<SchedulerWorkspace>();

        Circuit circuit = std::move(request.circuit);
        CompileResult result = compileOnce(request, std::move(circuit), *key,
                                           workspace, control);
        jobsExecuted_.fetch_add(1);

        // A failed job never reaches this store — the result tiers only
        // ever hold compiles that completed.
        if (result_cache && !FaultInjector::fires(FaultSite::CacheStore)) {
            memoryStore(*key, result, /*in_use=*/false);
            if (disk_ != nullptr)
                disk_->store(*key, result);
        }
        outcome.result = std::move(result);
    } catch (...) {
        outcome.error = describeCurrentException();
    }
    return outcome;
}

CompileResult
CompileService::compileOnce(
    const CompileRequest &request, Circuit circuit, const CacheKey &key,
    const std::shared_ptr<SchedulerWorkspace> &workspace,
    const JobControl &control)
{
    DeltaCompileIO delta;
    const bool tier_on =
        config_.snapshotCacheCapacity > 0 &&
        !deltaQuarantined_.load(std::memory_order_relaxed);
    delta.allowCapture = tier_on;
    if (tier_on)
        delta.candidates = probeSnapshots(key, circuit);
    const bool had_candidates = !delta.candidates.empty();

    CompileResult compiled = request.backend->compile(
        std::move(circuit), {.seed = request.seed,
                             .workspace = workspace,
                             .delta = &delta,
                             .control = &control});

    if (tier_on) {
        if (delta.resumed) {
            deltaResumes_.fetch_add(1);
            deltaFallbackStreak_.store(0, std::memory_order_relaxed);
        } else if (had_candidates) {
            deltaFallbacks_.fetch_add(1);
            noteDeltaFallback();
        }
        // Snapshots are only banked here, after the compile finished:
        // a job that failed mid-run contributes nothing to the tier.
        // Re-read the quarantine flag — if THIS job's fallback tripped
        // it, its captures must not repopulate the tier just cleared.
        if (!deltaQuarantined_.load(std::memory_order_relaxed) &&
            !FaultInjector::fires(FaultSite::CacheStore))
            storeSnapshots(key, std::move(delta.captured));
    }
    return compiled;
}

void
CompileService::noteDeltaFallback()
{
    const int threshold = config_.deltaQuarantineThreshold;
    if (threshold <= 0)
        return;
    const int streak =
        deltaFallbackStreak_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (streak < threshold)
        return;
    if (deltaQuarantined_.exchange(true, std::memory_order_relaxed))
        return;
    deltaQuarantines_.fetch_add(1);
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        snapshots_.clear();
        prefixIndex_.clear();
        snapshotBytes_ = 0;
    }
    warn("delta snapshot tier quarantined after " +
         std::to_string(streak) +
         " consecutive resume fallbacks; compiling cold from here on");
}

void
CompileService::deliver(Job job, CompileOutcome outcome)
{
    if (!outcome.ok() && outcome.error.has_value()) {
        switch (outcome.error->category()) {
          case ErrorCategory::Timeout:
            jobsTimedOut_.fetch_add(1);
            break;
          case ErrorCategory::Cancelled:
            jobsCancelled_.fetch_add(1);
            break;
          default:
            jobsFailed_.fetch_add(1);
            break;
        }
    }

    job.callback(std::move(outcome));
}

bool
CompileService::memoryEmpty() const
{
    std::lock_guard<std::mutex> lock(resultMutex_);
    return results_.size() == 0;
}

std::shared_ptr<const CompileResult>
CompileService::memoryLookup(const CacheKey &key, bool count_miss)
{
    std::lock_guard<std::mutex> lock(resultMutex_);
    if (const auto *hit = results_.find(key)) {
        ++memoryStats_.hits;
        return *hit;
    }
    if (count_miss)
        ++memoryStats_.misses;
    return nullptr;
}

std::optional<CompileResult>
CompileService::cacheLookup(const CacheKey &key)
{
    if (config_.cacheCapacity > 0) {
        if (auto hit = memoryLookup(key, /*count_miss=*/true))
            return *hit;
    }
    if (disk_ == nullptr)
        return std::nullopt;
    std::optional<CompileResult> hit = disk_->lookup(key);
    // Promote, so e.g. a disk hit after a restart is memory-speed from
    // now on. A disk hit is at least the result's second use, so it
    // enters the protected segment.
    if (hit.has_value())
        memoryStore(key, *hit, /*in_use=*/true);
    return hit;
}

void
CompileService::memoryStore(const CacheKey &key, const CompileResult &result,
                            bool in_use)
{
    if (config_.cacheCapacity == 0)
        return;
    // Copied before taking the lock.
    auto copy = std::make_shared<const CompileResult>(result);
    std::lock_guard<std::mutex> lock(resultMutex_);
    results_.insert(key, std::move(copy),
                    [this](const CacheKey &,
                           const std::shared_ptr<const CompileResult> &) {
                        ++memoryStats_.evictions;
                    });
    if (in_use)
        results_.find(key);
}

std::vector<std::shared_ptr<const ScheduleSnapshot>>
CompileService::probeSnapshots(const CacheKey &key, const Circuit &circuit)
{
    std::vector<std::shared_ptr<const ScheduleSnapshot>> found;
    std::lock_guard<std::mutex> lock(cacheMutex_);

    const auto index_it = prefixIndex_.find(probeKeyOf(key));
    if (index_it != prefixIndex_.end()) {
        // Walk the cached prefix lengths longest-first — the longer
        // the verified prefix, the less suffix the scheduler replays —
        // and stop once enough candidates are in hand.
        const auto &lengths = index_it->second;
        for (auto it = lengths.rbegin();
             it != lengths.rend() && found.size() < kMaxResumeCandidates;
             ++it) {
            const std::size_t prefix_gates = it->first;
            if (prefix_gates == 0 || prefix_gates > circuit.size())
                continue;
            const auto *snap = snapshots_.find(
                {circuit.prefixHash(prefix_gates), key.configDigest,
                 key.seed, key.hasSeed});
            if (snap != nullptr)
                found.push_back(*snap);
        }
    }

    if (found.empty())
        snapshotMisses_.fetch_add(1);
    else
        snapshotHits_.fetch_add(1);

    // The scheduler wants candidates ascending by covered prefix.
    std::reverse(found.begin(), found.end());
    return found;
}

void
CompileService::storeSnapshots(const CacheKey &key,
                               std::vector<ScheduleSnapshot> captured)
{
    if (captured.empty())
        return;
    // Eviction drops the victim's share of the probe index and of the
    // footprint.
    const auto unwind = [this](const CacheKey &victim,
                               const std::shared_ptr<const ScheduleSnapshot>
                                   &snap) {
        const std::size_t bytes = snap->approxBytes();
        snapshotBytes_ -= std::min(bytes, snapshotBytes_);
        const auto index_it = prefixIndex_.find(probeKeyOf(victim));
        if (index_it != prefixIndex_.end()) {
            auto &lengths = index_it->second;
            const auto len_it = lengths.find(snap->inputPrefixGates);
            if (len_it != lengths.end() && --len_it->second <= 0)
                lengths.erase(len_it);
            if (lengths.empty())
                prefixIndex_.erase(index_it);
        }
        snapshotEvictions_.fetch_add(1);
    };

    std::lock_guard<std::mutex> lock(cacheMutex_);
    for (ScheduleSnapshot &snap : captured) {
        if (snap.inputPrefixGates == 0)
            continue;
        const CacheKey skey{snap.prefixHash, key.configDigest, key.seed,
                            key.hasSeed};
        // Deterministic compiles recapture identical checkpoints; keep
        // the incumbent (find just refreshed its recency).
        if (snapshots_.find(skey) != nullptr)
            continue;
        snapshotBytes_ += snap.approxBytes();
        prefixIndex_[probeKeyOf(key)][snap.inputPrefixGates] += 1;
        snapshots_.insert(
            skey, std::make_shared<const ScheduleSnapshot>(std::move(snap)),
            unwind);
    }
}

CompileService::CacheStats
CompileService::cacheStats() const
{
    CacheStats stats;
    stats.resultHits = cacheHits_.load();
    stats.resultMisses = jobsExecuted_.load();
    {
        std::lock_guard<std::mutex> lock(resultMutex_);
        stats.memoryTier = memoryStats_;
    }
    if (disk_ != nullptr)
        stats.diskTier = disk_->stats();
    stats.resultEvictions = stats.memoryTier.evictions;
    stats.snapshotHits = snapshotHits_.load();
    stats.snapshotMisses = snapshotMisses_.load();
    stats.snapshotEvictions = snapshotEvictions_.load();
    stats.deltaResumes = deltaResumes_.load();
    stats.deltaFallbacks = deltaFallbacks_.load();
    stats.jobsFailed = jobsFailed_.load();
    stats.jobsTimedOut = jobsTimedOut_.load();
    stats.jobsCancelled = jobsCancelled_.load();
    stats.deltaQuarantines = deltaQuarantines_.load();
    stats.deltaQuarantined =
        deltaQuarantined_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        stats.snapshotCount = snapshots_.size();
        stats.snapshotBytes = snapshotBytes_;
    }
    return stats;
}

} // namespace mussti
