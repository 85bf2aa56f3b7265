/**
 * @file
 * Thread-pooled batch compilation service.
 *
 * Jobs pair a shared ICompilerBackend with a circuit (and an optional
 * per-job RNG seed) and run on a fixed worker pool. Every job compiles
 * in a private CompileContext, so results are bit-identical to serial
 * execution regardless of thread count or completion order. Results are
 * memoised keyed by (circuit content hash, backend config digest, seed)
 * in an in-memory BoundedLru (common/bounded_lru.h), backed by an
 * optional persistent DiskResultCache whose hits are promoted into
 * memory; this collapses the repeated compilations the bench sweeps
 * perform.
 *
 * A second BoundedLru caches delta-compile checkpoints
 * (core/schedule_snapshot.h) keyed by (input PREFIX hash, config
 * digest, seed): when a submitted circuit shares a prefix with an
 * earlier compile, the matching snapshots ride into the backend's
 * compile call (CompileOptions::delta) as resume candidates, so the
 * recompile costs time proportional to the edited suffix instead of
 * the whole circuit — with a bit-identical result either way.
 *
 * Failure is a first-class outcome (see "Failure semantics" in
 * src/core/README.md): every job resolves to a CompileOutcome carrying
 * either a result or a structured MusstiError; requests may carry a
 * deadline and a cancellation token (checked cooperatively at pass
 * boundaries and inside the scheduler's routing loop); every failure,
 * whatever its category, resolves the job on its first attempt; and
 * neither cache tier is ever populated by a failed job. Shutdown drains
 * queued jobs with Cancelled outcomes instead of abandoning their
 * callers.
 *
 * The service has ONE queue, and it is multi-tenant: every request
 * names a client (CompileRequest::client, empty = anonymous), and a
 * free worker picks the next job by deficit round robin (DRR) over the
 * clients with queued work (see FairAdmissionConfig). With one client
 * and the default unbounded budget that is plain FIFO. Every job
 * resolves through one completion callback; the future-returning and
 * batch entry points are thin adapters over it.
 *
 * A memory-tier hit never waits in that queue: while any job is queued
 * or running, submit looks the key up and, on a hit, resolves the job
 * on the submitting thread, so a cached answer costs one result copy,
 * not a wait behind cold compiles. DRR credit is spent only by queued
 * jobs. On an idle pool a job queues and a worker starts it at once. A
 * job already cancelled or past its deadline is not looked up at
 * submit; it queues and resolves Cancelled or Timeout at the worker's
 * checkpoint. Misses, and every disk-tier lookup, stay on the workers.
 * The memory tier is a segmented LRU, so a sweep of one-off compiles
 * cannot flush the results other callers keep asking for.
 */
#ifndef MUSSTI_CORE_COMPILE_SERVICE_H
#define MUSSTI_CORE_COMPILE_SERVICE_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bounded_lru.h"
#include "common/error.h"
#include "core/backend.h"
#include "core/result_cache.h"
#include "core/schedule_snapshot.h"

namespace mussti {

/**
 * Fairness policy of the service queue: deficit round robin (DRR,
 * Shreedhar & Varghese) over per-client FIFO queues. Clients take turns
 * in the order they became active; each turn banks `quantum` gate
 * credit, and the client's jobs start while the credit covers their
 * cost — a job costs its gate count, so DRR apportions compile work,
 * not job slots. A client with nothing queued or running leaves the
 * rotation, and its unspent credit with it.
 */
struct FairAdmissionConfig
{
    /**
     * Gate credit a client banks per DRR turn. Larger quanta lower
     * switching granularity (a client may burst more per turn);
     * smaller quanta interleave finer. Any positive value preserves
     * long-run proportional fairness; 0 is treated as 1.
     */
    std::uint64_t quantum = 256;

    /**
     * Jobs of one client that may RUN at once; 0 = unbounded. The lever
     * that keeps a sweep from filling every worker the moment it is
     * alone, which would still delay the next interactive arrival by a
     * full compile. A worker that finds only over-budget clients waits
     * for a completion.
     */
    std::size_t maxInFlightPerClient = 0;
};

/** Point-in-time counters of the service queue. */
struct AdmissionStats
{
    std::uint64_t submitted = 0;   ///< Jobs accepted (memory hits too).
    std::uint64_t dispatched = 0;  ///< Jobs a worker picked up, plus
                                   ///< memory hits served at submit.
    std::uint64_t completed = 0;   ///< Dispatched jobs that finished.
    std::uint64_t cancelledQueued = 0; ///< Queued jobs cancelled by shutdown.
    std::size_t queuedJobs = 0;    ///< Currently waiting for a worker.
    std::size_t inFlightJobs = 0;  ///< Currently running.
    std::size_t activeClients = 0; ///< Clients with queued or running work.
};

/** Pool, cache, queue-fairness, and quarantine policy sizing. */
struct CompileServiceConfig
{
    /**
     * Worker threads; <= 0 selects the hardware concurrency. Above
     * CompileService::kMaxThreads the constructor raises input.require.
     */
    int numThreads = 0;

    /**
     * Results kept in the in-memory LRU tier; 0 disables that tier.
     * A lookup tries memory first, then — when diskCachePath is set —
     * the persistent disk tier (core/result_cache.h); a disk hit serves
     * the job and is promoted into memory.
     */
    std::size_t cacheCapacity = 128;

    /**
     * Directory of the disk-backed persistent result tier; empty
     * disables it. Identical compiles from different processes (or a
     * restarted server) sharing this directory never recompile: the
     * cache key discipline — circuit content hash x backend config
     * digest x seed — makes a disk hit bit-identical to recompiling.
     * Corrupt or truncated entries degrade to misses and are
     * quarantined, never surfaced as results or errors.
     */
    std::string diskCachePath;

    /** Disk-tier entry bound (oldest evicted past it; 0 = unbounded). */
    std::size_t diskCacheCapacity = 512;

    /**
     * Delta-compile checkpoints kept (LRU evicted); 0 disables the
     * snapshot tier entirely — jobs then offer no resume candidates
     * and capture nothing. With the tier on, every job's
     * ICompilerBackend::compile call carries a delta exchange
     * (CompileOptions::delta): snapshots captured by past compiles are
     * offered as resume candidates to future jobs that share an input
     * prefix (same config digest and seed), turning an
     * append-or-reparameterize recompile into work proportional to the
     * edited suffix. Results
     * stay bit-identical by contract; backends without a delta path
     * are unaffected.
     */
    std::size_t snapshotCacheCapacity = 64;

    /**
     * Quarantine the delta snapshot tier after this many CONSECUTIVE
     * resume fallbacks (candidate-backed compiles that still scheduled
     * cold) with no successful resume in between; 0 never quarantines.
     * A quarantined tier is cleared and bypassed — jobs compile cold,
     * which is bit-identical by the delta contract, so a corrupted or
     * persistently useless snapshot store degrades throughput, never
     * correctness. A successful resume resets the streak.
     */
    int deltaQuarantineThreshold = 32;

    /** Queue fairness across clients; the default is plain FIFO. */
    FairAdmissionConfig admission;
};

/**
 * One unit of work for the service. Every optional member is
 * default-initialised, so the shorter aggregate forms stay warning-free.
 */
struct CompileRequest
{
    std::shared_ptr<const ICompilerBackend> backend;
    Circuit circuit;

    /**
     * RNG seed for the backend's stochastic passes; unset runs under
     * the backend's own configured seed (identical to a direct
     * backend->compile() call).
     */
    std::optional<std::uint64_t> seed{};

    /**
     * Absolute deadline. Checked before the job starts, at every pass
     * boundary, and every JobControl::checkEveryGates routing steps;
     * past it the job resolves with a Timeout error.
     */
    std::optional<std::chrono::steady_clock::time_point> deadline{};

    /**
     * Cancellation token (may be null). Set it to true at any time —
     * the job resolves Cancelled at its next cooperative checkpoint,
     * or immediately if still queued when checked. One token may be
     * shared by many requests to cancel them as a group.
     */
    std::shared_ptr<const std::atomic<bool>> cancel{};

    /**
     * Fairness identity: requests naming the same client share one DRR
     * queue and one running-job budget. Empty is the anonymous client.
     */
    std::string client{};
};

/**
 * How one job ended: exactly one of `result` (success) or `error`
 * (structured failure) is set. The batch-tolerant APIs return these in
 * submission order, so one bad circuit in a sweep costs one outcome,
 * not the batch.
 */
struct CompileOutcome
{
    std::optional<CompileResult> result;
    std::optional<MusstiError> error;

    bool ok() const { return result.has_value(); }

    /** The result; raises the structured error if the job failed. */
    const CompileResult &value() const;

    /** Move the result out; raises the structured error on failure. */
    CompileResult take();

    /** The error; panics if the job succeeded. */
    const MusstiError &errorInfo() const;
};

/** Fixed-size worker pool compiling jobs with result memoisation. */
class CompileService
{
  public:
    explicit CompileService(const CompileServiceConfig &config = {});
    ~CompileService();

    CompileService(const CompileService &) = delete;
    CompileService &operator=(const CompileService &) = delete;

    /**
     * Enqueue one job; the future yields the result (or throws the
     * structured error — a MusstiFault/MusstiPanic). After shutdown()
     * the future is immediately ready with a Cancelled error (it does
     * not race worker teardown). An adapter over submitWithCallback.
     */
    std::future<CompileResult> submit(CompileRequest request);

    std::future<CompileResult>
    submit(std::shared_ptr<const ICompilerBackend> backend,
           Circuit circuit)
    {
        return submit({std::move(backend), std::move(circuit), {}, {}, {}});
    }

    std::future<CompileResult>
    submit(std::shared_ptr<const ICompilerBackend> backend,
           Circuit circuit, std::uint64_t seed)
    {
        return submit({std::move(backend), std::move(circuit), seed, {}, {}});
    }

    /**
     * Enqueue one job on the error-tolerant path: the future always
     * yields a CompileOutcome and never throws — failures (including
     * submit-after-shutdown, which resolves Cancelled immediately)
     * arrive as the outcome's structured error.
     */
    std::future<CompileOutcome> submitOutcome(CompileRequest request);

    /**
     * Enqueue one job: `done` is invoked exactly once with the job's
     * outcome, from whichever thread resolves it — a worker, the
     * thread calling shutdown() for a job still queued then, or the
     * submitting thread, before this call returns, for memory-tier
     * hits served while the pool is busy and for immediate rejections
     * (no backend, submit-after-shutdown). Every other entry point is
     * an adapter over this one. The callback must not block for long, must not
     * re-enter shutdown(), and must not take a lock the submitting
     * thread holds across the call.
     */
    void submitWithCallback(CompileRequest request,
                            std::function<void(CompileOutcome)> done);

    /**
     * Compile a batch: outcomes in submission order, one per request,
     * never throws. Jobs run concurrently across the pool; the call
     * blocks until all finish. One malformed circuit in a 1000-job
     * batch yields 999 results plus one structured error; the surviving
     * results are bit-identical to the batch without the bad job, at
     * any thread count.
     */
    std::vector<CompileOutcome>
    compileAllOutcomes(std::vector<CompileRequest> requests);

    /**
     * Stop the pool: reject new submissions (inline Cancelled
     * outcomes), resolve every still-queued job Cancelled in DRR ring
     * order (per-client FIFO within a client), let running compiles
     * finish and deliver, then join the workers. Idempotent; the
     * destructor calls it.
     */
    void shutdown();

    /**
     * Deterministic per-job seed derivation (SplitMix64 over the base
     * seed and job index) — independent of thread count and completion
     * order, so a batch seeded by job index replays exactly (the device
     * tuner seeds its sweep this way).
     */
    static std::uint64_t deriveJobSeed(std::uint64_t base_seed,
                                       std::size_t job_index);

    /**
     * Upper bound accepted for an explicit worker-thread count; the
     * constructor rejects a larger CompileServiceConfig::numThreads.
     */
    static constexpr int kMaxThreads = 512;

    int numThreads() const { return static_cast<int>(workers_.size()); }

    /** Jobs that actually compiled (cache misses). */
    std::uint64_t jobsExecuted() const { return jobsExecuted_.load(); }

    /** Jobs served from the result cache. */
    std::uint64_t cacheHits() const { return cacheHits_.load(); }

    /** Queue counters: intake, DRR dispatch, running, clients. */
    AdmissionStats admissionStats() const;

    /** Counters over both cache tiers and the failure paths. */
    struct CacheStats
    {
        std::uint64_t resultHits = 0;   ///< Jobs served from the result cache.
        std::uint64_t resultMisses = 0; ///< Jobs that actually compiled.
        std::uint64_t resultEvictions = 0; ///< Results dropped by the LRU bound.
        std::uint64_t snapshotHits = 0; ///< Probes finding >=1 resume candidate.
        std::uint64_t snapshotMisses = 0;  ///< Probes finding none.
        std::uint64_t snapshotEvictions = 0; ///< Snapshots dropped by the bound.
        std::uint64_t deltaResumes = 0; ///< Compiles resumed from a snapshot.
        std::uint64_t deltaFallbacks = 0; ///< Candidate-backed compiles that
                                          ///< still scheduled cold.
        std::size_t snapshotCount = 0;  ///< Snapshots currently cached.
        std::size_t snapshotBytes = 0;  ///< Their approximate footprint.

        // ---- failure-path counters -----------------------------------
        std::uint64_t jobsFailed = 0;    ///< Non-timeout/cancel failures.
        std::uint64_t jobsTimedOut = 0;  ///< Jobs resolved Timeout.
        std::uint64_t jobsCancelled = 0; ///< Jobs resolved Cancelled.
        std::uint64_t deltaQuarantines = 0; ///< Tier quarantine events.
        bool deltaQuarantined = false;   ///< Tier currently quarantined.

        /**
         * Per-tier result-cache counters (core/result_cache.h). The
         * aggregate resultHits above counts jobs served by either tier;
         * these break it down: memoryTier for the in-memory LRU,
         * diskTier for the persistent tier (all-zero when the tier is
         * not configured). diskTier.corrupt counts entries that failed
         * validation and were quarantined as misses.
         */
        ResultTierStats memoryTier;
        ResultTierStats diskTier;
    };

    /**
     * Point-in-time cache-effectiveness counters across the result tier
     * and the delta-compile snapshot tier. Monotonic over the service's
     * lifetime except snapshotCount/snapshotBytes/deltaQuarantined,
     * which track current state.
     */
    CacheStats cacheStats() const;

  private:
    struct Job
    {
        CompileRequest request;
        std::function<void(CompileOutcome)> callback;
        /**
         * Result-tier key, computed at submit when a memory lookup was
         * made there; the worker computes it otherwise.
         */
        std::optional<ResultCacheKey> key;
    };

    /** One client's slot in the DRR rotation. */
    struct ClientQueue
    {
        std::string name;
        std::deque<Job> jobs;       ///< FIFO within the client.
        std::uint64_t deficit = 0;  ///< Banked gate credit.
        std::size_t running = 0;    ///< Picked up, not yet finished.
    };

    /**
     * Coordinates of both cache tiers. A result is keyed by its whole
     * circuit's content hash; a snapshot by the hash of the input
     * PREFIX it covers (that is the point), with the same config/seed
     * coordinates so it can never resume a job it was not produced
     * under.
     */
    using CacheKey = ResultCacheKey;

    void workerLoop();

    /**
     * DRR pick: the next job a free worker should run, booked as
     * running; nullopt when nothing queued is within budget.
     */
    std::optional<Job> pickLocked();

    /** True while no job is queued or running. */
    bool poolIdle() const;

    /** Close the current turn and move the cursor to the next client. */
    void endTurnLocked();

    /** Book a finished job; drop its client once it has no work left. */
    void finishLocked(const std::string &client);

    /** Append a job to its client's FIFO, joining the ring if new. */
    void enqueueLocked(Job job);

    /**
     * Run one job to an outcome: cache lookup, compile, cache store.
     * `key` is the one computed at submit, if any.
     */
    CompileOutcome runJob(CompileRequest &request,
                          std::optional<CacheKey> key);

    /** The job's compile, carrying its delta exchange and control. */
    CompileResult
    compileOnce(const CompileRequest &request, Circuit circuit,
                const CacheKey &key,
                const std::shared_ptr<SchedulerWorkspace> &workspace,
                const JobControl &control);

    /**
     * Book the failure counters and run the job's callback — the
     * single accounting point every delivery funnels through.
     */
    void deliver(Job job, CompileOutcome outcome);

    /** Record a candidate-backed cold fallback; maybe quarantine. */
    void noteDeltaFallback();

    /**
     * Find `key` in the memory tier (which must be on); null on a
     * miss. A hit always counts in memoryStats_, a miss only when
     * `count_miss`: a submit-time miss is counted by the worker's
     * second look, so each job counts one memory outcome.
     */
    std::shared_ptr<const CompileResult>
    memoryLookup(const CacheKey &key, bool count_miss);

    /** True while the memory tier holds no result. */
    bool memoryEmpty() const;

    /**
     * Try the memory tier, then the disk tier; a disk hit is promoted
     * into memory. nullopt = miss in both.
     */
    std::optional<CompileResult> cacheLookup(const CacheKey &key);

    /**
     * Store a finished result into the memory tier (if enabled); on
     * probation, or protected when `in_use` (a disk-tier hit).
     */
    void memoryStore(const CacheKey &key, const CompileResult &result,
                     bool in_use);

    /**
     * Find cached snapshots whose input prefix the circuit shares
     * (hash-verified), ascending by prefix length, at most
     * kMaxResumeCandidates of the longest ones. Counts a snapshot-tier
     * hit or miss.
     */
    std::vector<std::shared_ptr<const ScheduleSnapshot>>
    probeSnapshots(const CacheKey &key, const Circuit &circuit);

    /** Insert captured checkpoints, evicting LRU past the bound. */
    void storeSnapshots(const CacheKey &key,
                        std::vector<ScheduleSnapshot> captured);

    /** Longest resume-candidate list offered to one compile. */
    static constexpr std::size_t kMaxResumeCandidates = 8;

    /**
     * Share of the memory tier kept for results found again at least
     * once (the protected segment), in percent.
     */
    static constexpr std::size_t kProtectedPercent = 80;

    CompileServiceConfig config_;
    std::vector<std::thread> workers_;

    // ---- the queue (all guarded by queueMutex_) ----------------------
    mutable std::mutex queueMutex_;
    std::condition_variable queueCv_; ///< Work queued or budget freed.

    /**
     * Active clients in DRR order (the order they became active); a
     * client leaves when it has nothing queued or running, so the ring
     * is bounded by live jobs.
     */
    std::vector<ClientQueue> ring_;
    std::size_t cursor_ = 0;  ///< Ring position whose turn it is.
    bool turnOpen_ = false;   ///< ring_[cursor_] banked this turn's quantum.
    bool stopping_ = false;
    AdmissionStats counters_; ///< Monotonic fields only.

    // ---- result tiers ------------------------------------------------
    /**
     * Guards the memory tier and its counters. Separate from
     * cacheMutex_: a snapshot probe hashes circuit prefixes under that
     * lock, and a memory hit must not wait behind it.
     */
    mutable std::mutex resultMutex_;
    /**
     * Segmented: results never asked for again (a sweep of one-off
     * compiles) churn probation and cannot flush results in use.
     * Shared, so a hit copies the result out after the lock drops.
     */
    BoundedLru<CacheKey, std::shared_ptr<const CompileResult>,
               ResultCacheKeyHash>
        results_;
    ResultTierStats memoryStats_;
    std::unique_ptr<DiskResultCache> disk_; ///< Null when not configured.

    // ---- snapshot tier (all guarded by cacheMutex_) ------------------
    mutable std::mutex cacheMutex_;
    BoundedLru<CacheKey, std::shared_ptr<const ScheduleSnapshot>,
               ResultCacheKeyHash>
        snapshots_;

    /**
     * Probe index: per {0, configDigest, seed, hasSeed}, the cached
     * prefix lengths with a refcount (several snapshots of different
     * circuits may share a length). Lets a probe enumerate candidate
     * lengths and hash only those prefixes of the incoming circuit.
     */
    std::unordered_map<CacheKey, std::map<std::size_t, int>,
                       ResultCacheKeyHash>
        prefixIndex_;
    std::size_t snapshotBytes_ = 0;

    std::atomic<std::uint64_t> jobsExecuted_{0};
    std::atomic<std::uint64_t> cacheHits_{0}; ///< Hits in either tier.
    std::atomic<std::uint64_t> snapshotHits_{0};
    std::atomic<std::uint64_t> snapshotMisses_{0};
    std::atomic<std::uint64_t> snapshotEvictions_{0};
    std::atomic<std::uint64_t> deltaResumes_{0};
    std::atomic<std::uint64_t> deltaFallbacks_{0};

    std::atomic<std::uint64_t> jobsFailed_{0};
    std::atomic<std::uint64_t> jobsTimedOut_{0};
    std::atomic<std::uint64_t> jobsCancelled_{0};
    std::atomic<std::uint64_t> deltaQuarantines_{0};
    std::atomic<int> deltaFallbackStreak_{0};
    std::atomic<bool> deltaQuarantined_{false};
};

} // namespace mussti

#endif // MUSSTI_CORE_COMPILE_SERVICE_H
