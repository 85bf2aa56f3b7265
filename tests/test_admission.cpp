/**
 * @file
 * Tests for the service queue's multi-tenant fairness
 * (FairAdmissionConfig in core/compile_service.h): the deficit round
 * robin a worker runs when it picks its next job, the per-client budget
 * on concurrently RUNNING jobs, shutdown semantics, and the determinism
 * contract — a compile's result is identical under any interleaving to
 * a direct service batch.
 *
 * The interleaving tests pin the DRR order by parking the single worker
 * on a gated compile while the jobs under test queue up behind it: once
 * the gate opens, the worker picks them one at a time, so the order in
 * which their callbacks fire IS the DRR order.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/backend_factory.h"
#include "core/compile_service.h"
#include "core/pipeline.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

using std::chrono::milliseconds;

std::shared_ptr<const ICompilerBackend>
backend()
{
    static const std::shared_ptr<const ICompilerBackend> shared =
        makeMusstiBackend();
    return shared;
}

CompileRequest
requestFor(const Circuit &circuit, std::uint64_t seed,
           const std::string &client = "")
{
    return {backend(), circuit, seed, {}, {}, client};
}

/** Poll `done` for up to 30 s; false on timeout. */
template <typename Pred>
bool
eventually(Pred done)
{
    for (int i = 0; i < 30000; ++i) {
        if (done())
            return true;
        std::this_thread::sleep_for(milliseconds(1));
    }
    return done();
}

/** Callbacks that record, in firing order, which client completed. */
class Tally
{
  public:
    std::function<void(CompileOutcome)>
    sink(const std::string &client)
    {
        return [this, client](CompileOutcome outcome) {
            EXPECT_TRUE(outcome.ok());
            std::lock_guard<std::mutex> lock(mutex_);
            order_.push_back(client);
            cv_.notify_all();
        };
    }

    /** The firing order once `count` callbacks have fired. */
    std::vector<std::string>
    waitFor(std::size_t count)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return order_.size() >= count; });
        return order_;
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::vector<std::string> order_;
};

/**
 * A backend that parks every compile until open() and records how many
 * of its compiles ran at once.
 */
class GatedBackend : public ICompilerBackend
{
  public:
    const std::string &name() const override { return inner_->name(); }
    std::uint64_t configDigest() const override
    {
        return inner_->configDigest();
    }

    void open()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        open_ = true;
        cv_.notify_all();
    }

    int running() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return running_;
    }

    int maxRunning() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return maxRunning_;
    }

  protected:
    CompileResult doCompile(Circuit circuit,
                            const CompileOptions &options) const override
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            ++running_;
            maxRunning_ = std::max(maxRunning_, running_);
            cv_.wait(lock, [this] { return open_; });
        }
        CompileResult result = inner_->compile(std::move(circuit), options);
        std::lock_guard<std::mutex> lock(mutex_);
        --running_;
        return result;
    }

  private:
    std::shared_ptr<const ICompilerBackend> inner_ = backend();
    mutable std::mutex mutex_;
    mutable std::condition_variable cv_;
    mutable int running_ = 0;
    mutable int maxRunning_ = 0;
    bool open_ = false;
};

/** A one-worker, cache-off service under `policy`. */
CompileServiceConfig
singleWorker(const FairAdmissionConfig &policy = {})
{
    CompileServiceConfig config;
    config.numThreads = 1;
    config.cacheCapacity = 0;
    config.admission = policy;
    return config;
}

TEST(Admission, CallbackOrderPinsTheDrrInterleaving)
{
    // Quantum 1 against equal-cost jobs: every active client banks one
    // credit per rotation, so turns alternate one job at a time — an
    // order FIFO would never produce.
    FairAdmissionConfig policy;
    policy.quantum = 1;
    CompileService service(singleWorker(policy));

    const Circuit small = makeBenchmark("ghz", 8);
    const auto gate = std::make_shared<GatedBackend>();
    std::future<CompileResult> blocker =
        service.submit({gate, small, 0, {}, {}, "blocker"});
    ASSERT_TRUE(eventually([&] { return gate->running() == 1; }));

    Tally tally;
    for (const char *client : {"A", "A", "A", "A", "B", "B", "C"})
        service.submitWithCallback(requestFor(small, 1, client),
                                   tally.sink(client));
    EXPECT_EQ(service.admissionStats().queuedJobs, 7u);
    EXPECT_EQ(service.admissionStats().activeClients, 4u);

    gate->open();
    blocker.get();
    const std::vector<std::string> expected = {"A", "B", "C", "A",
                                              "B", "A", "A"};
    EXPECT_EQ(tally.waitFor(7), expected);

    service.shutdown(); // Joins: the counters below are final.
    const AdmissionStats stats = service.admissionStats();
    EXPECT_EQ(stats.submitted, 8u);
    EXPECT_EQ(stats.dispatched, 8u);
    EXPECT_EQ(stats.completed, 8u);
    EXPECT_EQ(stats.queuedJobs, 0u);
    EXPECT_EQ(stats.inFlightJobs, 0u);
    EXPECT_EQ(stats.activeClients, 0u); // Idle clients leave the ring.
}

TEST(Admission, DefaultPolicyIsFifo)
{
    // The library default (unbounded budget) with one client is the
    // plain FIFO a batch caller expects.
    CompileService service(singleWorker());
    const Circuit small = makeBenchmark("ghz", 8);
    const auto gate = std::make_shared<GatedBackend>();
    std::future<CompileResult> blocker = service.submit(gate, small);
    ASSERT_TRUE(eventually([&] { return gate->running() == 1; }));

    Tally tally;
    const std::vector<std::string> order = {"j0", "j1", "j2", "j3", "j4"};
    for (const std::string &name : order)
        service.submitWithCallback(requestFor(small, 1), tally.sink(name));
    gate->open();
    blocker.get();
    EXPECT_EQ(tally.waitFor(order.size()), order);
}

TEST(Admission, BudgetBoundsOneClientsRunningJobs)
{
    // Three workers, a budget of two: a client with six queued jobs
    // runs two at a time, and the third worker stays free for anyone
    // else.
    CompileServiceConfig config;
    config.numThreads = 3;
    config.cacheCapacity = 0;
    config.admission.maxInFlightPerClient = 2;
    CompileService service(config);

    const auto gated = std::make_shared<GatedBackend>();
    const Circuit small = makeBenchmark("ghz", 8);
    Tally tally;
    for (int i = 0; i < 6; ++i)
        service.submitWithCallback({gated, small, 10u + i, {}, {}, "sweep"},
                                   tally.sink("sweep"));
    ASSERT_TRUE(eventually([&] { return gated->running() == 2; }));

    // The free worker serves another client while the sweep waits.
    const CompileOutcome other =
        service.submitOutcome(requestFor(small, 99, "ui")).get();
    EXPECT_TRUE(other.ok());

    // A third sweep compile had every chance to start by now.
    std::this_thread::sleep_for(milliseconds(50));
    EXPECT_EQ(gated->running(), 2);
    const AdmissionStats mid = service.admissionStats();
    EXPECT_EQ(mid.inFlightJobs, 2u);
    EXPECT_EQ(mid.queuedJobs, 4u);
    EXPECT_EQ(mid.activeClients, 1u);

    gated->open();
    EXPECT_EQ(tally.waitFor(6).size(), 6u);
    EXPECT_EQ(gated->maxRunning(), 2);
}

TEST(Admission, QuantumMakesCostCountNotJobCount)
{
    // With quantum 1 a ghz-8 job costs its gate count in credit, so a
    // client banks several rotations before each job starts — the DRR
    // serves WORK, not job slots. Only the aggregate is pinned here
    // (the exact interleave is pinned by
    // CallbackOrderPinsTheDrrInterleaving).
    CompileServiceConfig config;
    config.numThreads = 2;
    config.cacheCapacity = 0;
    config.admission.quantum = 1;
    CompileService service(config);

    const Circuit small = makeBenchmark("ghz", 8);
    Tally tally;
    for (int i = 0; i < 3; ++i)
        service.submitWithCallback(requestFor(small, 20 + i, "x"),
                                   tally.sink("x"));
    EXPECT_EQ(tally.waitFor(3).size(), 3u);
}

TEST(Admission, ShutdownCancelsQueuedAndDeliversEverything)
{
    FairAdmissionConfig policy;
    policy.maxInFlightPerClient = 1;
    CompileService service(singleWorker(policy));

    std::atomic<int> ok{0};
    std::atomic<int> cancelled{0};
    const auto count = [&ok, &cancelled](CompileOutcome outcome) {
        if (outcome.ok()) {
            ++ok;
        } else {
            EXPECT_EQ(outcome.errorInfo().code(), "job.cancelled");
            ++cancelled;
        }
    };
    // The client's first job parks the worker; the other three queue.
    const Circuit small = makeBenchmark("ghz", 8);
    const auto gate = std::make_shared<GatedBackend>();
    service.submitWithCallback({gate, small, 30, {}, {}, "c"}, count);
    ASSERT_TRUE(eventually([&] { return gate->running() == 1; }));
    for (int i = 1; i < 4; ++i)
        service.submitWithCallback(requestFor(small, 30 + i, "c"), count);

    // Shutdown cancels the queue first, then waits for the running job,
    // which the gate releases only once the cancellations are booked.
    std::thread opener([&] {
        EXPECT_TRUE(eventually([&] {
            return service.admissionStats().cancelledQueued == 3;
        }));
        gate->open();
    });
    service.shutdown(); // one running, three still queued
    opener.join();

    EXPECT_EQ(ok.load() + cancelled.load(), 4);
    EXPECT_EQ(cancelled.load(), 3);
    EXPECT_EQ(service.admissionStats().cancelledQueued, 3u);

    // Post-shutdown submissions resolve Cancelled inline.
    bool rejected = false;
    service.submitWithCallback(requestFor(small, 99, "c"),
                               [&rejected](CompileOutcome outcome) {
                                   EXPECT_FALSE(outcome.ok());
                                   EXPECT_EQ(outcome.errorInfo().category(),
                                             ErrorCategory::Cancelled);
                                   rejected = true;
                               });
    EXPECT_TRUE(rejected);
}

TEST(Admission, MemoryHitsDoNotQueueBehindRunningJobs)
{
    // One worker, cache on: a memory hit resolves on the submitting
    // thread while the worker is parked on a gated compile.
    CompileServiceConfig config;
    config.numThreads = 1;
    CompileService service(config);
    const Circuit cached = makeBenchmark("ghz", 8);
    ASSERT_TRUE(service.submitOutcome(requestFor(cached, 1)).get().ok());
    const std::uint64_t executed = service.jobsExecuted();

    const auto gate = std::make_shared<GatedBackend>();
    std::future<CompileResult> blocker =
        service.submit(gate, makeBenchmark("bv", 8));
    ASSERT_TRUE(eventually([&] { return gate->running() == 1; }));

    std::future<CompileOutcome> hit =
        service.submitOutcome(requestFor(cached, 1));
    const bool resolved =
        hit.wait_for(milliseconds(0)) == std::future_status::ready;
    EXPECT_TRUE(resolved) << "the hit waited for the parked worker";
    if (!resolved)
        gate->open(); // Let the worker reach it, so the test ends.
    EXPECT_TRUE(hit.get().ok());
    EXPECT_EQ(service.cacheHits(), 1u);
    EXPECT_EQ(service.jobsExecuted(), executed);
    EXPECT_EQ(gate->running(), 1); // The gate is still closed.

    // A cached request already cancelled, or already past its
    // deadline, queues and resolves at the worker's checkpoint.
    const auto token = std::make_shared<std::atomic<bool>>(true);
    std::future<CompileOutcome> cancelled =
        service.submitOutcome({backend(), cached, 1, {}, token});
    std::future<CompileOutcome> late = service.submitOutcome(
        {backend(), cached, 1,
         std::chrono::steady_clock::now() - milliseconds(1), {}});
    EXPECT_EQ(service.admissionStats().queuedJobs, 2u);
    gate->open();
    blocker.get();
    EXPECT_EQ(cancelled.get().errorInfo().category(),
              ErrorCategory::Cancelled);
    EXPECT_EQ(late.get().errorInfo().category(), ErrorCategory::Timeout);

    // After shutdown a cached request resolves Cancelled, hit or not.
    service.shutdown();
    const CompileOutcome after =
        service.submitOutcome(requestFor(cached, 1)).get();
    ASSERT_FALSE(after.ok());
    EXPECT_EQ(after.errorInfo().category(), ErrorCategory::Cancelled);

    EXPECT_EQ(service.cacheHits(), 1u);
    const AdmissionStats stats = service.admissionStats();
    EXPECT_EQ(stats.submitted, 5u); // The hit counts in all three.
    EXPECT_EQ(stats.dispatched, 5u);
    EXPECT_EQ(stats.completed, 5u);
}

TEST(Admission, IdleServiceReportsAnEmptyQueue)
{
    CompileService service{CompileServiceConfig{}};
    const AdmissionStats stats = service.admissionStats();
    EXPECT_EQ(stats.submitted, 0u);
    EXPECT_EQ(stats.activeClients, 0u);
    service.shutdown();
}

TEST(Admission, ResultsAreBitIdenticalToADirectBatch)
{
    // Fairness reorders starts, never what a job compiles to. Two
    // clients interleaving through a multi-thread pool must fingerprint
    // identically to a direct batch.
    const std::vector<std::string> families = {"ghz", "bv", "qft",
                                               "adder"};
    std::vector<CompileRequest> direct;
    for (std::size_t i = 0; i < families.size(); ++i)
        direct.push_back(requestFor(
            makeBenchmark(families[i], 16),
            CompileService::deriveJobSeed(7, i)));

    std::vector<std::uint64_t> want;
    {
        CompileService service{CompileServiceConfig{}};
        for (const CompileOutcome &outcome :
             service.compileAllOutcomes(std::move(direct)))
            want.push_back(resultFingerprint(outcome.value()));
    }

    CompileServiceConfig config;
    config.numThreads = 4;
    config.admission.maxInFlightPerClient = 1; // force queueing
    CompileService service(config);

    std::vector<std::future<CompileOutcome>> outcomes;
    for (std::size_t i = 0; i < families.size(); ++i)
        outcomes.push_back(service.submitOutcome(
            requestFor(makeBenchmark(families[i], 16),
                       CompileService::deriveJobSeed(7, i),
                       i % 2 == 0 ? "even" : "odd")));
    std::vector<std::uint64_t> got;
    for (std::future<CompileOutcome> &future : outcomes) {
        const CompileOutcome outcome = future.get();
        ASSERT_TRUE(outcome.ok());
        got.push_back(resultFingerprint(*outcome.result));
    }
    EXPECT_EQ(want, got);
}

} // namespace
} // namespace mussti
