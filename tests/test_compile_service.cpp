/**
 * @file
 * Tests for the batch CompileService: N-thread batches bit-identical to
 * serial execution, deterministic per-job seeding independent of thread
 * count, result-cache and snapshot-tier behaviour, error propagation
 * through futures, and the worker-pool bound.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/backend_factory.h"
#include "common/error.h"
#include "common/logging.h"
#include "core/compile_service.h"
#include "core/compiler.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

void
expectIdentical(const CompileResult &a, const CompileResult &b)
{
    EXPECT_EQ(a.schedule.ops.size(), b.schedule.ops.size());
    EXPECT_EQ(a.metrics.shuttleCount, b.metrics.shuttleCount);
    EXPECT_EQ(a.metrics.ionSwapCount, b.metrics.ionSwapCount);
    EXPECT_EQ(a.metrics.gate1qCount, b.metrics.gate1qCount);
    EXPECT_EQ(a.metrics.gate2qCount, b.metrics.gate2qCount);
    EXPECT_EQ(a.metrics.fiberGateCount, b.metrics.fiberGateCount);
    EXPECT_EQ(a.metrics.executionTimeUs, b.metrics.executionTimeUs);
    EXPECT_EQ(a.metrics.lnFidelity, b.metrics.lnFidelity);
    EXPECT_EQ(a.swapInsertions, b.swapInsertions);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.finalChains, b.finalChains);
}

/** Run a batch whose every job must succeed; results in order. */
std::vector<CompileResult>
compileAllOk(CompileService &service, std::vector<CompileRequest> requests)
{
    std::vector<CompileResult> results;
    for (CompileOutcome &outcome :
         service.compileAllOutcomes(std::move(requests)))
        results.push_back(outcome.take());
    return results;
}

/** A mixed batch over every stock backend: >= 8 jobs. */
std::vector<CompileRequest>
mixedBatch()
{
    const GridConfig grid{2, 2, 16};
    std::vector<CompileRequest> requests;
    for (const char *family : {"adder", "ghz", "qft"}) {
        requests.push_back(
            {makeMusstiBackend(), makeBenchmark(family, 30), {}});
    }
    for (const auto &name : gridBackendNames()) {
        requests.push_back({makeGridBackend(name, grid),
                            makeBenchmark("adder", 32), {}});
    }
    requests.push_back(
        {makeMusstiBackend(), makeBenchmark("bv", 64), {}});
    requests.push_back(
        {makeMusstiBackend(), makeBenchmark("sqrt", 45), {}});
    return requests;
}

TEST(CompileService, FourThreadBatchIdenticalToSerial)
{
    auto requests = mixedBatch();
    ASSERT_GE(requests.size(), 8u);

    // Serial reference: direct backend calls, no service involved.
    std::vector<CompileResult> serial;
    for (const auto &request : requests)
        serial.push_back(request.backend->compile(request.circuit));

    CompileServiceConfig config;
    config.numThreads = 4;
    CompileService service(config);
    EXPECT_EQ(service.numThreads(), 4);

    const auto parallel = compileAllOk(service, std::move(requests));
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectIdentical(parallel[i], serial[i]);
}

TEST(CompileService, SeededBatchIndependentOfThreadCount)
{
    // Stochastic backend: the replacement policy consumes the RNG, so
    // wrong seed plumbing would change the metrics.
    MusstiConfig config;
    config.replacement = ReplacementPolicy::Random;
    const auto backend = makeMusstiBackend(config);
    const std::uint64_t base = 42;

    auto makeRequests = [&] {
        std::vector<CompileRequest> requests;
        for (std::size_t i = 0; i < 8; ++i) {
            requests.push_back({backend, makeBenchmark("ran", 40),
                                CompileService::deriveJobSeed(base, i)});
        }
        return requests;
    };

    CompileServiceConfig one_thread;
    one_thread.numThreads = 1;
    one_thread.cacheCapacity = 0; // force real recompilation
    CompileServiceConfig four_threads;
    four_threads.numThreads = 4;
    four_threads.cacheCapacity = 0;

    CompileService serial(one_thread);
    CompileService parallel(four_threads);
    const auto a = compileAllOk(serial, makeRequests());
    const auto b = compileAllOk(parallel, makeRequests());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectIdentical(a[i], b[i]);
    EXPECT_EQ(serial.jobsExecuted(), 8u);
    EXPECT_EQ(parallel.jobsExecuted(), 8u);
}

TEST(CompileService, DeriveJobSeedDeterministicAndDistinct)
{
    EXPECT_EQ(CompileService::deriveJobSeed(7, 3),
              CompileService::deriveJobSeed(7, 3));
    EXPECT_NE(CompileService::deriveJobSeed(7, 3),
              CompileService::deriveJobSeed(7, 4));
    EXPECT_NE(CompileService::deriveJobSeed(7, 3),
              CompileService::deriveJobSeed(8, 3));
}

TEST(CompileService, RejectsThreadCountsAboveTheBound)
{
    const ScopedFatalSilence quiet;
    CompileServiceConfig config;
    config.numThreads = CompileService::kMaxThreads + 1;
    try {
        CompileService service(config);
        FAIL() << "a pool above kMaxThreads was accepted";
    } catch (const MusstiError &err) {
        EXPECT_EQ(err.category(), ErrorCategory::InvalidInput);
        EXPECT_EQ(err.code(), "input.require");
        EXPECT_NE(err.message().find(
                      std::to_string(CompileService::kMaxThreads + 1)),
                  std::string::npos)
            << err.message();
    }
}

TEST(CompileService, CacheServesRepeatedJobs)
{
    CompileServiceConfig config;
    config.numThreads = 2;
    CompileService service(config);
    const auto backend = makeMusstiBackend();
    const Circuit qc = makeBenchmark("adder", 30);

    const auto first = service.submit(backend, qc).get();
    EXPECT_EQ(service.jobsExecuted(), 1u);
    EXPECT_EQ(service.cacheHits(), 0u);

    const auto second = service.submit(backend, qc).get();
    EXPECT_EQ(service.jobsExecuted(), 1u);
    EXPECT_EQ(service.cacheHits(), 1u);
    expectIdentical(first, second);
}

TEST(CompileService, CacheKeysDistinguishConfigAndCircuit)
{
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    CompileService service(service_config);

    MusstiConfig trivial;
    trivial.mapping = MappingKind::Trivial;
    const Circuit qc = makeBenchmark("ghz", 30);

    (void)service.submit(makeMusstiBackend(), qc).get();
    (void)service.submit(makeMusstiBackend(trivial), qc).get();
    (void)service.submit(makeMusstiBackend(),
                         makeBenchmark("ghz", 31)).get();
    EXPECT_EQ(service.jobsExecuted(), 3u);
    EXPECT_EQ(service.cacheHits(), 0u);
}

TEST(CompileService, SeedIsPartOfTheCacheKey)
{
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    CompileService service(service_config);
    MusstiConfig config;
    config.replacement = ReplacementPolicy::Random;
    const auto backend = makeMusstiBackend(config);
    const Circuit qc = makeBenchmark("ran", 36);

    (void)service.submit(backend, qc, 1).get();
    (void)service.submit(backend, qc, 2).get();
    (void)service.submit(backend, qc, 1).get();
    EXPECT_EQ(service.jobsExecuted(), 2u);
    EXPECT_EQ(service.cacheHits(), 1u);
}

TEST(CompileService, CompileErrorsPropagateThroughFutures)
{
    CompileServiceConfig service_config;
    service_config.numThreads = 2;
    CompileService service(service_config);
    // 32 qubits cannot fit a 2x2 grid with capacity 4 (16 slots).
    const auto backend =
        makeGridBackend("murali", GridConfig{2, 2, 4});
    auto future = service.submit(backend, makeGhz(32));
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(CompileService, ErrorCategoryRoundTripsThroughFutures)
{
    const ScopedFatalSilence quiet;
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    CompileService service(service_config);
    const auto backend = makeGridBackend("murali", GridConfig{2, 2, 4});

    std::exception_ptr thrown;
    try {
        (void)service.submit(backend, makeGhz(32)).get();
    } catch (...) {
        thrown = std::current_exception();
    }
    CompileOutcome outcome =
        service.submitOutcome({backend, makeGhz(32), {}, {}, {}}).get();
    // The worker may still hold the promise that shares the exception
    // object, and releases it through a refcount TSan cannot see; join
    // it before reading the object.
    service.shutdown();

    // Legacy future: the thrown exception carries the full taxonomy.
    ASSERT_TRUE(thrown) << "expected a structured failure";
    try {
        std::rethrow_exception(thrown);
    } catch (const MusstiError &err) {
        EXPECT_EQ(err.category(), ErrorCategory::InvalidInput);
        EXPECT_EQ(err.code(), "input.require");
    }

    // Tolerant future: the same taxonomy, as a value.
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.errorInfo().category(),
              ErrorCategory::InvalidInput);
    EXPECT_EQ(outcome.errorInfo().code(), "input.require");
    EXPECT_THROW((void)outcome.value(), std::runtime_error);
    EXPECT_EQ(service.cacheStats().jobsFailed, 2u);
}

TEST(CompileService, OutcomeBatchKeepsSurvivorsInSubmissionOrder)
{
    // One bad circuit in a batch costs one outcome, not the batch —
    // and the pattern plus the survivors are identical at 1 and 4
    // threads.
    const ScopedFatalSilence quiet;
    const auto good = makeMusstiBackend();
    const auto bad = makeGridBackend("murali", GridConfig{2, 2, 4});

    auto makeRequests = [&] {
        std::vector<CompileRequest> requests;
        requests.push_back({good, makeBenchmark("ghz", 30), {}, {}, {}});
        requests.push_back({bad, makeGhz(32), {}, {}, {}});
        requests.push_back({good, makeBenchmark("adder", 30), {}, {}, {}});
        requests.push_back({bad, makeGhz(40), {}, {}, {}});
        requests.push_back({good, makeBenchmark("qft", 24), {}, {}, {}});
        requests.push_back({good, makeBenchmark("bv", 40), {}, {}, {}});
        return requests;
    };

    CompileServiceConfig one_thread;
    one_thread.numThreads = 1;
    one_thread.cacheCapacity = 0;
    CompileServiceConfig four_threads;
    four_threads.numThreads = 4;
    four_threads.cacheCapacity = 0;

    CompileService serial(one_thread);
    CompileService parallel(four_threads);
    const auto a = serial.compileAllOutcomes(makeRequests());
    const auto b = parallel.compileAllOutcomes(makeRequests());
    ASSERT_EQ(a.size(), 6u);
    ASSERT_EQ(b.size(), a.size());

    const bool expect_ok[] = {true, false, true, false, true, true};
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].ok(), expect_ok[i]) << "job " << i;
        EXPECT_EQ(b[i].ok(), expect_ok[i]) << "job " << i;
        if (expect_ok[i]) {
            expectIdentical(a[i].value(), b[i].value());
        } else {
            EXPECT_EQ(a[i].errorInfo().category(),
                      ErrorCategory::InvalidInput);
            EXPECT_EQ(a[i].errorInfo().code(), b[i].errorInfo().code());
        }
    }
    EXPECT_EQ(serial.cacheStats().jobsFailed, 2u);
    EXPECT_EQ(parallel.cacheStats().jobsFailed, 2u);

    // Seeded by job index, the batch keeps the same pattern.
    auto seeded = makeRequests();
    for (std::size_t i = 0; i < seeded.size(); ++i)
        seeded[i].seed = CompileService::deriveJobSeed(/*base_seed=*/7, i);
    const auto swept = serial.compileAllOutcomes(std::move(seeded));
    ASSERT_EQ(swept.size(), 6u);
    for (std::size_t i = 0; i < swept.size(); ++i)
        EXPECT_EQ(swept[i].ok(), expect_ok[i]) << "job " << i;
}

TEST(CompileService, SubmitAfterShutdownResolvesCancelled)
{
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    CompileService service(service_config);
    const auto backend = makeMusstiBackend();
    service.shutdown();

    // Tolerant path: a ready Cancelled outcome, no race with teardown.
    auto outcome_future =
        service.submitOutcome({backend, makeGhz(8), {}, {}, {}});
    ASSERT_EQ(outcome_future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    CompileOutcome outcome = outcome_future.get();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.errorInfo().category(), ErrorCategory::Cancelled);
    EXPECT_EQ(outcome.errorInfo().code(), "job.cancelled");

    // Legacy path: the future throws the same structured error.
    auto future = service.submit(backend, makeGhz(8));
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    try {
        (void)future.get();
        FAIL() << "expected Cancelled";
    } catch (const MusstiError &err) {
        EXPECT_EQ(err.category(), ErrorCategory::Cancelled);
    }
    EXPECT_EQ(service.cacheStats().jobsCancelled, 2u);
}

TEST(CompileService, PreSetCancelTokenResolvesCancelled)
{
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    CompileService service(service_config);
    const auto token = std::make_shared<std::atomic<bool>>(true);

    CompileOutcome outcome = service.submitOutcome(
        {makeMusstiBackend(), makeGhz(16), {}, {}, token}).get();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.errorInfo().category(), ErrorCategory::Cancelled);
    EXPECT_EQ(outcome.errorInfo().code(), "job.cancelled");
    EXPECT_EQ(service.jobsExecuted(), 0u); // never started compiling
    EXPECT_EQ(service.cacheStats().jobsCancelled, 1u);
}

TEST(CompileService, ExpiredDeadlineResolvesTimeout)
{
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    CompileService service(service_config);

    CompileRequest request{makeMusstiBackend(), makeGhz(16), {}, {}, {}};
    request.deadline = std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1);
    CompileOutcome outcome =
        service.submitOutcome(std::move(request)).get();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.errorInfo().category(), ErrorCategory::Timeout);
    EXPECT_EQ(outcome.errorInfo().code(), "job.deadline-exceeded");
    EXPECT_EQ(service.jobsExecuted(), 0u);
    EXPECT_EQ(service.cacheStats().jobsTimedOut, 1u);
}

TEST(CompileService, JobControlUnwindsTheCompilePipeline)
{
    // Drive the backend's entry point directly with a control: the
    // checkpoint chain (entry, pass boundaries, routing loop) must
    // unwind a real compile with the right quiet category.
    const auto backend = makeMusstiBackend();

    JobControl timed_out;
    timed_out.deadline = std::chrono::steady_clock::now() -
                         std::chrono::milliseconds(1);
    DeltaCompileIO delta;
    try {
        (void)backend->compile(makeBenchmark("ghz", 24),
                               {.delta = &delta, .control = &timed_out});
        FAIL() << "expected Timeout";
    } catch (const MusstiError &err) {
        EXPECT_EQ(err.category(), ErrorCategory::Timeout);
    }

    const std::atomic<bool> fired{true};
    JobControl cancelled;
    cancelled.cancel = &fired;
    cancelled.checkEveryGates = 1;
    DeltaCompileIO delta2;
    try {
        (void)backend->compile(makeBenchmark("ghz", 24),
                               {.delta = &delta2, .control = &cancelled});
        FAIL() << "expected Cancelled";
    } catch (const MusstiError &err) {
        EXPECT_EQ(err.category(), ErrorCategory::Cancelled);
    }

    // A null control compiles exactly like the plain path.
    DeltaCompileIO delta3;
    const CompileResult controlled = backend->compile(
        makeBenchmark("ghz", 24), {.delta = &delta3, .control = nullptr});
    expectIdentical(controlled, backend->compile(makeBenchmark("ghz", 24)));
}

TEST(CompileService, CacheEvictsLeastRecentlyUsed)
{
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    service_config.cacheCapacity = 2;
    CompileService service(service_config);
    const auto backend = makeMusstiBackend();

    const Circuit a = makeBenchmark("ghz", 30);
    const Circuit b = makeBenchmark("ghz", 31);
    const Circuit c = makeBenchmark("ghz", 33);

    (void)service.submit(backend, a).get(); // cache: a
    (void)service.submit(backend, b).get(); // cache: b a
    (void)service.submit(backend, a).get(); // hit -> a b
    (void)service.submit(backend, c).get(); // evicts b -> c a
    (void)service.submit(backend, b).get(); // miss again
    EXPECT_EQ(service.jobsExecuted(), 4u);
    EXPECT_EQ(service.cacheHits(), 1u);
}

TEST(CompileService, EvictedJobIsCachedAgainOnResubmit)
{
    // After a capacity eviction, re-submitting the evicted job must
    // recompile once, re-enter the cache, and then hit.
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    service_config.cacheCapacity = 2;
    CompileService service(service_config);
    const auto backend = makeMusstiBackend();

    const Circuit a = makeBenchmark("ghz", 30);
    const Circuit b = makeBenchmark("ghz", 31);
    const Circuit c = makeBenchmark("ghz", 33);

    const auto first_a = service.submit(backend, a).get();
    (void)service.submit(backend, b).get();
    (void)service.submit(backend, c).get(); // cache full: evicts a
    EXPECT_EQ(service.jobsExecuted(), 3u);

    const auto second_a = service.submit(backend, a).get(); // miss
    EXPECT_EQ(service.jobsExecuted(), 4u);
    const auto third_a = service.submit(backend, a).get(); // hit again
    EXPECT_EQ(service.jobsExecuted(), 4u);
    EXPECT_EQ(service.cacheHits(), 1u);
    expectIdentical(first_a, second_a);
    expectIdentical(second_a, third_a);
}

TEST(CompileService, CacheStatsTrackBothTiers)
{
    // One base compile seeds both tiers; a repeat hits the result
    // cache (no snapshot probe); an extended circuit misses the result
    // cache, hits the snapshot tier, and delta-resumes. Every counter
    // of the accessor must reflect exactly that history.
    CompileServiceConfig service_config;
    service_config.numThreads = 1;
    service_config.cacheCapacity = 2;
    service_config.snapshotCacheCapacity = 8;
    CompileService service(service_config);

    MusstiConfig config;
    config.deltaCompile = true;
    config.deltaCheckpointGates = 16;
    const auto backend = makeMusstiBackend(config);

    // Deep enough that the appended layer sits beyond the scheduler's
    // 64-layer look-ahead horizon — shallower circuits always fall
    // back cold and would leave the resume counters untested.
    const Circuit base = makeIsing(24, 40);
    const Circuit longer = makeIsing(24, 41);

    (void)service.submit(backend, base).get();
    (void)service.submit(backend, base).get();
    const CompileResult extended =
        service.submit(backend, longer).get();
    EXPECT_TRUE(extended.deltaResumed);

    const CompileService::CacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.resultHits, 1u);
    EXPECT_EQ(stats.resultMisses, 2u);
    EXPECT_EQ(stats.resultEvictions, 0u);
    EXPECT_EQ(stats.snapshotHits, 1u);
    EXPECT_EQ(stats.snapshotMisses, 1u);
    EXPECT_EQ(stats.deltaResumes, 1u);
    EXPECT_EQ(stats.deltaFallbacks, 0u);
    EXPECT_GT(stats.snapshotCount, 0u);
    EXPECT_GT(stats.snapshotBytes, 0u);

    // A fault-free run books nothing on the failure paths.
    EXPECT_EQ(stats.jobsFailed, 0u);
    EXPECT_EQ(stats.jobsTimedOut, 0u);
    EXPECT_EQ(stats.jobsCancelled, 0u);
    EXPECT_EQ(stats.deltaQuarantines, 0u);
    EXPECT_FALSE(stats.deltaQuarantined);
}

/** A delta-compiling backend checkpointing every 16 gates. */
std::shared_ptr<const ICompilerBackend>
deltaBackend()
{
    MusstiConfig config;
    config.deltaCompile = true;
    config.deltaCheckpointGates = 16;
    return makeMusstiBackend(config);
}

/**
 * Compile A, then an unrelated B, then A with one more Trotter step on
 * one worker with the result cache off, so every job probes and feeds
 * the snapshot tier. Returns A+'s result and the final counters.
 */
std::pair<CompileResult, CompileService::CacheStats>
runSnapshotEvictionSequence(std::size_t snapshot_capacity)
{
    CompileServiceConfig config;
    config.numThreads = 1;
    config.cacheCapacity = 0;
    config.snapshotCacheCapacity = snapshot_capacity;
    CompileService service(config);
    const auto backend = deltaBackend();

    (void)service.submit(backend, makeIsing(24, 40)).get();
    (void)service.submit(backend, makeIsing(28, 40)).get();
    CompileResult extended = service.submit(backend, makeIsing(24, 41)).get();
    return {std::move(extended), service.cacheStats()};
}

TEST(CompileService, SnapshotTierEvictsLeastRecentlyUsed)
{
    // The byte figures are ScheduleSnapshot::approxBytes() sums, which
    // count vector capacities: they are pinned for libstdc++ on x86-64
    // and catch any drift in the tier's footprint bookkeeping.
    // Four slots: B's checkpoints push every one of A's out, so A+
    // finds no resume candidate and compiles cold.
    const auto [small_result, small] = runSnapshotEvictionSequence(4);
    EXPECT_FALSE(small_result.deltaResumed);
    EXPECT_EQ(small.snapshotHits, 0u);
    EXPECT_EQ(small.snapshotMisses, 3u);
    EXPECT_EQ(small.snapshotCount, 4u);
    EXPECT_EQ(small.snapshotEvictions, 30u);
    EXPECT_EQ(small.snapshotBytes, 460568u);
    EXPECT_EQ(small.deltaResumes, 0u);

    // Sixty-four slots hold both circuits' checkpoints: A+ resumes.
    const auto [large_result, large] = runSnapshotEvictionSequence(64);
    EXPECT_TRUE(large_result.deltaResumed);
    EXPECT_EQ(large.snapshotHits, 1u);
    EXPECT_EQ(large.snapshotMisses, 2u);
    EXPECT_EQ(large.snapshotEvictions, 0u);
    EXPECT_EQ(large.snapshotBytes, 1985232u);
    EXPECT_EQ(large.deltaResumes, 1u);

    // Either way the schedule is the cold one.
    EXPECT_EQ(resultFingerprint(small_result),
              resultFingerprint(large_result));
}

TEST(CompileService, ConcurrentPrefixSharingBatchMatchesColdService)
{
    // Four workers probe, resume from, and evict a small snapshot tier
    // at once, over circuits that share prefixes; every result must
    // equal a cold single-worker compile bit for bit.
    auto makeRequests = [] {
        const auto backend = deltaBackend();
        std::vector<CompileRequest> requests;
        for (int steps = 40; steps < 44; ++steps) {
            requests.push_back({backend, makeIsing(24, steps), {}});
            requests.push_back({backend, makeIsing(28, steps), {}});
        }
        return requests;
    };

    CompileServiceConfig warm_config;
    warm_config.numThreads = 4;
    warm_config.cacheCapacity = 0;
    warm_config.snapshotCacheCapacity = 8;
    CompileServiceConfig cold_config;
    cold_config.numThreads = 1;
    cold_config.cacheCapacity = 0;
    cold_config.snapshotCacheCapacity = 0;

    CompileService warm(warm_config);
    CompileService cold(cold_config);
    const auto warm_results = compileAllOk(warm, makeRequests());
    const auto cold_results = compileAllOk(cold, makeRequests());
    ASSERT_EQ(warm_results.size(), cold_results.size());
    for (std::size_t i = 0; i < cold_results.size(); ++i) {
        EXPECT_EQ(resultFingerprint(warm_results[i]),
                  resultFingerprint(cold_results[i]))
            << "job " << i;
        expectIdentical(warm_results[i], cold_results[i]);
    }
    const CompileService::CacheStats stats = warm.cacheStats();
    EXPECT_EQ(stats.snapshotHits + stats.snapshotMisses,
              cold_results.size());
    EXPECT_GT(stats.snapshotEvictions, 0u);
    EXPECT_LE(stats.snapshotCount, 8u);
}

} // namespace
} // namespace mussti
