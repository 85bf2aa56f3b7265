/**
 * @file
 * Tests for the device auto-tuner (src/tune/): thread-count
 * independence of the Pareto front and recommendation, pinned
 * recommended specs per workload, feasibility handling, workload-token
 * parsing, and ScoreCard dominance.
 */
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "sim/score_card.h"
#include "tune/tuner.h"

namespace mussti {
namespace {

/** Bit-exact equality of everything the tuner scores (not wall-clock). */
void
expectSameScores(const ScoreCard &a, const ScoreCard &b)
{
    EXPECT_EQ(a.log10Fidelity, b.log10Fidelity);
    EXPECT_EQ(a.makespanUs, b.makespanUs);
    EXPECT_EQ(a.shuttles, b.shuttles);
}

void
expectSameOutcome(const TuneOutcome &a, const TuneOutcome &b)
{
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (std::size_t i = 0; i < a.candidates.size(); ++i) {
        EXPECT_EQ(a.candidates[i].spec.canonical(),
                  b.candidates[i].spec.canonical());
        EXPECT_EQ(a.candidates[i].feasible, b.candidates[i].feasible);
        EXPECT_EQ(a.candidates[i].onParetoFront,
                  b.candidates[i].onParetoFront);
        expectSameScores(a.candidates[i].total, b.candidates[i].total);
        ASSERT_EQ(a.candidates[i].perWorkload.size(),
                  b.candidates[i].perWorkload.size());
        for (std::size_t w = 0; w < a.candidates[i].perWorkload.size();
             ++w)
            expectSameScores(a.candidates[i].perWorkload[w],
                             b.candidates[i].perWorkload[w]);
    }
    EXPECT_EQ(a.paretoFront, b.paretoFront);
    EXPECT_EQ(a.recommended, b.recommended);
}

TEST(Tuner, ParetoFrontAndRecommendationIndependentOfThreadCount)
{
    // The ISSUE-5 determinism contract: the same search under 1 thread
    // and N threads yields identical Pareto fronts and recommendation.
    TunerConfig config;
    config.search = "eml:modules=3..5,cap=12..16:step=2";
    config.workloads = {parseTuneWorkload("qaoa:48"),
                        parseTuneWorkload("bv:64")};

    config.numThreads = 1;
    const TuneOutcome serial = tuneDeviceSpec(config);
    config.numThreads = 4;
    const TuneOutcome parallel = tuneDeviceSpec(config);

    ASSERT_FALSE(serial.paretoFront.empty());
    expectSameOutcome(serial, parallel);
}

TEST(Tuner, RecommendedSpecIsPinnedForQaoa96)
{
    // The ISSUE-5 acceptance sweep. These values are goldens of the
    // deterministic compile path (like the backend-golden FNVs): an
    // intentional scheduler change may re-pin them with a changelog
    // note, anything else moving them is a regression.
    TunerConfig config;
    config.search = "eml:modules=2..8,cap=8..32";
    config.workloads = {parseTuneWorkload("qaoa:96")};
    config.numThreads = 4;
    const TuneOutcome outcome = tuneDeviceSpec(config);

    EXPECT_EQ(outcome.candidates.size(), 175u);
    std::size_t feasible = 0;
    for (const TuneCandidate &candidate : outcome.candidates)
        feasible += candidate.feasible ? 1 : 0;
    EXPECT_EQ(feasible, 144u); // modules >= 3, cap >= 9 fit qaoa-96
    EXPECT_EQ(outcome.paretoFront.size(), 18u);
    ASSERT_GE(outcome.recommended, 0);
    EXPECT_EQ(outcome.recommendedCandidate().spec.canonical(),
              "eml:cap=30,storage=2,op=1,optical=1,modules=3,maxq=32");
}

TEST(Tuner, RecommendedSpecIsPinnedForAdder64)
{
    TunerConfig config;
    config.search = "eml:modules=2..3,cap=12..20:step=4";
    config.workloads = {parseTuneWorkload("adder:64")};
    config.numThreads = 2;
    const TuneOutcome outcome = tuneDeviceSpec(config);
    ASSERT_GE(outcome.recommended, 0);
    EXPECT_EQ(outcome.recommendedCandidate().spec.canonical(),
              "eml:cap=16,storage=2,op=1,optical=1,modules=2,maxq=32");
}

TEST(Tuner, InfeasibleCandidatesAreMarkedAndExcluded)
{
    // qaoa-96 cannot fit 2 modules x 32 qubits; the candidate must be
    // marked (with the device's own diagnostic) and kept off the front.
    TunerConfig config;
    config.search = "eml:modules=2..3,cap=16";
    config.workloads = {parseTuneWorkload("qaoa:96")};
    config.numThreads = 2;
    const TuneOutcome outcome = tuneDeviceSpec(config);

    ASSERT_EQ(outcome.candidates.size(), 2u);
    EXPECT_FALSE(outcome.candidates[0].feasible);
    EXPECT_FALSE(outcome.candidates[0].infeasibleReason.empty());
    EXPECT_FALSE(outcome.candidates[0].onParetoFront);
    EXPECT_TRUE(outcome.candidates[0].perWorkload.empty());
    EXPECT_TRUE(outcome.candidates[1].feasible);
    EXPECT_EQ(outcome.paretoFront, std::vector<std::size_t>{1});
    EXPECT_EQ(outcome.recommended, 1);
}

TEST(Tuner, FullyInfeasibleSearchIsAUserError)
{
    TunerConfig config;
    config.search = "eml:modules=2,cap=16";
    config.workloads = {parseTuneWorkload("qaoa:96")};
    EXPECT_THROW(tuneDeviceSpec(config), std::runtime_error);
}

TEST(Tuner, AggregatesScoresAcrossWorkloads)
{
    TunerConfig config;
    config.search = "eml:modules=2,cap=16";
    config.workloads = {parseTuneWorkload("ghz:48"),
                        parseTuneWorkload("bv:48")};
    config.numThreads = 2;
    const TuneOutcome outcome = tuneDeviceSpec(config);
    ASSERT_EQ(outcome.candidates.size(), 1u);
    const TuneCandidate &candidate = outcome.candidates[0];
    ASSERT_EQ(candidate.perWorkload.size(), 2u);
    EXPECT_EQ(candidate.total.shuttles,
              candidate.perWorkload[0].shuttles +
                  candidate.perWorkload[1].shuttles);
    EXPECT_DOUBLE_EQ(candidate.total.makespanUs,
                     candidate.perWorkload[0].makespanUs +
                         candidate.perWorkload[1].makespanUs);
}

TEST(Tuner, ParseTuneWorkloadValidatesTokens)
{
    const TuneWorkload workload = parseTuneWorkload("qaoa:96");
    EXPECT_EQ(workload.family, "qaoa");
    EXPECT_EQ(workload.qubits, 96);
    EXPECT_EQ(workload.label(), "qaoa_n96");

    EXPECT_THROW(parseTuneWorkload("qaoa"), std::runtime_error);
    EXPECT_THROW(parseTuneWorkload(":96"), std::runtime_error);
    EXPECT_THROW(parseTuneWorkload("qaoa:banana"), std::runtime_error);
    EXPECT_THROW(parseTuneWorkload("qaoa:0"), std::runtime_error);
    EXPECT_THROW(parseTuneWorkload("qaoa:-4"), std::runtime_error);
    try {
        (void)parseTuneWorkload("qaoa:banana");
        FAIL();
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("banana"),
                  std::string::npos) << err.what();
    }
}

/** Disarm on scope exit so a failing test cannot leak its script. */
class ScopedFaultScript
{
  public:
    explicit ScopedFaultScript(FaultScript script)
    {
        FaultInjector::arm(std::move(script));
    }
    ~ScopedFaultScript() { FaultInjector::disarm(); }
};

TEST(TunerFaults, PersistentProbeFaultMarksOnlyThatCandidateInfeasible)
{
    // A probe failure is final: the candidate drops out with the
    // structured reason, the rest of the tune proceeds.
    const ScopedFatalSilence quiet; // ResourceExhausted echoes
    FaultScript script;
    script.triggers = {{FaultSite::TunerProbe, 0,
                        ErrorCategory::ResourceExhausted,
                        "fault.injected"}};
    const ScopedFaultScript armed(script);

    TunerConfig config;
    config.search = "eml:modules=2..3,cap=16";
    config.workloads = {parseTuneWorkload("ghz:24")};
    config.numThreads = 1;
    const TuneOutcome outcome = tuneDeviceSpec(config);

    ASSERT_EQ(outcome.candidates.size(), 2u);
    EXPECT_FALSE(outcome.candidates[0].feasible);
    EXPECT_NE(outcome.candidates[0].infeasibleReason.find(
                  "fault.injected"),
              std::string::npos)
        << outcome.candidates[0].infeasibleReason;
    EXPECT_TRUE(outcome.candidates[1].feasible);
    EXPECT_EQ(outcome.paretoFront, std::vector<std::size_t>{1});
    EXPECT_EQ(outcome.recommended, 1);
}

TEST(TunerFaults, FailedSweepJobPoisonsOnlyItsCandidate)
{
    // 2 feasible candidates x 1 workload = flat jobs 0 and 1. On one
    // worker, job 0 is the first pick-up, so a fault at the first
    // WorkerDequeue visit fails it; candidate 0 must drop out
    // infeasible while candidate 1 is scored and recommended.
    FaultScript script;
    script.triggers = {{FaultSite::WorkerDequeue, 0,
                        ErrorCategory::Transient, "fault.injected"}};
    const ScopedFaultScript armed(script);

    TunerConfig config;
    config.search = "eml:modules=2..3,cap=16";
    config.workloads = {parseTuneWorkload("ghz:24")};
    config.numThreads = 1;
    const TuneOutcome outcome = tuneDeviceSpec(config);

    EXPECT_EQ(FaultInjector::firedCount(FaultSite::WorkerDequeue), 1u);
    ASSERT_EQ(outcome.candidates.size(), 2u);
    EXPECT_FALSE(outcome.candidates[0].feasible);
    EXPECT_NE(outcome.candidates[0].infeasibleReason.find("Transient"),
              std::string::npos)
        << outcome.candidates[0].infeasibleReason;
    EXPECT_TRUE(outcome.candidates[0].perWorkload.empty());
    EXPECT_TRUE(outcome.candidates[1].feasible);
    EXPECT_EQ(outcome.paretoFront, std::vector<std::size_t>{1});
    EXPECT_EQ(outcome.recommended, 1);
}

TEST(Tuner, ScoreCardDominanceIsStrictPareto)
{
    const ScoreCard base{-5.0, 100.0, 10, 0.0};
    ScoreCard better = base;
    better.shuttles = 8;
    ScoreCard mixed = base;
    mixed.log10Fidelity = -4.0; // better fidelity...
    mixed.makespanUs = 120.0;   // ...worse makespan

    EXPECT_TRUE(better.dominates(base));
    EXPECT_FALSE(base.dominates(better));
    EXPECT_FALSE(base.dominates(base)); // equal: no strict objective
    EXPECT_FALSE(mixed.dominates(base));
    EXPECT_FALSE(base.dominates(mixed));
}

} // namespace
} // namespace mussti
