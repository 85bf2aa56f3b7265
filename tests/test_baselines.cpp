/**
 * @file
 * Tests for the baseline grid compilers: validity of their schedules,
 * their characteristic behaviours (MQT-like gates only in the
 * processing trap; Dai look-ahead <= Murali greedy on structured
 * workloads), and hop-counted shuttle accounting.
 */
#include <gtest/gtest.h>

#include "arch/device_registry.h"
#include "baselines/backend_factory.h"
#include "baselines/dai.h"
#include "baselines/mqt_like.h"
#include "baselines/murali.h"
#include "common/logging.h"
#include "sim/validator.h"
#include "workloads/workloads.h"

namespace mussti {
namespace {

GridConfig
smallGrid()
{
    return GridConfig{2, 2, 12};
}

void
expectValid(const GridDevice &device, const CompileResult &result)
{
    const auto report = ScheduleValidator(device.zoneInfos())
                            .validate(result.schedule, result.lowered);
    EXPECT_TRUE(report) << report.firstError;
}

TEST(Murali, CompilesSmallSuiteValidly)
{
    const PhysicalParams params;
    for (const auto &spec : smallScaleSuite()) {
        MuraliCompiler compiler(smallGrid(), params);
        const Circuit qc = makeBenchmark(spec.family, spec.numQubits);
        const auto result = compiler.compile(qc);
        expectValid(compiler.device(), result);
    }
}

TEST(Murali, ColocatedCircuitNeedsNoShuttles)
{
    Circuit qc(8, "local");
    qc.cx(0, 1);
    qc.cx(2, 3);
    const PhysicalParams params;
    MuraliCompiler compiler(GridConfig{2, 2, 8}, params);
    const auto result = compiler.compile(qc);
    EXPECT_EQ(result.metrics.shuttleCount, 0);
}

TEST(Murali, CrossTrapGateCostsShuttles)
{
    Circuit qc(24, "cross");
    qc.cx(0, 23); // trap 0 and trap 2 under row-major fill, cap 12
    const PhysicalParams params;
    MuraliCompiler compiler(smallGrid(), params);
    const auto result = compiler.compile(qc);
    EXPECT_GE(result.metrics.shuttleCount, 1);
    expectValid(compiler.device(), result);
}

TEST(Dai, CompilesSmallSuiteValidly)
{
    const PhysicalParams params;
    for (const auto &spec : smallScaleSuite()) {
        DaiCompiler compiler(smallGrid(), params);
        const Circuit qc = makeBenchmark(spec.family, spec.numQubits);
        const auto result = compiler.compile(qc);
        expectValid(compiler.device(), result);
    }
}

TEST(Dai, LookAheadBeatsGreedyOnCommunicationHeavyWorkloads)
{
    const PhysicalParams params;
    // Average across the communication-heavy families; the look-ahead
    // baseline must not lose to greedy overall (the paper's Table 2
    // relationship between [13] and [55]).
    double murali_total = 0.0, dai_total = 0.0;
    for (const char *family : {"sqrt", "qft", "adder"}) {
        const Circuit qc = makeBenchmark(family, 30);
        MuraliCompiler murali(smallGrid(), params);
        DaiCompiler dai(smallGrid(), params);
        murali_total += murali.compile(qc).metrics.shuttleCount;
        dai_total += dai.compile(qc).metrics.shuttleCount;
    }
    EXPECT_LE(dai_total, murali_total * 1.05);
}

TEST(MqtLike, GatesOnlyInProcessingTrap)
{
    const PhysicalParams params;
    MqtLikeCompiler compiler(smallGrid(), params);
    const Circuit qc = makeBenchmark("adder", 32);
    const auto result = compiler.compile(qc);
    for (const auto &op : result.schedule.ops) {
        if (op.kind == OpKind::Gate2Q) {
            EXPECT_EQ(op.zoneFrom, compiler.processingTrap());
        }
    }
    expectValid(compiler.device(), result);
}

TEST(MqtLike, ShuttleHeaviestBaseline)
{
    // Table 2: [70] shuttles dominate [55] and [13] on every app.
    const PhysicalParams params;
    for (const char *family : {"adder", "qft"}) {
        const Circuit qc = makeBenchmark(family, 32);
        MuraliCompiler murali(smallGrid(), params);
        MqtLikeCompiler mqt(smallGrid(), params);
        EXPECT_GT(mqt.compile(qc).metrics.shuttleCount,
                  murali.compile(qc).metrics.shuttleCount)
            << family;
    }
}

TEST(GridBase, RejectsOversizedCircuit)
{
    const PhysicalParams params;
    MuraliCompiler compiler(GridConfig{2, 2, 4}, params); // 16 slots
    EXPECT_THROW(compiler.compile(makeGhz(32)), std::runtime_error);
}

TEST(GridBase, HopAccountingExceedsMergeCountOnBigGrids)
{
    // On a 4x5 grid, far-apart interactions take multi-hop shuttles, so
    // booked shuttles exceed the number of Merge ops.
    const PhysicalParams params;
    MuraliCompiler compiler(GridConfig{4, 5, 16}, params);
    const Circuit qc = makeRandomCircuit(256, 200, 3);
    const auto result = compiler.compile(qc);
    int merges = 0;
    for (const auto &op : result.schedule.ops)
        merges += op.kind == OpKind::Merge;
    EXPECT_GT(result.metrics.shuttleCount, merges);
    expectValid(compiler.device(), result);
}

/** Exposes the protected spill machinery for dead-lock regression. */
class SpillProbe : public MuraliCompiler
{
  public:
    using MuraliCompiler::MuraliCompiler;
    using MuraliCompiler::Pass;
    using MuraliCompiler::initialPlacement;
    using MuraliCompiler::relocate;
};

TEST(GridBase, SpillDeadLockPanicsCleanly)
{
    // Regression for the all-candidates-excluded case: the target trap
    // is full and every resident is protected, so LruTracker::victim
    // returns -1. The relocation must fail with a clean diagnostic
    // panic, not index a placement with -1.
    const PhysicalParams params;
    const GridConfig grid{2, 1, 2}; // two traps, capacity 2
    SpillProbe probe(grid, params);

    Circuit qc(4, "spill");
    qc.cx(0, 1);
    const Circuit lowered = qc.withSwapsDecomposed();
    SpillProbe::Pass pass(probe.device(), params, lowered,
                          probe.initialPlacement(4));
    // Row-major fill: trap 0 holds {0, 1}, trap 1 holds {2, 3}.
    // Moving qubit 2 into trap 0 while protecting both residents leaves
    // no spill victim.
    EXPECT_THROW(probe.relocate(pass, 2, 0, {0, 1}), std::logic_error);
}

TEST(GridBase, SpillWithFreeVictimSucceeds)
{
    // Same setup with an unprotected resident and a free slot for it:
    // the spill resolves. Trap 0 holds {0, 1}, trap 1 holds only {2}.
    const PhysicalParams params;
    const GridConfig grid{2, 1, 2};
    SpillProbe probe(grid, params);

    Circuit qc(3, "spill-ok");
    qc.cx(0, 1);
    const Circuit lowered = qc.withSwapsDecomposed();
    SpillProbe::Pass pass(probe.device(), params, lowered,
                          probe.initialPlacement(3));
    probe.relocate(pass, 2, 0, {0});
    EXPECT_EQ(pass.placement.zoneOf(2), 0);
    EXPECT_NE(pass.placement.zoneOf(1), 0); // qubit 1 was spilled out
}

TEST(GridBase, MediumGridSuiteValidates)
{
    const PhysicalParams params;
    const GridConfig grid{3, 4, 16};
    for (const auto &spec : mediumScaleSuite()) {
        const Circuit qc = makeBenchmark(spec.family, spec.numQubits);
        MuraliCompiler murali(grid, params);
        const auto result = murali.compile(qc);
        expectValid(murali.device(), result);
        DaiCompiler dai(grid, params);
        const auto dai_result = dai.compile(qc);
        expectValid(dai.device(), dai_result);
    }
}

TEST(BackendFactory, MakeBackendMatchesFamiliesAndRefusesMismatches)
{
    const ScopedFatalSilence quiet;
    const DeviceSpec eml = DeviceRegistry::parse("eml:hetero=2.1.2-2.1.1,cap=16");
    const DeviceSpec grid = DeviceRegistry::parse("grid:4x3,cap=16");
    auto mismatchCode = [](const std::string &name, const DeviceSpec &spec) {
        try {
            (void)makeBackend(name, spec);
        } catch (const MusstiError &err) {
            return err.code();
        }
        return std::string("no error");
    };

    // Both mismatch directions carry the daemon's wire code.
    EXPECT_EQ(mismatchCode("mussti", grid), "serve.device-mismatch");
    for (const std::string &name : gridBackendNames())
        EXPECT_EQ(mismatchCode(name, eml), "serve.device-mismatch") << name;
    EXPECT_THROW((void)makeBackend("nope", grid), MusstiFault);

    // Names are case-insensitive; each lands on its own family.
    EXPECT_EQ(makeBackend("MUSSTI", eml)->name(),
              makeMusstiBackend()->name());
    for (const std::string &name : gridBackendNames())
        EXPECT_EQ(makeBackend(name, grid)->name(),
                  makeGridBackend(name, grid.grid)->name());

    // MUSS-TI compiles on the spec's device and keeps the other knobs.
    EXPECT_NE(makeBackend("mussti", eml)->configDigest(),
              makeMusstiBackend()->configDigest());
    MusstiConfig config;
    config.lookAhead = 4;
    MusstiConfig expected = config;
    expected.device = eml.eml;
    EXPECT_EQ(makeBackend("mussti", eml, config)->configDigest(),
              makeMusstiBackend(expected)->configDigest());
    EXPECT_NE(makeBackend("mussti", eml, config)->configDigest(),
              makeBackend("mussti", eml)->configDigest());
}

} // namespace
} // namespace mussti
