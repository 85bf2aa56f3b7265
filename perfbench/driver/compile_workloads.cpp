/**
 * @file
 * suite-batch and deep-compile: compiles measured in the process, with
 * no transport. suite-batch goes through CompileService on 2 workers
 * with the result cache off; deep-compile calls MusstiCompiler::compile
 * directly on one thread, so no serving or cache code runs.
 */
#include <algorithm>
#include <condition_variable>
#include <iostream>
#include <map>
#include <memory>
#include <optional>

#include "arch/device_registry.h"
#include "baselines/backend_factory.h"
#include "core/compile_service.h"
#include "core/compiler.h"
#include "core/mapper.h"
#include "core/scheduler.h"
#include "runners.h"

namespace perfbench {

using mussti::Circuit;
using mussti::CompileResult;

namespace {

/** A round that has not finished by then counts as failed. */
constexpr auto kRoundDeadline = std::chrono::seconds(60);

/** The pipeline's pass names, in order (core/compiler.h). */
const std::vector<std::string> kPasses = {
    "lower-swaps",     "eml-target",     "trivial-placement",
    "mussti-schedule", "sabre-two-fold", "evaluate"};

/**
 * What one measured window saw. A round compiles every circuit of the
 * workload once; the window runs whole rounds, so each circuit weighs
 * the same in every metric. Throughput is compiles over the timed
 * time, not a median rate: on a host whose CPUs are intermittently
 * slowed by other tenants, compile times are bimodal, and a mean moves
 * less with the share of slow compiles than a median does.
 */
struct Window
{
    std::vector<double> latencyMs;   ///< Submit to result, per compile.
    std::vector<double> queueWaitMs; ///< Latency minus compile time.
    std::size_t rounds = 0;
    double busyMs = 0.0;  ///< Sum of compileTimeSec.
    double timedMs = 0.0; ///< Wall time of the rounds.
    std::map<std::string, double> passMs; ///< Sum per pass.

    double throughput() const
    {
        return timedMs > 0.0 ? latencyMs.size() * 1000.0 / timedMs : 0.0;
    }
};

/**
 * Book one finished compile: check it against the reference (outside
 * the timed region), record its timings, and keep the first result of
 * each circuit for the once-per-run validation.
 */
void
bookCompile(const WorkCircuit &work, mussti::CompileOutcome outcome,
            Clock::time_point submit, Clock::time_point ready,
            const Oracle &oracle, Report &report, Window &window,
            std::map<std::string, CompileResult> &firsts, Tracer &tracer,
            int parent, std::uint64_t request)
{
    if (!outcome.ok()) {
        report.attempt(false, work.key + ": " + outcome.errorInfo().message());
        return;
    }
    const CompileResult &result = *outcome.result;
    const bool ok = oracle.matches(work.key, result);
    report.attempt(ok);
    if (!ok)
        report.wrong(work.key + ": result differs from the reference");

    const double latency = msBetween(submit, ready);
    const double compile_ms = result.compileTimeSec * 1000.0;
    window.latencyMs.push_back(latency);
    window.queueWaitMs.push_back(std::max(0.0, latency - compile_ms));
    window.busyMs += compile_ms;
    for (const mussti::PassTiming &pass : result.passTrace)
        window.passMs[pass.pass] += pass.seconds * 1000.0;

    if (tracer.enabled()) {
        // Pass spans are laid end to end inside the compile, from the
        // durations the pipeline records in passTrace.
        const int job = tracer.add("service.job", submit, ready, parent,
                                   request);
        auto at = ready - std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  result.compileTimeSec));
        const int compile = tracer.add("core.compile", at, ready, job,
                                       request);
        for (const mussti::PassTiming &pass : result.passTrace) {
            const auto end =
                at + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(pass.seconds));
            tracer.add("core.pass." + pass.pass, at, end, compile, request);
            at = end;
        }
    }
    if (!firsts.count(work.key))
        firsts.emplace(work.key, std::move(*outcome.result));
}

/** Fisher-Yates shuffle driven by mix64, the same on every platform. */
std::vector<std::size_t>
shuffledOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::uint64_t state = seed;
    for (std::size_t i = n; i > 1; --i) {
        state = mix64(state);
        std::swap(order[i - 1], order[state % i]);
    }
    return order;
}

/** The three scheduler legs of one SABRE compile, replayed. */
struct LegTotals
{
    double forwardMs = 0.0;
    double reverseCopyMs = 0.0;
    double backwardMs = 0.0;
    double refinedMs = 0.0;
    long long steps = 0;
    long long ops = 0;
    long long swapInsertions = 0;
    long long evictions = 0;
};

/**
 * Replay SabreTwoFoldPass's legs through MusstiScheduler::run on the
 * pipeline's inputs: forward from the trivial placement, backward over
 * the reversed circuit, refined from the backward leg's end placement.
 * The steps summed over the legs must equal the compile's routingSteps.
 */
void
replayLegs(const WorkCircuit &work, const CompileResult &compiled,
           LegTotals &totals, Report &report, Tracer &tracer)
{
    const mussti::MusstiConfig config;
    const mussti::PhysicalParams params;
    const Circuit lowered = work.circuit.withSwapsDecomposed();
    const auto device = mussti::DeviceRegistry::createEml(
        config.device, work.circuit.numQubits());
    const mussti::Placement initial =
        mussti::trivialPlacement(*device, work.circuit.numQubits());
    const mussti::MusstiScheduler scheduler(*device, params, config);
    mussti::SchedulerWorkspace workspace;

    const auto t0 = Clock::now();
    const auto forward = scheduler.run(lowered, initial, &workspace);
    const auto t1 = Clock::now();
    const Circuit reversed = lowered.reversed();
    const auto t2 = Clock::now();
    const auto backward =
        scheduler.run(reversed, forward.finalPlacement, &workspace);
    const auto t3 = Clock::now();
    const auto refined =
        scheduler.run(lowered, backward.finalPlacement, &workspace);
    const auto t4 = Clock::now();

    const int root = tracer.add("core.replay", t0, t4);
    tracer.add("core.leg.forward", t0, t1, root);
    tracer.add("core.reverse_copy", t1, t2, root);
    tracer.add("core.leg.backward", t2, t3, root);
    tracer.add("core.leg.refined", t3, t4, root);

    totals.forwardMs += msBetween(t0, t1);
    totals.reverseCopyMs += msBetween(t1, t2);
    totals.backwardMs += msBetween(t2, t3);
    totals.refinedMs += msBetween(t3, t4);
    const int steps =
        forward.routingSteps + backward.routingSteps + refined.routingSteps;
    if (steps != compiled.routingSteps)
        report.wrong(work.key + ": replayed legs took " +
                     std::to_string(steps) + " routing steps, the compile " +
                     std::to_string(compiled.routingSteps));
    totals.steps += steps;
    for (const auto *leg : {&forward, &backward, &refined}) {
        totals.ops += static_cast<long long>(leg->schedule.ops.size());
        totals.swapInsertions += leg->swapInsertions;
        totals.evictions += leg->evictions;
    }
}

/** End-to-end metrics every compile workload shares. */
void
reportCompileWindow(const Window &window, Report &report)
{
    report.set("throughput_per_s", window.throughput());
    report.set("latency_ms_p50", percentile(window.latencyMs, 50));
    report.set("latency_ms_p90", percentile(window.latencyMs, 90));
    std::cerr << "perfbench: " << window.latencyMs.size() << " compiles in "
              << window.rounds << " rounds, "
              << window.timedMs / 1000.0 << " s\n";
}

/** Per-layer metrics from the traced window and the replayed legs. */
void
reportCompileLayers(const Window &traced, double untraced_throughput,
                    const LegTotals &legs, Report &report)
{
    const double compiles = std::max<std::size_t>(1, traced.latencyMs.size());
    for (const std::string &pass : kPasses) {
        const auto it = traced.passMs.find(pass);
        report.set("core.pass." + pass + "_ms",
                   it == traced.passMs.end() ? 0.0 : it->second / compiles);
    }
    report.set("core.leg.forward_ms", legs.forwardMs);
    report.set("core.reverse_copy_ms", legs.reverseCopyMs);
    report.set("core.leg.backward_ms", legs.backwardMs);
    report.set("core.leg.refined_ms", legs.refinedMs);
    report.set("core.routing_steps", legs.steps);
    const double leg_ms = legs.forwardMs + legs.backwardMs + legs.refinedMs;
    report.set("core.us_per_step",
               legs.steps > 0 ? leg_ms * 1000.0 / legs.steps : 0.0);
    report.set("core.ops_emitted", legs.ops);
    report.set("core.swap_insertions", legs.swapInsertions);
    report.set("core.evictions", legs.evictions);
    report.set("bench.latency_samples", traced.latencyMs.size());
    report.set("bench.trace_overhead_share",
               traced.throughput() > 0.0
                   ? untraced_throughput / traced.throughput() - 1.0
                   : 0.0);
}

/** Replay, validate and report the distinct results of a run. */
void
finishCompileRun(const std::vector<WorkCircuit> &circuits,
                 const std::map<std::string, CompileResult> &firsts,
                 const Oracle &oracle, const Options &options,
                 const Window &traced, double untraced_throughput,
                 Report &report, Tracer &tracer)
{
    std::vector<DistinctResult> distinct;
    LegTotals legs;
    double compile_ms = 0.0;
    for (const WorkCircuit &work : circuits) {
        const auto it = firsts.find(work.key);
        if (it == firsts.end()) {
            report.wrong(work.key + ": never compiled");
            continue;
        }
        distinct.push_back({work.key, &work.circuit, &it->second});
        if (options.trace) {
            replayLegs(work, it->second, legs, report, tracer);
            compile_ms += it->second.compileTimeSec * 1000.0;
        }
    }
    checkDistinct(distinct, oracle, report, tracer);
    if (options.trace) {
        reportCompileLayers(traced, untraced_throughput, legs, report);
        std::cerr << "perfbench: replayed legs "
                  << legs.forwardMs + legs.backwardMs + legs.refinedMs
                  << " ms of " << compile_ms
                  << " ms compile time (one compile per circuit)\n";
    }
}

// ---------------------------------------------------------- suite-batch

struct SuiteState
{
    std::vector<WorkCircuit> circuits;
    Oracle oracle;
    std::shared_ptr<const mussti::ICompilerBackend> backend;
    std::unique_ptr<mussti::CompileService> service;
};

/**
 * One round: the 18 circuits submitted as one batch, in a seed-set
 * order. Per-job ready times come from the completion callback, the
 * same queue path compileAll takes.
 */
void
suiteRound(SuiteState &state, std::uint64_t round_seed, Window &window,
           std::map<std::string, CompileResult> &firsts, Report &report,
           Tracer &tracer, std::uint64_t &next_request)
{
    const std::vector<std::size_t> order =
        shuffledOrder(state.circuits.size(), round_seed);
    auto cancel = std::make_shared<std::atomic<bool>>(false);
    std::vector<mussti::CompileRequest> requests;
    for (std::size_t index : order)
        requests.push_back({state.backend, state.circuits[index].circuit,
                            {}, {}, cancel});

    struct Slot
    {
        Clock::time_point submit;
        Clock::time_point ready;
        std::optional<mussti::CompileOutcome> outcome;
    };
    std::vector<Slot> slots(order.size());
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining = order.size();

    const auto start = Clock::now();
    for (std::size_t i = 0; i < order.size(); ++i) {
        slots[i].submit = Clock::now();
        state.service->submitWithCallback(
            std::move(requests[i]),
            [&, i](mussti::CompileOutcome outcome) {
                const auto ready = Clock::now();
                std::lock_guard<std::mutex> lock(mutex);
                slots[i].ready = ready;
                slots[i].outcome = std::move(outcome);
                --remaining;
                done.notify_all(); // Under the lock: `done` is a local.
            });
    }
    {
        std::unique_lock<std::mutex> lock(mutex);
        if (!done.wait_until(lock, start + kRoundDeadline,
                             [&] { return remaining == 0; })) {
            cancel->store(true); // Unfinished jobs resolve Cancelled.
            done.wait(lock, [&] { return remaining == 0; });
        }
    }
    const auto end = Clock::now();
    ++window.rounds;
    window.timedMs += msBetween(start, end);

    const int round = tracer.add("bench.round", start, end);
    for (std::size_t i = 0; i < order.size(); ++i)
        bookCompile(state.circuits[order[i]], std::move(*slots[i].outcome),
                    slots[i].submit, slots[i].ready, state.oracle, report,
                    window, firsts, tracer, round, next_request++);
}

Window
suiteWindow(SuiteState &state, const Options &options, double seconds,
            std::uint64_t salt, std::map<std::string, CompileResult> &firsts,
            Report &report, Tracer &tracer)
{
    Window window;
    std::uint64_t request = 1;
    for (std::uint64_t round = 0; window.timedMs < seconds * 1000.0; ++round)
        suiteRound(state, mix64(options.seed ^ mix64(salt + round)), window,
                   firsts, report, tracer, request);
    return window;
}

void
reportQueue(const Window &window, Report &report)
{
    report.set("service.queue_wait_ms_p50",
               percentile(window.queueWaitMs, 50));
    report.set("service.queue_wait_ms_p90",
               percentile(window.queueWaitMs, 90));
    report.set("service.worker_busy_share",
               window.timedMs > 0.0 ? window.busyMs / (2.0 * window.timedMs)
                                    : 0.0);
}

/** One unmeasured round; its outcomes are checked in the windows. */
void
warmUp(SuiteState &state)
{
    Window window;
    std::map<std::string, CompileResult> firsts;
    Report scratch;
    Tracer off(false);
    std::uint64_t request = 0;
    suiteRound(state, 0, window, firsts, scratch, off, request);
}

// --------------------------------------------------------- deep-compile

struct DeepState
{
    std::vector<WorkCircuit> circuits;
    Oracle oracle;
    std::unique_ptr<mussti::MusstiCompiler> compiler;
};

Window
deepWindow(DeepState &state, const Options &options, double seconds,
           std::map<std::string, CompileResult> &firsts, Report &report,
           Tracer &tracer)
{
    Window window;
    const std::size_t n = state.circuits.size();
    std::uint64_t request = 1;
    for (std::size_t round = 0; window.timedMs < seconds * 1000.0; ++round) {
        for (std::size_t k = 0; k < n; ++k) {
            const WorkCircuit &work =
                state.circuits[(options.seed + round + k) % n];
            Circuit input = work.circuit; // Copied outside the timing.
            const auto start = Clock::now();
            mussti::CompileOutcome outcome;
            try {
                outcome.result.emplace(
                    state.compiler->compile(std::move(input)));
            } catch (const std::exception &error) {
                report.attempt(false, work.key + ": " + error.what());
                continue;
            }
            const auto end = Clock::now();
            window.timedMs += msBetween(start, end);
            bookCompile(work, std::move(outcome), start, end, state.oracle,
                        report, window, firsts, tracer, -1, request++);
        }
        ++window.rounds;
    }
    return window;
}

} // namespace

void
runSuiteBatch(const Options &options, const std::string &reference,
              Report &report, Tracer &tracer)
{
    auto setup = [&](double &build_ms) {
        SuiteState state;
        const auto t0 = Clock::now();
        state.circuits = suiteCircuits();
        build_ms = msSince(t0);
        tracer.add("workloads.build", t0, Clock::now());
        std::string error;
        if (!state.oracle.load(reference, error))
            throw std::runtime_error(error);
        state.backend = mussti::makeMusstiBackend(mussti::MusstiConfig{});
        mussti::CompileServiceConfig config;
        config.numThreads = 2;
        config.cacheCapacity = 0; // Every round really compiles.
        state.service = std::make_unique<mussti::CompileService>(config);
        warmUp(state);
        return state;
    };
    SuiteState state = timedSetup<SuiteState>(setup, report, tracer);

    std::map<std::string, CompileResult> firsts;
    Tracer off(false);
    const Window untraced = suiteWindow(state, options, untracedSeconds(options),
                                        0, firsts, report, off);
    reportCompileWindow(untraced, report);
    Window traced;
    if (options.trace) {
        traced = suiteWindow(state, options, options.seconds, 1, firsts,
                             report, tracer);
        reportQueue(traced, report);
    }
    finishCompileRun(state.circuits, firsts, state.oracle, options, traced,
                     untraced.throughput(), report, tracer);
}

void
runDeepCompile(const Options &options, const std::string &reference,
               Report &report, Tracer &tracer)
{
    auto setup = [&](double &build_ms) {
        DeepState state;
        const auto t0 = Clock::now();
        state.circuits = deepCircuits();
        build_ms = msSince(t0);
        tracer.add("workloads.build", t0, Clock::now());
        std::string error;
        if (!state.oracle.load(reference, error))
            throw std::runtime_error(error);
        state.compiler = std::make_unique<mussti::MusstiCompiler>();
        for (const WorkCircuit &work : state.circuits)
            state.compiler->compile(work.circuit); // Warm-up, unchecked.
        return state;
    };
    DeepState state = timedSetup<DeepState>(setup, report, tracer);

    std::map<std::string, CompileResult> firsts;
    Tracer off(false);
    const Window untraced = deepWindow(state, options, untracedSeconds(options),
                                       firsts, report, off);
    reportCompileWindow(untraced, report);
    Window traced;
    if (options.trace)
        traced = deepWindow(state, options, options.seconds, firsts, report,
                            tracer);
    finishCompileRun(state.circuits, firsts, state.oracle, options, traced,
                     untraced.throughput(), report, tracer);
}

} // namespace perfbench
