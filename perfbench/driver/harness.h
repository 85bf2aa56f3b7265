/**
 * @file
 * Shared pieces of the benchmark driver: command-line options, the
 * result report printed as the last stdout line, the span tracer of
 * traced runs, the pinned-reference correctness oracle, and the
 * workload circuit sets.
 *
 * perfbench_driver calls into the library only through its public headers;
 * every span is recorded here, around those calls.
 */
#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "core/pipeline.h"
#include "serve/protocol.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds between two instants. */
double msBetween(Clock::time_point from, Clock::time_point to);

/** Milliseconds elapsed since `from`. */
double msSince(Clock::time_point from);

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/**
 * Length of the untraced window: the whole run, or half of it in a
 * traced run, where it is only the base of bench.trace_overhead_share.
 */
inline double
untracedSeconds(const Options &options)
{
    return options.trace ? options.seconds / 2 : options.seconds;
}

/** Nearest-rank percentile `p` in [0, 100] of `values`; 0 when empty. */
double percentile(std::vector<double> values, double p);

/** Same-seed deterministic 64-bit mixer (SplitMix64 finaliser). */
std::uint64_t mix64(std::uint64_t x);

/**
 * Operation accounting and metrics of one run, printed as the JSON
 * result line. Thread-safe: serve workloads record from several client
 * threads.
 */
class Report
{
  public:
    /**
     * One operation attempted; `ok` false counts it as failed and logs
     * `why` (error, refusal or missed deadline) to stderr.
     */
    void attempt(bool ok, const std::string &why = {});

    /**
     * A correctness check failed: the output differs from the pinned
     * reference or the schedule is invalid. Marks the run incorrect and
     * logs the first few reasons to stderr.
     */
    void wrong(const std::string &why);

    /** Set a metric; main.cpp's tables give each metric its unit. */
    void set(const std::string &name, double value);

    bool has(const std::string &name) const;

    std::uint64_t attempted() const;
    std::uint64_t failedCount() const;
    bool correct() const;

    /**
     * The result line: {"correct", "attempted", "failed", "metrics"},
     * with the `wanted` metrics (name, unit) in that order.
     */
    std::string
    json(const std::vector<std::pair<std::string, std::string>> &wanted)
        const;

  private:
    void log(const std::string &why);

    mutable std::mutex mutex_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool correct_ = true;
    int logged_ = 0;
    std::map<std::string, double> metrics_;
};

/**
 * Span recorder of traced runs. Spans (name, start, end, parent,
 * request id) stay in memory and are written out once, as Chrome
 * trace-event JSON, when the run ends. Disabled tracers record nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Record a finished span; returns its id (-1 when disabled). */
    int add(const std::string &name, Clock::time_point start,
            Clock::time_point end, int parent = -1,
            std::uint64_t request = 0);

    /** Per span name: count, total time and self time in ms. */
    struct LayerTime
    {
        std::size_t count = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };

    /**
     * Self time of each span: its duration minus the part of its
     * interval that its child spans cover. Aggregated by span name.
     */
    std::map<std::string, LayerTime> layerTimes() const;

    void printLayerTimes(std::ostream &out) const;

    /** Write the spans as Chrome trace-event JSON (Perfetto opens it). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        int parent = -1;
        std::uint64_t request = 0;
    };

    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** A named workload circuit; the key names it in the reference file. */
struct WorkCircuit
{
    std::string key; ///< "family:qubits", e.g. "qft:256".
    mussti::Circuit circuit;
};

/** The paper's small, medium and large suites, 18 circuits. */
std::vector<WorkCircuit> suiteCircuits();

/** The paper's medium suite, 5 circuits (serve-mixed's sweep). */
std::vector<WorkCircuit> mediumCircuits();

/** qft:256, qv:96 and ising:128x16 (deep-compile). */
std::vector<WorkCircuit> deepCircuits();

/** ghz:64, adder:576 and qft:128, the served family requests. */
std::vector<WorkCircuit> servedFamilies();

/** Family and qubit count of a "family:qubits" key. */
void splitKey(const std::string &key, std::string &family, int &qubits);

/** What the reference file pins for one circuit. */
struct Reference
{
    std::uint64_t fingerprint = 0;
    int shuttles = 0;
    double log10Fidelity = 0.0;
};

/**
 * The correctness oracle: pinned references of every workload circuit
 * (reference.tsv beside this driver), plus schedule validation through
 * the sim validator, which is independent of the scheduler.
 */
class Oracle
{
  public:
    /** Load the reference file; false (with a message) on any error. */
    bool load(const std::string &path, std::string &error);

    /** The pinned reference of `key`; nullptr if the file lacks it. */
    const Reference *find(const std::string &key) const;

    /** Fingerprint, shuttles and fidelity of a local result match. */
    bool matches(const std::string &key,
                 const mussti::CompileResult &result) const;

    /** Fingerprint and shuttles of a served response match. */
    bool matches(const std::string &key,
                 const mussti::ServeResponse &response) const;

  private:
    std::map<std::string, Reference> refs_;
};

/**
 * Validate a MUSS-TI result's schedule against its lowered circuit on
 * the paper's EML device. Empty on success, else the first violation.
 */
std::string validateSchedule(const mussti::CompileResult &result,
                             int num_qubits);

/** Peak resident set size of this process in MB. */
double peakRssMb();

/** One distinct circuit of a workload and a result compiled from it. */
struct DistinctResult
{
    std::string key;
    const mussti::Circuit *circuit = nullptr;
    const mussti::CompileResult *result = nullptr;
};

/**
 * The once-per-run checks and per-layer probes over a workload's
 * distinct results, outside the timed region: each result is compared
 * with its reference and replayed through the validator (a failure
 * marks the run wrong). Sets circuit.lowered_2q_gates, dag.build_ms
 * (DependencyDag over each lowered circuit), core.fingerprint_ms (mean
 * per result), sim.validate_ms (total), shuttles_total and
 * neg_log10_fidelity_total.
 */
void checkDistinct(const std::vector<DistinctResult> &results,
                   const Oracle &oracle, Report &report, Tracer &tracer);

/** Number of setup repetitions; setup_s is their median. */
constexpr int kSetupReps = 5;

/**
 * Run `setup(build_ms)` kSetupReps times, keeping the last state;
 * reports the medians as setup_s and workloads.build_ms. A failing
 * setup throws.
 */
template <typename State, typename Setup>
State
timedSetup(Setup setup, Report &report, Tracer &tracer)
{
    std::vector<double> seconds;
    std::vector<double> build;
    std::optional<State> state;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        state.reset();
        const auto t0 = Clock::now();
        double build_ms = 0.0;
        state.emplace(setup(build_ms));
        const auto t1 = Clock::now();
        tracer.add("bench.setup", t0, t1);
        seconds.push_back(msBetween(t0, t1) / 1000.0);
        build.push_back(build_ms);
    }
    report.set("setup_s", percentile(seconds, 50));
    report.set("workloads.build_ms", percentile(build, 50));
    return std::move(*state);
}

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
