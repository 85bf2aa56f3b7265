/**
 * @file
 * Benchmark driver entry point.
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    [--reference FILE]
 *   perfbench_driver --emit-reference
 *
 * Prints human-readable progress to stderr and, as the last line of
 * stdout, one JSON object {"correct", "attempted", "failed", "metrics"}:
 * the end-to-end metrics of an untraced run, or with --trace 1 the
 * per-layer metrics (a layer a workload does not exercise reads 0).
 * --emit-reference compiles every workload circuit once and prints the
 * reference file the correctness oracle pins.
 */
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuit/qasm.h"
#include "core/compiler.h"
#include "harness.h"
#include "runners.h"

using namespace perfbench;

namespace {

using MetricList = std::vector<std::pair<std::string, std::string>>;

/** The end-to-end metrics, as BENCHMARK.json lists them. */
const MetricList kEndToEnd = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_p90", "ms"},
    {"shuttles_total", "count"},
    {"neg_log10_fidelity_total", "-log10"},
    {"success_share", "share"},
    {"peak_rss_mb", "MB"},
};

/** The per-layer metrics, as BENCHMARK.json lists them. */
const MetricList kPerLayer = {
    {"workloads.build_ms", "ms"},
    {"circuit.qasm_parse_ms", "ms"},
    {"circuit.lowered_2q_gates", "count"},
    {"dag.build_ms", "ms"},
    {"core.pass.lower-swaps_ms", "ms"},
    {"core.pass.eml-target_ms", "ms"},
    {"core.pass.trivial-placement_ms", "ms"},
    {"core.pass.mussti-schedule_ms", "ms"},
    {"core.pass.sabre-two-fold_ms", "ms"},
    {"core.pass.evaluate_ms", "ms"},
    {"core.leg.forward_ms", "ms"},
    {"core.reverse_copy_ms", "ms"},
    {"core.leg.backward_ms", "ms"},
    {"core.leg.refined_ms", "ms"},
    {"core.routing_steps", "count"},
    {"core.us_per_step", "us"},
    {"core.ops_emitted", "count"},
    {"core.swap_insertions", "count"},
    {"core.evictions", "count"},
    {"core.fingerprint_ms", "ms"},
    {"sim.validate_ms", "ms"},
    {"service.queue_wait_ms_p50", "ms"},
    {"service.queue_wait_ms_p90", "ms"},
    {"service.worker_busy_share", "share"},
    {"service.hit_ms", "ms"},
    {"cache.mem_hit_ratio", "share"},
    {"cache.mem_lookups", "count"},
    {"cache.disk_hit_ratio", "share"},
    {"cache.disk_lookups", "count"},
    {"cache.mem_evictions", "count"},
    {"cache.disk_evictions", "count"},
    {"cache.disk_corrupt", "count"},
    {"admission.submitted", "count"},
    {"admission.completed", "count"},
    {"admission.queued_max", "count"},
    {"serve.transport_ms", "ms"},
    {"serve.encode_us", "us"},
    {"serve.decode_us", "us"},
    {"serve.response_bytes", "bytes"},
    {"bench.generator_late_ms_p90", "ms"},
    {"bench.trace_overhead_share", "share"},
    {"bench.latency_samples", "count"},
};

int
usage(const std::string &problem)
{
    std::cerr << "perfbench_driver: " << problem << "\n"
              << "usage: perfbench_driver --workload "
                 "suite-batch|deep-compile|serve-cached|serve-mixed "
                 "--seed N --seconds S --trace 0|1 [--reference FILE]\n"
              << "       perfbench_driver --emit-reference\n";
    return 2;
}

bool
parseNumber(const std::string &text, double &value)
{
    try {
        std::size_t used = 0;
        value = std::stod(text, &used);
        return used == text.size();
    } catch (const std::exception &) {
        return false;
    }
}

/**
 * Compile every workload circuit once with the paper's defaults and
 * print the reference file. Also checks the two facts serve-mixed's
 * pinned references rely on: a per-request seed and the QASM round trip
 * leave each sweep circuit's fingerprint unchanged.
 */
int
emitReference()
{
    std::vector<WorkCircuit> circuits = suiteCircuits();
    for (auto set : {deepCircuits(), servedFamilies()})
        for (WorkCircuit &work : set)
            circuits.push_back(std::move(work));

    const mussti::MusstiCompiler compiler;
    std::set<std::string> seen;
    std::printf("# perfbench reference: MUSS-TI (SABRE mapping) on the "
                "paper's EML device, default seed.\n"
                "# key\tfingerprint\tshuttles\tlog10_fidelity\n");
    for (const WorkCircuit &work : circuits) {
        if (!seen.insert(work.key).second)
            continue;
        const mussti::CompileResult result = compiler.compile(work.circuit);
        const std::string error =
            validateSchedule(result, work.circuit.numQubits());
        if (!error.empty()) {
            std::cerr << work.key << ": invalid schedule: " << error << "\n";
            return 1;
        }
        std::printf("%s\t%016llx\t%d\t%.17g\n", work.key.c_str(),
                    static_cast<unsigned long long>(
                        mussti::resultFingerprint(result)),
                    result.metrics.shuttleCount,
                    result.metrics.log10Fidelity());
        std::fprintf(stderr, "%-14s %9.1f ms %8d steps\n", work.key.c_str(),
                     result.compileTimeSec * 1000.0, result.routingSteps);
    }

    for (const WorkCircuit &work : mediumCircuits()) {
        const std::uint64_t want =
            mussti::resultFingerprint(compiler.compile(work.circuit));
        const mussti::Circuit parsed =
            mussti::fromQasm(mussti::toQasm(work.circuit), work.key);
        for (std::uint64_t seed : {1ULL, 2ULL, 99999ULL}) {
            if (mussti::resultFingerprint(
                    compiler.compileSeeded(parsed, seed)) != want) {
                std::cerr << work.key << ": seed " << seed
                          << " over QASM changes the fingerprint\n";
                return 1;
            }
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    std::string reference = "perfbench/reference.tsv";
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--emit-reference")
            return emitReference();
        if (i + 1 >= argc)
            return usage("missing value after " + arg);
        const std::string value = argv[++i];
        double number = 0.0;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--reference") {
            reference = value;
        } else if (arg == "--seed") {
            // Digits only, at most 19 of them, so the value fits u64.
            if (value.empty() || value.size() > 19 ||
                value.find_first_not_of("0123456789") != std::string::npos)
                return usage("bad --seed: " + value);
            options.seed = std::stoull(value);
            have_seed = true;
        } else if (arg == "--seconds") {
            if (!parseNumber(value, number) || number <= 0 || number > 600)
                return usage("bad --seconds: " + value);
            options.seconds = number;
            have_seconds = true;
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return usage("bad --trace: " + value);
            options.trace = value == "1";
            have_trace = true;
        } else {
            return usage("unknown argument " + arg);
        }
    }
    if (options.workload.empty() || !have_seed || !have_seconds ||
        !have_trace)
        return usage("--workload, --seed, --seconds and --trace are "
                     "required");

    Report report;
    Tracer tracer(options.trace);
    try {
        if (options.workload == "suite-batch")
            runSuiteBatch(options, reference, report, tracer);
        else if (options.workload == "deep-compile")
            runDeepCompile(options, reference, report, tracer);
        else if (options.workload == "serve-cached")
            runServeCached(options, reference, report, tracer);
        else if (options.workload == "serve-mixed")
            runServeMixed(options, reference, report, tracer);
        else
            return usage("unknown workload " + options.workload);
    } catch (const std::exception &error) {
        std::cerr << "perfbench_driver: " << options.workload
                  << " failed: " << error.what() << "\n";
        return 1;
    }

    const std::uint64_t attempted = report.attempted();
    if (attempted == 0) {
        std::cerr << "perfbench_driver: no operation was attempted\n";
        return 1;
    }
    report.set("success_share",
               1.0 - static_cast<double>(report.failedCount()) / attempted);
    report.set("peak_rss_mb", peakRssMb());

    if (options.trace) {
        tracer.printLayerTimes(std::cerr);
        const std::filesystem::path dir = ".bench_build/perfbench-traces";
        std::filesystem::create_directories(dir);
        const std::string path =
            (dir / (options.workload + "-seed" +
                    std::to_string(options.seed) + ".json"))
                .string();
        if (tracer.writeChromeTrace(path))
            std::cerr << "perfbench: trace written to " << path << "\n";
    } else {
        for (const auto &[name, unit] : kEndToEnd) {
            if (!report.has(name)) {
                std::cerr << "perfbench_driver: metric " << name
                          << " was not measured\n";
                return 1;
            }
        }
    }
    std::cout << report.json(options.trace ? kPerLayer : kEndToEnd)
              << std::endl;
    return 0;
}
