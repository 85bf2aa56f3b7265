#!/usr/bin/env python3
"""Self-test of the benchmark at short length.

    python3 perfbench/selftest.py [--seconds S]

Runs every workload of BENCHMARK.json, and deep-compile, with two seeds,
untraced and traced, and checks that:
  - each run exits 0 and ends with the result line, every metric of
    BENCHMARK.json present with its unit, outputs correct, nothing failed;
  - shuttles_total, neg_log10_fidelity_total, core.routing_steps and
    core.ops_emitted are exactly equal across runs and seeds;
  - each traced run reports non-zero per-layer metrics for the layers
    its workload exercises, and blames the known hot spots: transport
    is most of a cached round trip, and the scheduler legs are most of
    a deep compile;
  - in a directory holding only BENCHMARK.json and the benchmark's
    files, the benchmark fails without printing a result.
Exits non-zero on the first failed check.
"""
import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = (1, 2)

# deep-compile is not in BENCHMARK.json (see README.md, "Noise"), but the
# driver still runs it, so it is tested here too.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["deep-compile"]

# Per-layer metrics that must be non-zero on the workloads exercising them.
EXERCISED = {
    "suite-batch": ["dag.build_ms", "core.pass.mussti-schedule_ms",
                    "core.leg.forward_ms", "core.routing_steps",
                    "core.ops_emitted", "service.worker_busy_share",
                    "service.queue_wait_ms_p90", "sim.validate_ms"],
    "deep-compile": ["dag.build_ms", "core.pass.sabre-two-fold_ms",
                     "core.leg.backward_ms", "core.reverse_copy_ms",
                     "core.us_per_step", "core.fingerprint_ms"],
    "serve-cached": ["service.hit_ms", "serve.transport_ms",
                     "serve.encode_us", "serve.decode_us",
                     "serve.response_bytes", "cache.mem_lookups",
                     "admission.submitted", "core.fingerprint_ms"],
    "serve-mixed": ["circuit.qasm_parse_ms", "cache.mem_lookups",
                    "cache.disk_lookups", "cache.mem_evictions",
                    "admission.completed", "bench.generator_late_ms_p90",
                    "serve.transport_ms"],
}
EXACT = {0: ["shuttles_total", "neg_log10_fidelity_total"],
         1: ["core.routing_steps", "core.ops_emitted"]}


def fail(message):
    print(f"selftest: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(cwd, workload, seed, seconds, trace):
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(workload, seed, seconds, trace):
    done = run(ROOT, workload, seed, seconds, trace)
    where = f"{workload} seed {seed} trace {trace}"
    if done.returncode != 0:
        fail(f"{where}: exit {done.returncode}\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{where}: no result line")
    line = json.loads(lines[-1])
    if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{where}: result keys {sorted(line)}")
    if not line["correct"] or line["failed"] != 0 or line["attempted"] < 1:
        fail(f"{where}: correct={line['correct']} failed={line['failed']} "
             f"attempted={line['attempted']}\n{done.stderr[-2000:]}")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    got = line["metrics"]
    if [m["name"] for m in wanted] != list(got):
        fail(f"{where}: metrics {list(got)}")
    for metric in wanted:
        if got[metric["name"]]["unit"] != metric["unit"]:
            fail(f"{where}: {metric['name']} unit {got[metric['name']]}")
    values = {name: entry["value"] for name, entry in got.items()}
    if not trace and values["success_share"] != 1:
        fail(f"{where}: success_share {values['success_share']}")
    print(f"selftest: ok {where}: attempted {line['attempted']}",
          file=sys.stderr)
    return values


def check_workload(workload, seconds):
    runs = {(seed, trace): result(workload, seed, seconds, trace)
            for seed in SEEDS for trace in (0, 1)}
    for trace, names in EXACT.items():
        for name in names:
            seen = {runs[(seed, trace)][name] for seed in SEEDS}
            if len(seen) != 1:
                fail(f"{workload}: {name} differs across seeds: {seen}")
    for seed in SEEDS:
        layers = runs[(seed, 1)]
        for name in EXERCISED[workload]:
            if not layers[name] > 0:
                fail(f"{workload} seed {seed}: {name} is {layers[name]}")
        if workload == "serve-cached":
            rtt = runs[(seed, 0)]["latency_ms_p50"]
            if layers["serve.transport_ms"] < 0.5 * rtt:
                fail(f"{workload}: transport {layers['serve.transport_ms']}"
                     f" ms is not most of the {rtt} ms round trip")
        if workload == "deep-compile":
            legs = sum(layers[f"core.leg.{leg}_ms"]
                       for leg in ("forward", "backward", "refined"))
            # Pass times are means per compile; one round compiles each
            # of the three circuits once, as the replay does.
            compile_ms = 3 * sum(value for name, value in layers.items()
                                 if name.startswith("core.pass."))
            if legs < 0.5 * compile_ms:
                fail(f"{workload}: legs {legs} ms are not most of the "
                     f"{compile_ms} ms compile time")


def check_without_sources():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    done = run(bare, SPEC["workloads"][0]["name"], 1, 1, 0)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        fail("without the project sources the benchmark still succeeded")
    print("selftest: ok without sources: exit", done.returncode,
          file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    for workload in WORKLOADS:
        check_workload(workload, args.seconds)
    check_without_sources()
    print("selftest: all checks passed", file=sys.stderr)


if __name__ == "__main__":
    main()
