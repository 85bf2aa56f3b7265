#!/usr/bin/env python3
"""Build perfbench_driver from the checkout's sources and run it.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload suite-batch --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --emit-reference > perfbench/reference.tsv

perfbench_driver is configured once into .bench_build/perfbench (Release) and
rebuilt incrementally on every call, so a run always measures the
sources it sits beside. Build output goes to stderr; stdout carries only
perfbench_driver's own output, whose last line is the JSON result. Exits
non-zero, printing no result, when the project sources are missing, the
build fails, or perfbench_driver overruns its time limit.
"""
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure (first time) and build perfbench_driver; its path, or None."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no project sources beside {HERE}; nothing to benchmark")
        return None
    commands = []
    if not (BUILD / "CMakeCache.txt").is_file():
        commands.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"])
    commands.append(["cmake", "--build", str(BUILD), "--target",
                     "perfbench_driver", "-j", str(min(4, os.cpu_count() or 1))])
    for command in commands:
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(command))
            return None
    return BUILD / "perfbench_driver"


def main():
    driver = build()
    if driver is None:
        return 2
    args = sys.argv[1:]
    if "--emit-reference" not in args and "--reference" not in args:
        args += ["--reference", str(HERE / "reference.tsv")]
    process = subprocess.Popen([str(driver)] + args, cwd=ROOT)
    # A SIGTERM to this script must not leave perfbench_driver running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return process.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench_driver overran {DRIVER_TIMEOUT_S} s and was stopped")
        return 3
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()


if __name__ == "__main__":
    sys.exit(main())
