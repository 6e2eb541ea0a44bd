#!/usr/bin/env python3
"""Builds and runs the warehouse benchmark from the root of a checkout.

    python3 warehouse_bench/run.py --workload olap_read --seed 1 \
        --seconds 30 --trace 0

Builds warehouse_bench (Release, library sources from ../src) under
.bench_build/warehouse_bench, runs one workload, and passes its output
through: "metric <name> <value> <unit>" lines, then one JSON object as the
last stdout line. Build output goes to stderr. `--workload all` runs every
workload in turn. Exits 2, printing no result, when the library sources
are missing or the build fails, and nonzero after printing the result
when an answer was wrong.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("olap_read", "cluster_scatter")
# One run must end within 180 s; the first run of a checkout also builds.
RUN_TIMEOUT_S = 170
BUILD_DIR = os.path.join(".bench_build", "warehouse_bench")
# glibc's default malloc moves its mmap and trim thresholds as the program
# frees large blocks, so whether a snapshot's buffers reused freed memory
# or faulted in fresh pages differed from run to run, and set-up, append
# and query times were bimodal. Fixed thresholds keep freed memory in the
# heap for reuse, as a long-running server's allocator would. The setting
# is part of the benchmark: both sides of a comparison run with it.
MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold=33554432:"
                   "glibc.malloc.trim_threshold=1073741824")


def fail(message):
    print(f"warehouse_bench: {message}", file=sys.stderr)
    sys.exit(2)


def build(bench_dir):
    if not os.path.isfile(os.path.join(bench_dir, "..", "src",
                                       "CMakeLists.txt")):
        fail("library sources (../src) not found next to the benchmark")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target",
                   "warehouse_bench", "-j", str(os.cpu_count() or 1)]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "warehouse_bench")


def run(binary, workload, args):
    """Runs one workload; returns its exit code."""
    work_dir = os.path.join(BUILD_DIR, "work", workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S, env=env,
                                check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} exceeded {RUN_TIMEOUT_S} s")
    # Keep a traced run's span file; drop the logs.
    for name in os.listdir(work_dir) if os.path.isdir(work_dir) else []:
        if name.endswith(".wal"):
            os.remove(os.path.join(work_dir, name))
    return result.returncode


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build(os.path.dirname(os.path.abspath(__file__)))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [run(binary, w, args) for w in workloads]
    sys.exit(next((c for c in codes if c != 0), 0))


if __name__ == "__main__":
    main()
