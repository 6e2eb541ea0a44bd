#!/usr/bin/env python3
"""Exact-count self-check of the warehouse benchmark.

    python3 warehouse_bench/test_exact_counts.py [--seed N]

Runs two traced runs at one seed on olap_read and on cluster_scatter, and
fails unless both agree exactly on the counts a later change may rest a
claim on. A traced run executes a fixed op list and replays each op alone,
so these counts must repeat exactly. Run it from the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

EXACT = ["index.vectors_per_query", "index.pages_per_query",
         "boolean.cover_terms", "boolean.reductions_per_query",
         "cluster.fanout"]
WORKLOADS = ("olap_read", "cluster_scatter")


def traced_run(workload, seed):
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    result = subprocess.run(
        [sys.executable, run_py, "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--trace", "1"],
        capture_output=True, text=True, check=False)
    if result.returncode != 0:
        sys.exit(f"{workload}: traced run failed (exit {result.returncode})\n"
                 f"{result.stderr[-2000:]}")
    outcome = json.loads(result.stdout.strip().splitlines()[-1])
    if not outcome["correct"] or outcome["failed"] != 0:
        sys.exit(f"{workload}: traced run reported wrong answers")
    return {name: m["value"] for name, m in outcome["metrics"].items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    failures = 0
    for workload in WORKLOADS:
        first = traced_run(workload, args.seed)
        second = traced_run(workload, args.seed)
        for name in EXACT:
            same = name in first and first.get(name) == second.get(name)
            failures += 0 if same else 1
            print(f"{'ok  ' if same else 'FAIL'} {workload} {name}: "
                  f"{first.get(name)} vs {second.get(name)}")
    if failures:
        sys.exit(f"{failures} count(s) differ between runs at one seed")
    print("exact counts repeat")


if __name__ == "__main__":
    main()
