#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs one workload ten times, on seeds 1-10, for BENCHMARK.json's
run_seconds, and prints for every end-to-end metric its median and its
spread: the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, next to the
metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steadiness.py --workload daemon_edits
"""

import argparse
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in SEEDS:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        run = subprocess.run(cmd, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stdout}{run.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        row = []
        for name in values:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            row.append(f"{name}={v:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)

    print(f"{args.workload}: {len(SEEDS)} runs of {bench['run_seconds']} s")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        print(f"  {m['name']:<18} median {med:<12.6g} spread {spread:6.3f} "
              f"(bound {m['bound']}, a third of it {m['bound'] / 3:.3f})")


if __name__ == "__main__":
    main()
