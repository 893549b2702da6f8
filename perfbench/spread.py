#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports, for each end-to-end
metric, the median and the quartile spread (distance between the first and
third quartile as a share of the median) against the metric's bound.

    python3 perfbench/spread.py --workload mesh_sharded --seeds 1-10

A spread under a third of the bound is steady; setup_s is reported but has
no spread limit.  Exit code 1 when a run fails or is incorrect."""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in benchlib.parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout)
            return 1
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
            flush=True)

    for metric in bench["end_to_end"]:
        xs = values[metric["name"]]
        spread = benchlib.relative_spread(xs)
        limit = "no limit" if metric["name"] == "setup_s" else (
            "steady" if spread < metric["bound"] / 3 else "NOT STEADY")
        print(f"{metric['name']:20s} median {statistics.median(xs):.6g} "
              f"spread {spread:.4f} bound {metric['bound']} ({limit})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
