#!/usr/bin/env python3
"""Regenerates perfbench/references.json: the exact-counter digest of one
unit of each simulated workload for every seed in a range.

    python3 perfbench/make_references.py --seeds 0-99 [WORKLOAD ...]

Run it only when a change is meant to alter simulated results; the digests
are what the benchmark's output checks compare against."""

import argparse
import json
import os
import subprocess
import sys

import benchlib
import run

WORKLOADS = ("paper_path", "mesh_sharded", "fabric_build")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-99")
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = parser.parse_args()
    seeds = benchlib.parse_seeds(args.seeds)
    driver = run.build()
    references = run.load_json("references.json")
    for workload in args.workloads:
        references[workload] = {}
        for seed in seeds:
            proc = subprocess.run(
                [driver, "--workload", workload, "--seed", str(seed),
                 "--digest-only"], capture_output=True, text=True, check=True)
            references[workload][str(seed)] = json.loads(proc.stdout)["digest"]
            print(workload, seed, references[workload][str(seed)], flush=True)
    with open(os.path.join(run.HERE, "references.json"), "w") as out:
        json.dump(references, out, indent=1, sort_keys=False)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
