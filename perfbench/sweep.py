#!/usr/bin/env python3
"""Runs the benchmark over several seeds and records a result set.

    python3 perfbench/sweep.py --out results.jsonl [--workloads a,b]
        [--seeds 1-10] [--seconds 30] [--trace 0]

Each (workload, seed) run appends one JSON line
{"workload": .., "seed": .., "trace": .., "result": <the benchmark's result>}
to --out. At the end it prints, per workload and metric, the median over the
seeds and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. Two result
sets, one per commit, feed perfbench/compare.py.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_mobility", "mesh_fleet", "sfu_layers")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def spread(values):
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    values = {}
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True)
            if run.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {run.returncode}")
            result = json.loads(run.stdout.strip().splitlines()[-1])
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": args.trace,
                                    "result": result}) + "\n")
            status = "ok" if result["correct"] else "INCORRECT"
            print(f"{workload} seed {seed}: {status}", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault((workload, name, m["unit"]), []).append(
                    m["value"])

    for (workload, name, unit), v in values.items():
        median, s = spread(v)
        print(f"{workload:15s} {name:36s} median {median:12.6g} {unit:8s} "
              f"spread {s:7.4f}  min {min(v):.6g} max {max(v):.6g}")


if __name__ == "__main__":
    main()
