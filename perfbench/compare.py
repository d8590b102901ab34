#!/usr/bin/env python3
"""Compares a parent and a change result set, workload by workload.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Both files come from perfbench/sweep.py, run with the same benchmark code,
settings and seeds on the two commits (alternate which commit runs first).
For every workload and end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles, the pair wins (runs paired by seed; ties count
for neither side) and a verdict. Two verdicts about the runs themselves come
first and hold for every metric of the workload:

  incorrect      some change run failed its output checks (correct=false);
  more_failures  the change failed a larger share of its attempted calls
                 than the parent (failed / attempted, summed over seeds), so
                 no gain counts.

Otherwise the metric's own verdict:

  gain         the change wins at least 9/10 of all pairs and the medians
               differ by more than the parent's own spread (its quartile
               distance);
  regression   the change's median is worse than the parent's by more than
               the metric's bound;
  unresolved   the parent's spread is wider than the bound, and not every
               change run beats every parent run;
  unchanged    otherwise (within the bound).

A claim also has to hold on the held-out seed (perfbench/README.md).
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """Returns ({(workload, metric): {seed: value}},
    {workload: {seed: (correct, attempted, failed)}})."""
    runs, status = {}, {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace", 0) != 0:
                continue
            result = rec["result"]
            status.setdefault(rec["workload"], {})[rec["seed"]] = (
                result["correct"], result["attempted"], result["failed"])
            for name, m in result["metrics"].items():
                runs.setdefault((rec["workload"], name), {})[rec["seed"]] = \
                    m["value"]
    return runs, status


def failure_share(runs):
    attempted = sum(a for _, a, _ in runs.values())
    return sum(f for _, _, f in runs.values()) / attempted if attempted else 0.0


def run_verdict(parent, change):
    """The workload-wide verdict from the runs' correctness, or None."""
    if not all(correct for correct, _, _ in change.values()):
        return "incorrect"
    if failure_share(change) > failure_share(parent):
        return "more_failures"
    return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, pairs, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    gain = sign * (cm - pm)
    if pairs and wins >= 0.9 * len(pairs) and gain > (p3 - p1):
        return wins, losses, "gain"
    if pm != 0 and -gain / abs(pm) > bound:
        return wins, losses, "regression"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if pm != 0 and (p3 - p1) / abs(pm) > bound and not all_better:
        return wins, losses, "unresolved"
    return wins, losses, "unchanged"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--bench", default=os.path.join(
        os.path.dirname(HERE), "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.bench) as f:
        metrics = json.load(f)["end_to_end"]
    parent, parent_status = load(args.parent)
    change, change_status = load(args.change)
    workloads = sorted(set(parent_status) & set(change_status))
    if not workloads:
        sys.exit("no workload appears in both result sets")

    for workload in workloads:
        p, c = parent_status[workload], change_status[workload]
        print(f"{workload:15s} correct runs parent {sum(r[0] for r in p.values())}"
              f"/{len(p)} change {sum(r[0] for r in c.values())}/{len(c)}; "
              f"failed/attempted parent {failure_share(p):.4g} "
              f"change {failure_share(c):.4g}")
    print(f"{'workload':15s} {'metric':15s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'wins':>7s}  verdict")
    for workload in workloads:
        runs = run_verdict(parent_status[workload], change_status[workload])
        for m in metrics:
            p = parent.get((workload, m["name"]), {})
            c = change.get((workload, m["name"]), {})
            if not p or not c:
                continue
            seeds = sorted(set(p) & set(c))
            pairs = [(p[s], c[s]) for s in seeds]
            wins, losses, v = verdict(list(p.values()), list(c.values()),
                                      pairs, m["better"], m["bound"])
            v = runs or v
            pq = "/".join(f"{x:.4g}" for x in quartiles(list(p.values())))
            cq = "/".join(f"{x:.4g}" for x in quartiles(list(c.values())))
            print(f"{workload:15s} {m['name']:15s} {pq:>32s} {cq:>32s} "
                  f"{wins:>3d}:{losses:<3d}  {v}")


if __name__ == "__main__":
    main()
