#!/usr/bin/env python3
"""Compares hdtn_bench results of a parent commit and a change.

    python3 bench/e2e/compare.py --parent old/*.json --change new/*.json

Each input is a result JSON written by `hdtn_bench --json=PATH` (run.py
writes one per run into build/e2e/out/). For every pairing of workload and
end-to-end metric in BENCHMARK.json the script prints each side's median and
quartiles, the share of runs paired by seed (or by order when the seeds
differ) that the change wins, and one label:

  improved     the change wins at least 9/10 of the pairs (ties count for
               neither) and the medians differ by more than the parent's
               spread (the distance between its quartiles);
  unresolved   the run-to-run spread (IQR over median, the wider side) is
               wider than the metric's bound, and not every change run reads
               better than every parent run;
  regressed    the change's median is worse than the parent's by more than
               the bound (a share of the parent's median);
  within bound otherwise.

Exits 1 when any row is regressed. Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))


def load(paths):
    """{workload: [(seed, {metric: value})]} from result files."""
    runs = {}
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        seed = data["environment"]["seed"]
        for result in data["results"]:
            metrics = {name: m["value"]
                       for name, m in result["summary"]["metrics"].items()}
            runs.setdefault(result["workload"], []).append((seed, metrics))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pairs(parent, change):
    """Runs paired by seed when both sides ran the same seeds."""
    by_seed_p = dict(parent)
    by_seed_c = dict(change)
    if len(by_seed_p) == len(parent) and sorted(by_seed_p) == sorted(by_seed_c):
        return [(by_seed_p[s], by_seed_c[s]) for s in sorted(by_seed_p)]
    return list(zip([m for _, m in parent], [m for _, m in change]))


def judge(metric, parent, change):
    """One row: medians, quartiles, win share, label."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    name = metric["name"]
    p_vals = [m[name] for _, m in parent]
    c_vals = [m[name] for _, m in change]
    p_med = statistics.median(p_vals)
    c_med = statistics.median(c_vals)
    p_q = quartiles(p_vals)
    c_q = quartiles(c_vals)

    def better(a, b):
        return a < b if lower else a > b

    paired = pairs(parent, change)
    wins = sum(better(c[name], p[name]) for p, c in paired)
    win_share = wins / len(paired) if paired else 0.0
    spread = max((p_q[1] - p_q[0]) / p_med if p_med else 0.0,
                 (c_q[1] - c_q[0]) / c_med if c_med else 0.0)
    all_better = all(better(c, p) for c in c_vals for p in p_vals)
    worse_by = ((c_med - p_med) if lower else (p_med - c_med)) / p_med \
        if p_med else 0.0

    if win_share >= 0.9 and abs(c_med - p_med) > p_q[1] - p_q[0]:
        label = "improved"
    elif spread > bound and not all_better:
        label = "unresolved"
    elif worse_by > bound:
        label = "regressed"
    else:
        label = "within bound"
    return {"p_med": p_med, "p_q": p_q, "c_med": c_med, "c_q": c_q,
            "delta": (c_med - p_med) / p_med if p_med else 0.0,
            "wins": win_share, "pairs": len(paired), "spread": spread,
            "label": label}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True,
                        help="result JSONs of the parent commit")
    parser.add_argument("--change", nargs="+", required=True,
                        help="result JSONs of the change")
    parser.add_argument("--benchmark",
                        default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    parent = load(args.parent)
    change = load(args.change)

    print(f"{'workload':18s} {'metric':24s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'delta':>8s} {'wins':>6s} "
          f"{'spread':>7s} {'bound':>6s}  label")
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent or workload not in change:
            print(f"{workload:18s} (missing on one side)")
            continue
        for metric in spec["end_to_end"]:
            row = judge(metric, parent[workload], change[workload])
            regressed = regressed or row["label"] == "regressed"
            p = f"{row['p_med']:.5g} [{row['p_q'][0]:.5g}, {row['p_q'][1]:.5g}]"
            c = f"{row['c_med']:.5g} [{row['c_q'][0]:.5g}, {row['c_q'][1]:.5g}]"
            print(f"{workload:18s} {metric['name']:24s} {p:>34s} {c:>34s} "
                  f"{row['delta']:+8.2%} {row['wins']:6.0%} "
                  f"{row['spread']:7.2%} {metric['bound']:6.0%}  "
                  f"{row['label']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
