#!/usr/bin/env python3
"""Compares two sets of benchmark runs, per workload and metric.

    python3 perfbench/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are each a run log (the stdout of perfbench/run.py) or a
directory of them; every `{"record": ...}` line in them is one run. Runs
are paired in file-name order, so save them as e.g. parent/03.txt and
change/03.txt when alternating which side runs first.

For every workload both sides ran, and every metric, it prints each side's
median and quartiles, the change/parent ratio of the medians, the share of
pairs the change wins (ties count for neither side), and a verdict under
the bounds in BENCHMARK.json (per-layer metrics have no bound and get no
verdict):

  gain        the change wins >= 90% of pairs and the medians differ by
              more than the parent's interquartile range;
  regression  the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's own spread is wider than the bound, and not
              every change run beats every parent run;
  same        none of the above.

Exits 1 when any end-to-end metric regressed.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(path):
    files = [path]
    if os.path.isdir(path):
        files = [os.path.join(path, f) for f in sorted(os.listdir(path))]
    runs = []
    for name in files:
        if not os.path.isfile(name):
            continue
        with open(name, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line.startswith('{"record"'):
                    continue
                runs.append(json.loads(line)["record"])
    return runs


def by_workload(runs):
    out = {}
    for r in runs:
        out.setdefault((r["workload"], r["trace"]), []).append(r)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    """Returns (win_rate, verdict) for one metric."""
    lower = better == "lower"

    def beats(b, a):
        return b < a if lower else b > a

    wins = losses = 0
    for a, b in zip(parent, change):
        if beats(b, a):
            wins += 1
        elif beats(a, b):
            losses += 1
    rate = wins / (wins + losses) if wins + losses else 0.0
    if bound is None:
        return rate, ""
    q1, med, q3 = quartiles(parent)
    _, change_med, _ = quartiles(change)
    if med == 0:
        return rate, "unresolved"
    worse = (change_med - med) / med if lower else (med - change_med) / med
    spread = (q3 - q1) / med
    all_better = all(beats(b, a) for b in change for a in parent)
    if rate >= 0.9 and abs(change_med - med) > q3 - q1 and worse < 0:
        return rate, "gain"
    if spread > bound and not all_better:
        return rate, "unresolved"
    if worse > bound:
        return rate, "regression"
    return rate, "same"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark, encoding="utf-8") as f:
        bench = json.load(f)
    declared = {m["name"]: m for m in bench["end_to_end"]}
    declared.update({m["name"]: m for m in bench["per_layer"]})

    parent = by_workload(load_runs(args.parent))
    change = by_workload(load_runs(args.change))
    regressed = False
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        a_runs, b_runs = parent[key], change[key]
        print("## %s (%s), %d parent runs, %d change runs" %
              (workload, "per-layer" if trace else "end-to-end",
               len(a_runs), len(b_runs)))
        print("%-36s %-11s %28s %28s %8s %6s  %s" %
              ("metric", "unit", "parent q1/median/q3",
               "change q1/median/q3", "ratio", "wins", "verdict"))
        for name in a_runs[0]["metrics"]:
            if name not in declared or name not in b_runs[0]["metrics"]:
                continue
            meta = declared[name]
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            bound = meta.get("bound")
            rate, word = verdict(a, b, meta["better"], bound)
            regressed |= word == "regression"
            aq, bq = quartiles(a), quartiles(b)
            ratio = bq[1] / aq[1] if aq[1] else float("nan")
            print("%-36s %-11s %28s %28s %8.4f %5.0f%%  %s" %
                  (name, meta["unit"],
                   "%.4g/%.4g/%.4g" % aq, "%.4g/%.4g/%.4g" % bq,
                   ratio, 100 * rate, word))
        print()
    if not set(parent) & set(change):
        print("no workload appears on both sides", file=sys.stderr)
        return 2
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
