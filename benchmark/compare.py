#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

    benchmark/compare.py PARENT_DIR CHANGE_DIR [--spec BENCHMARK.json]

Each directory holds the result files that
`benchmark/run.sh --repeat N --out DIR` writes (one JSON file per run).
Only untraced runs are compared. Runs of each side are paired in seed
order; run the two sides alternately, for example

    for s in $(seq 1 10); do
      (cd parent && benchmark/run.sh --seed $s --out ../runs/parent)
      (cd change && benchmark/run.sh --seed $s --out ../runs/change)
    done

(swapping which side goes first on every other seed). For every workload
and end-to-end metric the verdict is:

  gain        at least 10 pairs, the change wins at least 9 of every 10
              (ties count for neither), and the medians differ by more than
              the parent's own spread (the distance between its quartiles);
              not claimed when the change failed more operations
  regression  the change's median is worse than the parent's by more than
              the metric's bound (a share of the parent's median)
  unresolved  either side's spread exceeds the bound, unless every change
              run beats every parent run
  worse       the mirror of gain, for a slowdown within the bound: the
              parent wins at least 9 of every 10 pairs and the medians
              differ by more than the parent's spread
  no change   none of the above

The bounds and directions come from BENCHMARK.json. The exit status is 1
when any metric regressed or any run failed its checks.
"""

import argparse
import glob
import json
import os
import statistics
import sys

MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


def load_runs(directory):
    """Returns {workload: [run, ...]} of untraced runs, in seed order."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            run = json.load(f)
        if run.get("trace") != 0:
            continue
        runs.setdefault(run["workload"], []).append(run)
    for workload in runs:
        runs[workload].sort(key=lambda r: r["seed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    median = statistics.median(values)
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(parent, change, bound, higher_is_better, more_failures):
    """parent, change: per-run values paired by index."""
    better = (lambda a, b: a > b) if higher_is_better else (lambda a, b: a < b)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    worse_by = (p_med - c_med) if higher_is_better else (c_med - p_med)
    if p_med and worse_by / abs(p_med) > bound:
        return "regression", wins, len(pairs)
    wide = max(spread(parent), spread(change)) > bound
    all_better = all(better(c, p) for c in change for p in parent)
    if wide and not all_better:
        return "unresolved", wins, len(pairs)
    losses = sum(1 for p, c in pairs if better(p, c))
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN
            and abs(c_med - p_med) > (p_q3 - p_q1)):
        if (wins >= WIN_SHARE_FOR_GAIN * len(pairs)
                and better(c_med, p_med) and not more_failures):
            return "gain", wins, len(pairs)
        if losses >= WIN_SHARE_FOR_GAIN * len(pairs) and better(p_med, c_med):
            return "worse", wins, len(pairs)
    return ("better in every run" if wide else "no change"), wins, len(pairs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument(
        "--spec",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                             "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.spec) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)

    status = 0
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        for workload, rs in runs.items():
            for r in rs:
                if not r["correct"] or r["failed"]:
                    print(f"{side} {workload} seed {r['seed']}: failed checks "
                          f"({r['failed']} operations failed)")
                    status = 1

    header = (f"{'workload':12} {'metric':10} {'parent median [q1, q3]':34} "
              f"{'change median [q1, q3]':34} {'wins':>7}  verdict")
    print(header)
    print("-" * len(header))
    for workload in sorted(set(parent_runs) | set(change_runs)):
        p_runs = parent_runs.get(workload, [])
        c_runs = change_runs.get(workload, [])
        n = min(len(p_runs), len(c_runs))
        if n == 0:
            print(f"{workload:12} missing runs on one side")
            status = 1
            continue
        more_failures = (sum(r["failed"] for r in c_runs[:n]) >
                         sum(r["failed"] for r in p_runs[:n]))
        for metric in metrics:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in p_runs[:n]]
            c = [r["metrics"][name]["value"] for r in c_runs[:n]]
            result, wins, pairs = verdict(p, c, metric["bound"],
                                          metric["better"] == "higher",
                                          more_failures)
            if result == "regression":
                status = 1

            def summary(values):
                q1, q3 = quartiles(values)
                return (f"{statistics.median(values):.6g} "
                        f"[{q1:.6g}, {q3:.6g}]")

            print(f"{workload:12} {name:10} {summary(p):34} {summary(c):34} "
                  f"{wins:>3}/{pairs:<3}  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main())
