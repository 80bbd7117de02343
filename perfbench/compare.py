#!/usr/bin/env python3
"""Compares two result sets of the serving-stack benchmark.

    python3 perfbench/compare.py BASE_DIR NEW_DIR
    python3 perfbench/compare.py DIR            # one set: medians and spread

A result set is a directory of run records written by run.py (--results).
Runs whose answer checks failed are left out of the medians; their count is
printed. For every workload and every bounded end-to-end metric (spec.py)
it prints one row: each side's median, quartile spread and raw values, the
change of the median, and a verdict:

  regressed   the median moved the wrong way by more than the bound
  improved    the median moved the right way by more than the bound
  unchanged   the median moved by less than the bound
  unresolved  a side's run-to-run spread (quartile distance over median,
              statistics.quantiles(n=4)) is wider than the bound, so a move
              within it cannot be told from noise, unless every new run
              beats every base run
  missing     only one set has correct runs of the workload and metric

Exits 2 without comparing when the runs were recorded at different run
lengths, 1 when any row regressed or is missing, 0 otherwise.
"""

import glob
import json
import math
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import spec  # noqa: E402


def load(directory):
    """Returns (values, left_out, lengths): workload -> metric -> untraced
    values of the correct runs, in run order; workload -> number of runs
    left out because an answer check failed; the set of run lengths."""
    values, left_out, lengths = {}, {}, set()
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        lengths.add(record["seconds"])
        workload = record["workload"]
        if not record["correct"]:
            left_out[workload] = left_out.get(workload, 0) + 1
            continue
        per_metric = values.setdefault(workload, {})
        for name, value in record.get("e2e", {}).items():
            per_metric.setdefault(name, []).append(value)
    return values, left_out, lengths


def summary(values):
    """(median, spread): spread is the quartile distance over the median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, math.inf
    q1, _, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return median, 0.0 if q1 == q3 else math.inf
    return median, (q3 - q1) / abs(median)


def verdict(metric, base, new):
    base_median, base_spread = summary(base)
    new_median, new_spread = summary(new)
    if base_median == 0:
        change = 0.0 if new_median == 0 else math.copysign(math.inf, new_median)
    else:
        change = (new_median - base_median) / abs(base_median)
    higher_is_better = metric["better"] == "higher"
    gain = change if higher_is_better else -change
    beats_all = min(new) > max(base) if higher_is_better else max(new) < min(base)
    bound = metric["bound"]
    if max(base_spread, new_spread) > bound and not beats_all:
        return change, "unresolved"
    if gain < -bound:
        return change, "regressed"
    if gain > bound:
        return change, "improved"
    return change, "unchanged"


def fmt(values):
    return " ".join("%.4g" % v for v in values)


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    directories = argv[1:]
    loaded = [load(d) for d in directories]
    lengths = set().union(*(runs for _, _, runs in loaded))
    if len(lengths) > 1:
        print("compare.py: runs of different lengths (%s s) measure different "
              "workloads; compare sets recorded at one run length"
              % ", ".join("%g" % s for s in sorted(lengths)), file=sys.stderr)
        return 2
    for directory, (_, left_out, _) in zip(directories, loaded):
        for workload, count in sorted(left_out.items()):
            print("%s: %d %s run(s) left out, an answer check failed"
                  % (directory, count, workload))
    sets = [values for values, _, _ in loaded]
    failed = False
    for workload in [w["name"] for w in spec.WORKLOADS]:
        for metric in spec.bounded_metrics(workload):
            name = metric["name"]
            columns = [s.get(workload, {}).get(name) for s in sets]
            if not any(columns):
                continue
            if len(sets) == 1:
                median, spread = summary(columns[0])
                print("%-12s %-22s median %-11.5g spread %5.3f (bound %.2f) %-4s n=%d [%s]"
                      % (workload, name, median, spread, metric["bound"],
                         "ok" if spread <= metric["bound"] else "WIDE",
                         len(columns[0]), fmt(columns[0])))
                continue
            if not all(columns):
                failed = True
                absent = directories[0] if not columns[0] else directories[1]
                print("%-12s %-22s missing    no correct run in %s"
                      % (workload, name, absent))
                continue
            change, result = verdict(metric, *columns)
            failed = failed or result == "regressed"
            (base_median, base_spread), (new_median, new_spread) = (
                summary(columns[0]), summary(columns[1]))
            print("%-12s %-22s %-10s %+7.1f%% (bound %2.0f%%)  base %.5g (spread %.3f)"
                  "  new %.5g (spread %.3f)  base=[%s] new=[%s]"
                  % (workload, name, result, change * 100, metric["bound"] * 100,
                     base_median, base_spread, new_median, new_spread,
                     fmt(columns[0]), fmt(columns[1])))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
