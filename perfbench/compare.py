#!/usr/bin/env python3
"""Summarise benchmark result sets and compare two of them.

Usage::

    python3 perfbench/compare.py BASE.jsonl            # spread of one set
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl  # verdict per metric

Each file holds the lines ``run.py --record FILE`` appends.  For every
workload and metric it prints the median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median.  With two sets, an end-to-end metric
is ``worse`` when the new median is worse than the base median by more than
the bound in ``catalog.py``, ``unresolved`` when the base spread exceeds the
bound and the new runs do not all read better, ``better`` when it improved by
more than the base spread, and ``same`` otherwise.  The exit code is 1 when a
metric is ``worse`` or a run failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict

from catalog import END_TO_END, PER_LAYER


def load(path: str) -> tuple[dict, int]:
    """(workload, trace) -> metric -> values, and the number of failed runs."""
    values: dict = defaultdict(lambda: defaultdict(list))
    failed = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            result = rec["result"]
            failed += 0 if result["correct"] and result["failed"] == 0 else 1
            for name, m in result["metrics"].items():
                values[(rec["workload"], rec["trace"])][name].append(m["value"])
    return values, failed


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """median, first quartile, third quartile, spread (IQR / median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def verdict(name: str, base: list[float], new: list[float]) -> str:
    _, better, bound = END_TO_END[name]
    sign = 1.0 if better == "lower" else -1.0
    b_med, _, _, b_spread = summary(base)
    n_med = statistics.median(new)
    worse = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    all_better = all(sign * n < sign * b for n in new for b in base)
    if b_spread > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "worse"
    if -worse > b_spread:
        return "better"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    args = parser.parse_args(argv)
    base, failed = load(args.base)
    new, new_failed = load(args.new) if args.new else ({}, 0)
    status = 1 if failed or new_failed else 0
    print(f"failed runs: base {failed}" + (f", new {new_failed}" if args.new else ""))
    for key in sorted(base):
        workload, trace = key
        print(f"\n{workload} ({'per-layer' if trace else 'end-to-end'}, {len(next(iter(base[key].values())))} runs)")
        for name, vals in base[key].items():
            unit = END_TO_END[name][0] if name in END_TO_END else PER_LAYER.get(name, ("?",))[0]
            med, q1, q3, spread = summary(vals)
            line = f"  {name:40s} {med:14.6g} [{q1:.6g}, {q3:.6g}] {unit:9s} spread {spread:6.3f}"
            if name in END_TO_END:
                line += f" (bound {END_TO_END[name][2]})"
            if args.new and key in new and name in new[key]:
                n_med, _, _, n_spread = summary(new[key][name])
                line += f" -> {n_med:.6g} spread {n_spread:.3f}"
                if name in END_TO_END:
                    v = verdict(name, vals, new[key][name])
                    line += f" {v}"
                    status = 1 if v == "worse" else status
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
