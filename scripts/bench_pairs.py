#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload with alternating runs.

Usage::

    python3 scripts/bench_pairs.py PARENT CHANGE --workload {wide,chain,eval} [--pairs N] [--seconds S] [--seed K]

Runs ``perfbench/run.py --trace 0`` in each checkout by turns, ``N`` pairs of
one run each (10 by default); the order flips from pair to pair (parent first,
then change first), so a drift in host speed falls on both sides alike.
Prints, per end-to-end metric, the parent's and the change's medians, the
parent's interquartile range, their ratio (change / parent), in how many
pairs the change was better, and the verdict of ``perfbench/compare.py`` over
all the parent's and all the change's runs: ``worse``, ``unresolved`` (the
parent's spread exceeds the bound), ``better`` or ``same``, with each metric's
direction and bound from ``perfbench/catalog.py``.  Fails, with exit code 1,
when a run exits non-zero or reports ``"correct": false``, or when a metric
reads ``worse``; it names each such metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from catalog import END_TO_END  # noqa: E402
from compare import summary, verdict  # noqa: E402


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """The result JSON that one untraced benchmark run prints last."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: perfbench exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return read_result(done.stdout, str(checkout))


def read_result(stdout: str, source: str) -> dict:
    """The metric values of a run's last stdout line; raises unless the run was correct."""
    result = json.loads(stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{source}: {result['failed']} of {result['attempted']} operations failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summarize(pairs: list[tuple[dict, dict]]) -> list[tuple]:
    """Per end-to-end metric of ``catalog.END_TO_END``, from ``(parent, change)``
    pairs of metric dicts: ``(name, parent median, parent interquartile range,
    change median, change / parent, pairs where the change was better,
    verdict)``.  The ratio is NaN where the parent's median is 0."""
    rows = []
    for name, (_, direction, _) in END_TO_END.items():
        old = [p[name] for p, _ in pairs]
        new = [c[name] for _, c in pairs]
        old_median, q1, q3, _ = summary(old)
        new_median = summary(new)[0]
        ratio = new_median / old_median if old_median else float("nan")
        wins = sum((c > p) if direction == "higher" else (c < p) for p, c in zip(old, new))
        rows.append((name, old_median, q3 - q1, new_median, ratio, wins, verdict(name, old, new)))
    return rows


def format_table(rows: list[tuple], n_pairs: int) -> str:
    lines = [f"{'metric':<24} {'parent':>12} {'parent IQR':>12} {'change':>12} {'ratio':>7}  better  verdict"]
    for name, old, iqr, new, ratio, wins, outcome in rows:
        better = f"{wins}/{n_pairs}"
        lines.append(f"{name:<24} {old:>12.6g} {iqr:>12.4g} {new:>12.6g} {ratio:>7.3f}  {better:<6}  {outcome}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout with the change")
    parser.add_argument("--workload", required=True, choices=("wide", "chain", "eval"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    pairs = []
    for i in range(args.pairs):
        order = (args.parent, args.change) if i % 2 == 0 else (args.change, args.parent)
        try:
            first, second = (run_once(c, args.workload, args.seconds, args.seed) for c in order)
        except RuntimeError as exc:
            print(f"bench_pairs: {exc}", file=sys.stderr)
            return 1
        pairs.append((first, second) if i % 2 == 0 else (second, first))
        print(f"# pair {i + 1}/{args.pairs} done", file=sys.stderr)
    print(f"workload {args.workload}, {args.pairs} pairs of {args.seconds:g} s runs, seed {args.seed}")
    rows = summarize(pairs)
    print(format_table(rows, args.pairs))
    worse = [row[0] for row in rows if row[-1] == "worse"]
    if worse:
        print(f"bench_pairs: worse than the parent by more than the bound: {', '.join(worse)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
