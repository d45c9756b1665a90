#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as the last stdout line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {wide,chain,eval} --seed N --seconds S --trace {0,1}

With ``--trace 0`` it prints the end-to-end metrics, measured with no
tracing and scaled to a fixed host speed (see :func:`end_to_end`).  With
``--trace 1`` it prints the per-layer metrics: half the time runs untraced
for reference, half with a span around every layer call, then a separate
``tracemalloc`` pass measures peak traced memory; the spans go to
``.perfbench/spans-<workload>-<seed>.json``.  ``--record FILE`` also appends
the result to a JSON-lines file that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import uuid
from pathlib import Path
from time import perf_counter

SETUP_RUNS = 7

# Seconds that reference() takes at the host speed all timings of a run are
# scaled to (see end_to_end); about what it takes on a 2.1 GHz Xeon guest.
REFERENCE_S = 0.075

# A fresh interpreter imports the toolkit and builds the config and the
# linker, up to the first stage call; it prints the seconds that took.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import tubestream
from tubestream import pipeline
from tubestream.config import RunConfig
from tubestream.linker import OnlineLinker, SpillStore
config = RunConfig(alphas={alphas!r})
linker = OnlineLinker(config=config.linker_config(), store_factory=lambda: SpillStore({spool!r}))
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("wide", "chain", "eval"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result to this JSON-lines file")
    return parser.parse_args(argv)


def measure_setup(src: Path, work: str, alphas) -> list[float]:
    code = SETUP_CHILD.format(src=str(src), alphas=alphas, spool=work)
    times = []
    for _ in range(SETUP_RUNS + 1):  # the first run fills the bytecode cache
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True, cwd=work
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times[1:]


def reference() -> float:
    """A fixed pure-Python task of the kinds of work the toolkit does: box
    overlaps on float tuples, record formatting and parsing, grouping and
    sorting.  It calls nothing of ``tubestream``, so no change to the program
    changes its cost; only the speed of the host does.  It holds little
    memory, so it does not raise the run's peak RSS."""
    ring = [(0.1, 0.1, 0.3, 0.3)] * 8
    groups: dict[int, list] = {}
    acc = 0.0
    for i in range(15_000):
        x1, y1, x2, y2 = (i * 37 % 101) / 101, (i * 53 % 97) / 97, 0.2 + (i * 29 % 89) / 89, 0.2 + (i * 17 % 83) / 83
        for u1, v1, u2, v2 in (ring[(i - 1) % 8], ring[(i - 7) % 8]):
            iw, ih = min(x2, u2) - max(x1, u1), min(y2, v2) - max(y1, v1)
            if iw > 0 and ih > 0:
                inter = iw * ih
                acc += inter / ((x2 - x1) * (y2 - y1) + (u2 - u1) * (v2 - v1) - inter)
        ring[i % 8] = (x1, y1, x2, y2)
        group = groups.setdefault(i % 24, [])
        group.append((acc, i))
        if len(group) == 64:
            group.sort()
            group.clear()
        acc += float(f"v{i % 40:02d} {i} {x1:.6g} {y1:.6g} {x2:.6g} {y2:.6g}".split()[3])
    return acc


def time_reference() -> float:
    gc.collect()
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


def measure(workload, seconds: float, tracer=None, timer=None) -> tuple[list, list[float]]:
    """Complete passes, back to back, until ``seconds`` have gone by, and the
    time of ``reference()`` before each pass and after the last.  Each pass
    starts from a collected heap, so the collector work inside a pass does
    not depend on the passes before it."""
    passes, refs = [], []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        refs.append(time_reference())
        gc.collect()
        p = workload.run_pass(tracer, timer)
        if timer is not None:
            p.take_latencies(timer.take())
        passes.append(p)
    refs.append(time_reference())
    return passes, refs


def host_scale(refs: list[float]) -> float:
    """Factor that takes a time measured during these reference times to the
    host speed at which ``reference()`` takes ``REFERENCE_S``."""
    return REFERENCE_S / statistics.fmean(refs)


def end_to_end(passes, refs: list[float], setup: list[float]) -> dict[str, float]:
    """Run-level figures.  Pass times are averaged over the run and scaled by
    :func:`host_scale`: the speed of a shared host swings by half and more
    over seconds to minutes, the reference task swings with it, and the
    ratio of the two is what repeats from run to run."""
    scale = host_scale(refs)
    ok = [p for p in passes if not p.failures] or passes
    lat = [p for p in ok if p.latency_samples]
    frame_s = sum(p.frame_s for p in ok) * scale
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.fmean(p.run_s for p in ok) * scale,
        "frames_per_s": sum(p.frames for p in ok) / frame_s if frame_s > 0 else 0.0,
        "frame_latency_p50_us": statistics.fmean(p.latency_p50_us for p in lat) * scale if lat else 0.0,
        "frame_latency_p99_us": statistics.fmean(p.latency_p99_us for p in lat) * scale if lat else 0.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(args, root: Path, out_dir: Path, work: str) -> tuple[dict, list[str]]:
    import catalog
    import workloads as wl
    from tracing import Tracer

    workload = wl.WORKLOADS[args.workload](args.seed, work)
    t0 = perf_counter()
    workload.prepare()
    info = [f"workload={args.workload} seed={args.seed} trace={args.trace} inputs generated in {perf_counter() - t0:.3f}s"]

    if not args.trace:
        alphas = 1.0 if args.workload in ("chain", "eval") else None
        setup = measure_setup(root / "src", work, alphas)
        with wl.StepTimer() as timer:
            passes, refs = measure(workload, args.seconds, timer=timer)
        values = end_to_end(passes, refs, setup)
        info.append(
            f"{len(passes)} passes; {sum(p.latency_samples for p in passes)} step latency samples; "
            f"setup runs {', '.join(f'{s:.4f}' for s in setup)}"
        )
        info.append(
            f"reference {statistics.fmean(refs):.4f}s (mean of {len(refs)}), host scale {host_scale(refs):.4f}; "
            f"unscaled run_s {statistics.fmean(p.run_s for p in passes):.4f}"
        )
        units = {n: u for n, (u, _, _) in catalog.END_TO_END.items()}
    else:
        untraced, untraced_refs = measure(workload, args.seconds / 2)
        tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{uuid.uuid4().hex[:8]}")
        with tracer:
            record_size = wl.instrument(tracer, work)
            traced, traced_refs = measure(workload, args.seconds / 2, tracer=tracer)
        values = {n: 0.0 for n in catalog.PER_LAYER}
        values.update(wl.layer_metrics(tracer, len(traced), record_size))
        values.update(workload.memory())
        base = statistics.fmean(p.run_s for p in untraced) * host_scale(untraced_refs)
        values["trace.overhead_frac"] = statistics.fmean(p.run_s for p in traced) * host_scale(traced_refs) / base - 1.0
        passes = untraced + traced
        spans = out_dir / f"spans-{args.workload}-{args.seed}.json"
        tracer.write(str(spans))
        info.append(f"{len(untraced)} untraced and {len(traced)} traced passes; spans in {spans.relative_to(root)}")
        if tracer.absent:
            info.append("absent (reported as 0): " + ", ".join(tracer.absent))
        units = {n: row[0] for n, row in catalog.PER_LAYER.items()}

    failures = [f for p in passes for f in p.failures]
    info += [f"failed: {f}" for f in failures[:10]]
    result = {
        "correct": not failures,
        "attempted": sum(p.ops for p in passes),
        "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    return result, info


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tubestream" / "__init__.py").is_file():
        print(f"perfbench: no src/tubestream under {root}; run from the root of a tubestream checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=out_dir)
    try:
        result, info = run(args, root, out_dir, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in info:
        print("# " + line)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
