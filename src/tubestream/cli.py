"""Command-line surface: decode | link | eval | synth | losscheck."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

from . import records
from .config import RunConfig, load_config
from .linker import SequencingError
from .losses import check_gradients, random_check_case
from .pipeline import run_decode, run_eval, run_link
from .synthetic import ScenarioSpec, generate


_MAX_RANGE_STEPS = 10_000


def _parse_deltas(text: str) -> tuple[float, ...]:
    """Comma-separated values and/or lo:hi[:step] ranges, e.g. '0.5:0.95'."""
    out: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if ":" in token:
            parts = token.split(":")
            if len(parts) not in (2, 3):
                raise argparse.ArgumentTypeError(f"bad range {token!r}")
            lo, hi = float(parts[0]), float(parts[1])
            step = float(parts[2]) if len(parts) == 3 else 0.05
            if not (all(map(math.isfinite, (lo, hi, step))) and step > 0):
                raise argparse.ArgumentTypeError(f"range {token!r} needs finite bounds and a step > 0")
            if (hi - lo) / step > _MAX_RANGE_STEPS:
                raise argparse.ArgumentTypeError(f"range {token!r} takes more than {_MAX_RANGE_STEPS} steps")
            k = 0
            while True:
                v = round(lo + k * step, 6)
                if v > hi + 1e-9:
                    break
                out.append(round(v, 2))
                k += 1
        elif token:
            out.append(round(float(token), 2))
    if not out:
        raise argparse.ArgumentTypeError("empty threshold list")
    return tuple(sorted(set(out)))


def _parse_floats(text: str) -> tuple[float, ...] | float:
    """Comma-separated values; one value is a scalar, for every class."""
    values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    return values[0] if len(values) == 1 else values


def _add_config_flags(p: argparse.ArgumentParser, linking: bool = False, scoring: bool = False) -> None:
    p.add_argument("--config", help="JSON config file with RunConfig keys")
    if linking:
        p.add_argument("--iou-gate", type=float, dest="iou_gate", help="spatial IoU gate for linking")
        p.add_argument("--window", type=int, help="label window / completion patience, in frames")
        p.add_argument("--max-tubes", type=int, dest="max_tubes", help="max concurrent tubes per class")
        p.add_argument("--score-floor", type=float, dest="score_floor", help="min confidence to seed a tube")
        p.add_argument(
            "--alphas",
            type=_parse_floats,
            help="labeling trade-off, one value or comma list per class (1=rates only, 0=scores only)",
        )
        p.add_argument(
            "--rate-errors",
            type=_parse_floats,
            dest="rate_errors",
            help="per-class mean rate training errors, converted to alphas via exp(-err^2/1e-2)",
        )
    if scoring:  # eval scores its input files as written: no threshold or NMS
        p.add_argument("--deltas", type=_parse_deltas, help="tube overlap thresholds, e.g. '0.5:0.95' or '0.1,0.2'")
        p.add_argument(
            "--frame-threshold", type=float, dest="frame_threshold", help="spatial IoU threshold for the frame metric"
        )
    else:
        p.add_argument("--score-threshold", type=float, dest="score_threshold", help="detection selection threshold")
        p.add_argument("--nms-iou", type=float, dest="nms_iou", help="NMS suppression IoU")


def _config_from(args: argparse.Namespace) -> RunConfig:
    flags = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return load_config(getattr(args, "config", None), flags)


def _cmd_decode(args: argparse.Namespace) -> int:
    config = _config_from(args)
    n = run_decode(config, args.grids, args.out)
    print(f"decoded {n} boxes -> {args.out}")
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    config = _config_from(args)
    detections = config.detections
    tubes = config.tubes
    if detections is None or tubes is None:
        print("error: link needs --detections and --tubes", file=sys.stderr)
        return 2
    n = run_link(config, detections, tubes, spool_dir=args.spool_dir)
    print(f"linked {n} tubes -> {tubes}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    config = _config_from(args)
    tubes = config.tubes
    annotations = config.annotations
    if tubes is None or annotations is None:
        print("error: eval needs --tubes and --annotations", file=sys.stderr)
        return 2
    report = run_eval(config, tubes, annotations, detections_path=config.detections)
    print(report.table())
    if config.report:
        print(f"report csv -> {config.report}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    with open(args.scenario, "r", encoding="utf-8") as fh:
        spec = ScenarioSpec.from_dict(json.load(fh))
    stream, gt = generate(spec)
    with records.replaced_on_success(args.detections) as det, records.replaced_on_success(args.annotations) as ann:
        records.write_detections(det, [stream])
        records.write_annotations(ann, gt)
    print(
        f"synthesized {stream.n_boxes()} boxes over {spec.n_frames} frames, "
        f"{len(gt)} ground-truth tubes -> {args.detections}, {args.annotations}"
    )
    return 0


def _cmd_losscheck(args: argparse.Namespace) -> int:
    for flag in ("seeds", "grid", "anchors", "classes"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ValueError(f"--tolerance must be finite and > 0, got {args.tolerance}")
    worst = 0.0
    for seed in range(args.seeds):
        pred, target, weights = random_check_case(seed, args.grid, args.anchors, args.classes)
        worst = max(worst, check_gradients(pred, target, weights, eps=args.eps))
    ok = worst < args.tolerance
    print(f"max relative gradient error over {args.seeds} seeds: {worst:.3e} "
          f"({'PASS' if ok else 'FAIL'} at {args.tolerance:g})")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubestream",
        description="Decode detection grids, link action tubes online, and score the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="raw detection grids -> per-frame detections")
    p.add_argument("--grids", required=True, help="raw grid file")
    p.add_argument("--out", required=True, help="detections file to write")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("link", help="detections -> temporally trimmed tubes (streaming)")
    p.add_argument("--detections", help="detections file (env TUBESTREAM_DETECTIONS)")
    p.add_argument("--tubes", help="tubes file to write (env TUBESTREAM_TUBES)")
    p.add_argument("--spool-dir", dest="spool_dir", help="directory for tube spill files")
    _add_config_flags(p, linking=True)
    p.set_defaults(func=_cmd_link)

    p = sub.add_parser("eval", help="tubes + annotations -> metric report")
    p.add_argument("--tubes", help="tubes file (env TUBESTREAM_TUBES)")
    p.add_argument("--annotations", help="annotations file (env TUBESTREAM_ANNOTATIONS)")
    p.add_argument("--detections", help="optional detections for the frame-level metric")
    p.add_argument("--report", help="CSV report path (env TUBESTREAM_REPORT)")
    _add_config_flags(p, scoring=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="scenario config -> synthetic detections + annotations")
    p.add_argument("--scenario", required=True, help="scenario JSON")
    p.add_argument("--detections", required=True, help="detections file to write")
    p.add_argument("--annotations", required=True, help="annotations file to write")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("losscheck", help="finite-difference check of the loss gradients")
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--grid", type=int, default=3, help="grid side length")
    p.add_argument("--anchors", type=int, default=2)
    p.add_argument("--classes", type=int, default=2)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=_cmd_losscheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (records.RecordError, SequencingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
