#!/usr/bin/env python3
"""Temporal-labeling mechanism study on the bundled hard-negative scenarios.

Context frames around each action carry action-level confidence scores but
flat progress rates, so a score-only linker (alpha=0) over-extends every
tube while rate-driven labeling (alpha=1) recovers the true boundaries.
This script reports mean temporal IoU for both regimes on the clean and
rate-noised scenarios, and with ``--write-golden`` refreshes the committed
golden artifacts (mechanism numbers JSON plus the pipeline report CSV,
produced through the reference linker rather than the production one).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tubestream.decode import nms_indices  # noqa: E402
from tubestream.linker import LinkerConfig, OnlineLinker  # noqa: E402
from tubestream.metrics import evaluate  # noqa: E402
from tubestream.pipeline import write_report_csv  # noqa: E402
from tubestream.synthetic import ScenarioSpec, generate, oracle_link  # noqa: E402

SCENARIOS = ROOT / "scenarios"
GOLDEN_DIR = ROOT / "tests" / "data"

LINK_CFG = dict(iou_gate=0.3, window=6, max_tubes=10, score_floor=1e-3)
SCORE_THRESHOLD = 1e-3
NMS_IOU = 0.45


def nms_frame(boxes):
    """The boxes of one frame that threshold + NMS keeps, in ``nms_indices`` order."""
    columns = [bx.class_id for bx in boxes], [bx.confidence for bx in boxes]
    keep = nms_indices(*columns, range(len(boxes)), [bx.geometry for bx in boxes], SCORE_THRESHOLD, NMS_IOU)
    return [boxes[i] for i in keep]


def load_spec(name: str) -> ScenarioSpec:
    with open(SCENARIOS / name, "r", encoding="utf-8") as fh:
        return ScenarioSpec.from_dict(json.load(fh))


def mean_tiou(spec: ScenarioSpec, alpha: float) -> float:
    stream, gt = generate(spec)
    cfg = LinkerConfig(alphas=alpha, **LINK_CFG)
    linker = OnlineLinker(spec.n_classes, cfg, video_id=spec.video_id)
    for t in stream.ordered_frames():
        linker.step(t, nms_frame(stream.boxes_at(t)))
    tubes = linker.finalize()
    per_class = evaluate(tubes, gt).t_iou
    return sum(per_class.values()) / len(per_class)


def golden_report(spec: ScenarioSpec, alpha: float, path: Path) -> None:
    """Pipeline report for the alpha-driven run, tubes from the reference linker."""
    stream, gt = generate(spec)
    cfg = LinkerConfig(alphas=alpha, **LINK_CFG)
    filtered = stream.__class__(video_id=stream.video_id)
    for t in stream.ordered_frames():
        for box in nms_frame(stream.boxes_at(t)):
            filtered.add(t, box)
    tubes, _ = oracle_link(filtered, spec.n_classes, cfg)
    rows = (
        (stream.video_id, t, box.class_id, box.confidence, box.geometry)
        for t in stream.ordered_frames()
        for box in stream.boxes_at(t)
    )
    report = evaluate(tubes, gt, frame_detections=rows)
    write_report_csv(str(path), report)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write-golden", action="store_true", help="refresh committed golden files")
    args = parser.parse_args()

    clean = load_spec("mechanism.json")
    noisy = load_spec("mechanism_noisy.json")

    numbers = {
        "clean_alpha1": mean_tiou(clean, 1.0),
        "clean_alpha0": mean_tiou(clean, 0.0),
        "noisy_alpha1": mean_tiou(noisy, 1.0),
        "noisy_alpha0": mean_tiou(noisy, 0.0),
    }
    print(f"{'scenario':<10}{'alpha=1':>10}{'alpha=0':>10}{'gap':>10}")
    for name in ("clean", "noisy"):
        a1, a0 = numbers[f"{name}_alpha1"], numbers[f"{name}_alpha0"]
        print(f"{name:<10}{a1:>10.4f}{a0:>10.4f}{a1 - a0:>+10.4f}")

    if args.write_golden:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        with open(GOLDEN_DIR / "mechanism_golden.json", "w", encoding="utf-8") as fh:
            json.dump(numbers, fh, indent=2)
            fh.write("\n")
        golden_report(clean, 1.0, GOLDEN_DIR / "golden_report.csv")
        print(f"golden files written under {GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
