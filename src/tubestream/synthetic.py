"""Seeded synthetic detection streams plus plain reference linkers.

The generator scripts action instances as linearly interpolated box tracks
and renders, per frame, noisy candidate boxes:

* inside a track: the trajectory box with geometry jitter, a confidence from
  the in-action score model, and a progress rate ramping with the fraction
  of the track elapsed (a repeating sawtooth for classes flagged periodic);
* in a context margin before and after a track: the nearest endpoint box
  with the out-of-action score model and a flat (optionally noisy) rate -
  the hard-negative regime where confidence alone cannot find the temporal
  boundary;
* anywhere: Poisson-distributed distractor boxes.

Everything is drawn from one seeded generator, so a (spec, seed) pair maps
to exactly one stream.

The reference linkers in this module re-implement online tube generation as
a direct frame-by-frame transcription over plain dicts, sharing no code with
:mod:`tubestream.linker`; they exist to differential-test it.
``score_only_link`` drops the rate machinery and labels purely by trailing
mean confidence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import json_settings
from .decode import MIN_BOX_SIZE, CandidateBox
from .geometry import Box, box_iou
from .linker import LinkerConfig, check_settings
from .tubes import DetectionStream, FinalTube, GroundTruthTube


@dataclass(frozen=True)
class TrackSpec:
    """One scripted action instance: a box sliding from start_box to end_box, checked by ``check_settings``."""

    class_id: int
    t_start: int
    t_end: int
    start_box: tuple[float, float, float, float]
    end_box: tuple[float, float, float, float]

    RANGES = dict.fromkeys(("start_box", "end_box"), "[0, 1]")  # as ``check_range`` reads them

    def __post_init__(self):
        check_settings(self)
        for key, box in (("start_box", self.start_box), ("end_box", self.end_box)):
            if not isinstance(box, (tuple, list)) or len(box) != 4:
                raise ValueError(f"{key} must be four numbers, got {box!r}")

    @property
    def length(self) -> int:
        return self.t_end - self.t_start + 1

    def box_at(self, frame: int) -> tuple[float, float, float, float]:
        if self.length == 1:
            return self.start_box
        u = (frame - self.t_start) / (self.length - 1)
        return tuple(a + u * (b - a) for a, b in zip(self.start_box, self.end_box))


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario, checked when built so that its streams are valid ``link`` and ``eval`` input."""

    n_frames: int
    n_classes: int
    tracks: tuple[TrackSpec, ...]
    geometry_jitter: float = 0.0
    rate_noise: float = 0.0
    in_score: tuple[float, float] = (0.7, 1.0)
    context_score: tuple[float, float] = (0.0, 0.3)
    context_fraction: float = 0.25
    context_rate: float = 0.0
    distractor_rate: float = 0.0
    distractor_score: tuple[float, float] = (0.0, 0.3)
    periodic: tuple[bool, ...] = ()
    sawtooth_period: int = 5
    seed: int = 0
    video_id: str = "synthetic"

    # Valid values of each numeric setting, in the text ``check_range`` reads.
    RANGES = {
        **dict.fromkeys(("n_frames", "n_classes", "sawtooth_period"), "[1, inf)"),
        **dict.fromkeys(("geometry_jitter", "rate_noise", "context_fraction", "distractor_rate", "seed"), "[0, inf)"),
        **dict.fromkeys(("in_score", "context_score", "context_rate", "distractor_score"), "[0, 1]"),
    }

    def __post_init__(self):
        check_settings(self)
        if not self.video_id or " " in self.video_id or not (self.video_id.isascii() and self.video_id.isprintable()):
            raise ValueError(f"video_id must be printable, without whitespace, and ASCII, got {self.video_id!r}")
        if self.periodic and len(self.periodic) != self.n_classes:
            raise ValueError("periodic flags must have one entry per class")
        for tr in self.tracks:
            if not 1 <= tr.t_start <= tr.t_end <= self.n_frames:
                raise ValueError(f"track range [{tr.t_start}, {tr.t_end}] outside [1, {self.n_frames}]")
            if not 0 <= tr.class_id < self.n_classes:
                raise ValueError(f"track class {tr.class_id} out of range")
            for key in ("start_box", "end_box"):
                box = getattr(tr, key)
                if min(box[2] - box[0], box[3] - box[1]) < MIN_BOX_SIZE:
                    raise ValueError(f"{key} {box} is narrower or lower than {MIN_BOX_SIZE:g}")
            for f in range(tr.t_start, tr.t_end):
                if box_iou(tr.box_at(f), tr.box_at(f + 1)) <= 0.5:
                    raise ValueError(f"track trajectory is discontinuous at frame {f}")

    def is_periodic(self, class_id: int) -> bool:
        return bool(self.periodic) and self.periodic[class_id]

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        """Build a spec from parsed JSON; an unknown key, a missing one or a
        value of the wrong JSON type fails, naming the key."""
        kwargs = json_settings(d, cls, "scenario")
        tracks = (  # a track that stays put may leave out end_box
            json_settings({**t, "end_box": t.get("end_box", t.get("start_box"))}, TrackSpec, "track")
            for t in kwargs["tracks"]
        )
        return cls(**{**kwargs, "tracks": tuple(TrackSpec(**t) for t in tracks)})


def _jitter_box(box, rng, sigma):
    x1, y1, x2, y2 = (float(np.clip(v + e, 0.0, 1.0)) for v, e in zip(box, rng.normal(0.0, sigma, 4)))
    # A side that collapsed (say, both ends clipped to 1) is reopened 1e-3 wide inside the square.
    if x2 - x1 < MIN_BOX_SIZE:
        x1 = min(x1, x2, 1.0 - 1e-3)
        x2 = min(1.0, x1 + 1e-3)
    if y2 - y1 < MIN_BOX_SIZE:
        y1 = min(y1, y2, 1.0 - 1e-3)
        y2 = min(1.0, y1 + 1e-3)
    return (x1, y1, x2, y2)


def track_rate(spec: ScenarioSpec, track: TrackSpec, frame: int) -> float:
    """Noise-free progress rate of a track at a covered frame."""
    k = frame - track.t_start + 1
    if spec.is_periodic(track.class_id):
        p = spec.sawtooth_period
        return ((k - 1) % p + 1) / p
    return k / track.length


def generate(spec: ScenarioSpec) -> tuple[DetectionStream, list[GroundTruthTube]]:
    """Render a scenario to a detection stream plus its ground-truth tubes."""
    rng = np.random.default_rng(spec.seed)
    stream = DetectionStream(video_id=spec.video_id, frames={t: [] for t in range(1, spec.n_frames + 1)})

    contexts = []
    for tr in spec.tracks:
        margin = round(spec.context_fraction * tr.length)
        contexts.append((max(1, tr.t_start - margin), min(spec.n_frames, tr.t_end + margin)))

    for t in range(1, spec.n_frames + 1):
        for tr, (c_lo, c_hi) in zip(spec.tracks, contexts):
            if tr.t_start <= t <= tr.t_end:
                box = _jitter_box(tr.box_at(t), rng, spec.geometry_jitter)
                rate = float(np.clip(track_rate(spec, tr, t) + rng.normal(0.0, spec.rate_noise), 0.0, 1.0))
                score = float(rng.uniform(*spec.in_score))
            elif c_lo <= t <= c_hi:
                anchor = tr.box_at(tr.t_start if t < tr.t_start else tr.t_end)
                box = _jitter_box(anchor, rng, spec.geometry_jitter)
                # Out-of-action frames report an exactly flat resting rate;
                # rate_noise models ramp fidelity inside the action only.
                rate = float(np.clip(spec.context_rate, 0.0, 1.0))
                score = float(rng.uniform(*spec.context_score))
            else:
                continue
            stream.add(t, CandidateBox(tr.class_id, box, score, rate))
        for _ in range(int(rng.poisson(spec.distractor_rate))):
            cx, cy = rng.uniform(0.0, 1.0, 2)
            w, h = rng.uniform(0.05, 0.3, 2)
            box = (
                float(max(0.0, cx - w / 2)),
                float(max(0.0, cy - h / 2)),
                float(min(1.0, cx + w / 2)),
                float(min(1.0, cy + h / 2)),
            )
            stream.add(
                t,
                CandidateBox(
                    int(rng.integers(0, spec.n_classes)),
                    box,
                    float(rng.uniform(*spec.distractor_score)),
                    float(rng.uniform(0.0, 1.0)),
                ),
            )
    gt = [
        GroundTruthTube(
            video_id=spec.video_id,
            class_id=tr.class_id,
            t_start=tr.t_start,
            t_end=tr.t_end,
            boxes=tuple(tr.box_at(f) for f in range(tr.t_start, tr.t_end + 1)),
        )
        for tr in spec.tracks
    ]
    return stream, gt


# ---------------------------------------------------------------------------
# Reference linkers (differential oracles).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkAudit:
    """Full pre-trim state of a tube at its terminal event, as the reference linker
    and ``AuditedLinker`` in ``tests/helpers.py`` log it (for differential tests)."""

    class_id: int
    seq: int
    t_start: int
    frames: tuple[int, ...]
    boxes: tuple[Box, ...]
    scores: tuple[float, ...]
    rates: tuple[float, ...]
    labels: tuple[int, ...]
    avg_score: float
    outcome: str  # "emitted" | "empty" | "pruned"


def _iou(a, b):
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def _label_with_accumulators(tube: dict, alpha: float, window: int) -> None:
    """Transcription of the temporal-labeling procedure for one new box."""
    t = tube["frames"][-1]
    tube["labels"].append(tube["labels"][-1])
    if tube["rates"][-1] > tube["rates"][-2]:
        tube["n_up"] = min(window, tube["n_up"] + 1)
        tube["n_down"] = max(0, tube["n_down"] - 1)
    else:
        tube["n_down"] = min(window, tube["n_down"] + 1)
        tube["n_up"] = max(0, tube["n_up"] - 1)
    idx = [i for i, f in enumerate(tube["frames"]) if f >= t - window + 1]
    if tube["n_up"] == window:
        for i in idx:
            tube["labels"][i] = 1
    elif tube["n_down"] == window:
        for i in idx:
            tube["labels"][i] = 0
    elif sum(tube["scores"][i] for i in idx) / len(idx) > alpha:
        for i in idx:
            tube["labels"][i] = 1


def _label_by_score_only(tube: dict, alpha: float, window: int) -> None:
    """Trailing-confidence labeling with the rate machinery removed."""
    t = tube["frames"][-1]
    tube["labels"].append(tube["labels"][-1])
    idx = [i for i, f in enumerate(tube["frames"]) if f >= t - window + 1]
    if sum(tube["scores"][i] for i in idx) / len(idx) > alpha:
        for i in idx:
            tube["labels"][i] = 1


def _reference_link(stream, n_classes, config, labeler, collect_audit):
    cfg = config
    lanes = {c: [] for c in range(n_classes)}
    results = []
    audits = []
    seq = 0

    def new_tube(class_id, t, box):
        nonlocal seq
        tube = {
            "class_id": class_id,
            "seq": seq,
            "frames": [t],
            "boxes": [box.geometry],
            "scores": [box.confidence],
            "rates": [box.rate],
            "labels": [0],
            "n_up": 0,
            "n_down": 0,
            "t_last": t,
        }
        seq += 1
        return tube

    def audit(tube, outcome):
        if collect_audit:
            audits.append(
                LinkAudit(
                    class_id=tube["class_id"],
                    seq=tube["seq"],
                    t_start=tube["frames"][0],
                    frames=tuple(tube["frames"]),
                    boxes=tuple(tube["boxes"]),
                    scores=tuple(tube["scores"]),
                    rates=tuple(tube["rates"]),
                    labels=tuple(tube["labels"]),
                    avg_score=sum(tube["scores"]) / len(tube["scores"]),
                    outcome=outcome,
                )
            )

    def emit(tube):
        ones = [i for i, l in enumerate(tube["labels"]) if l == 1]
        if not ones:
            audit(tube, "empty")
            return
        audit(tube, "emitted")
        kept = [(tube["frames"][i], tube["boxes"][i]) for i in ones]
        results.append(
            FinalTube(
                video_id=stream.video_id,
                class_id=tube["class_id"],
                t_start=kept[0][0],
                t_end=kept[-1][0],
                score=sum(tube["scores"][i] for i in ones) / len(ones),
                entries=tuple(kept),
            )
        )

    frames = stream.ordered_frames()
    for fi, t in enumerate(frames):
        for class_id in range(n_classes):
            boxes = [b for b in stream.boxes_at(t) if b.class_id == class_id]
            lane = lanes[class_id]
            if fi == 0:
                best = sorted(
                    (b for b in boxes if b.confidence > cfg.score_floor), key=lambda b: -b.confidence
                )
                for b in best[: cfg.max_tubes]:
                    lane.append(new_tube(class_id, t, b))
                continue

            lane.sort(key=lambda tb: (-sum(tb["scores"]) / len(tb["scores"]), tb["frames"][0], tb["seq"]))
            for tb in lane[cfg.max_tubes :]:
                audit(tb, "pruned")
            del lane[cfg.max_tubes :]

            keep = []
            for tb in lane:
                linked = None
                for i, b in enumerate(boxes):
                    if _iou(b.geometry, tb["boxes"][-1]) > cfg.iou_gate:
                        if linked is None or b.confidence > boxes[linked].confidence:
                            linked = i
                if linked is not None:
                    b = boxes.pop(linked)
                    tb["frames"].append(t)
                    tb["boxes"].append(b.geometry)
                    tb["scores"].append(b.confidence)
                    tb["rates"].append(b.rate)
                    tb["t_last"] = t
                    labeler(tb, cfg.alpha_for(class_id), cfg.window)
                if t - tb["t_last"] >= cfg.window:
                    emit(tb)
                else:
                    keep.append(tb)
            lanes[class_id] = lane = keep
            for b in boxes:
                if b.confidence > cfg.score_floor:
                    lane.append(new_tube(class_id, t, b))

    for class_id in range(n_classes):
        for tb in sorted(lanes[class_id], key=lambda tb: (tb["frames"][0], tb["seq"])):
            emit(tb)
    return results, audits


def oracle_link(
    stream: DetectionStream,
    n_classes: int,
    config: LinkerConfig | None = None,
    collect_audit: bool = False,
) -> tuple[list[FinalTube], list[LinkAudit]]:
    """Reference tube generation; must agree with :class:`~tubestream.linker.OnlineLinker`."""
    return _reference_link(stream, n_classes, config or LinkerConfig(), _label_with_accumulators, collect_audit)


def score_only_link(
    stream: DetectionStream,
    n_classes: int,
    config: LinkerConfig | None = None,
) -> list[FinalTube]:
    """Reference linker whose labeling ignores progress rates entirely."""
    results, _ = _reference_link(stream, n_classes, config or LinkerConfig(), _label_by_score_only, False)
    return results


def chain_stream_frames(n_frames: int, video_id: str = "chain"):
    """Procedural single-class stream for load tests: one confident box per
    frame forming an unbroken chain (slow drift, sawtooth rates), so one tube
    survives the whole stream and its storage gets stressed.  Pure arithmetic,
    no RNG, so generation keeps up with any consumer."""
    from math import cos, sin

    period = 25
    for t in range(1, n_frames + 1):
        phase = t * 0.002
        cx = 0.5 + 0.2 * sin(phase)
        cy = 0.5 + 0.2 * cos(phase)
        rate = ((t - 1) % period + 1) / period
        score = 0.8 + 0.1 * sin(t * 0.05)
        yield t, [CandidateBox(0, (cx - 0.1, cy - 0.1, cx + 0.1, cy + 0.1), score, rate)]
