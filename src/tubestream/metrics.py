"""Detection and tube evaluation: AP/mAP at frame and video level, temporal recovery.

Matching is the usual greedy one-to-one scheme: detections are visited in
order of decreasing score, each claims the not-yet-matched ground truth with
the highest overlap, and counts as a true positive when that overlap is
strictly above the threshold.  AP is the area under the all-point
interpolated precision-recall curve.  Classes absent from the ground truth
are excluded from every mean.

Each (detection, ground truth) overlap is computed once; one matcher,
:func:`average_precisions`, then matches every threshold on those overlaps
and integrates each curve in numpy, with no Python object per pair.

:func:`evaluate` is the one scoring path.  Every metric of its report
reads one tally of its inputs, each read once: the annotations first, kept
as four coordinates a box and numbered per class in input order; then the
tubes, each leaving its score and its overlaps above 0; then the frame
rows, ``(video_id, frame, class_id, score, box)`` in the detections
record's field order, each leaving its score and its overlaps above 0 with
the same-class annotations on its frame (computed a chunk of pairs at a
time in one array call).  So tubes and rows may stream straight from the
parser.  Without per-frame detections the rows are the tubes' boxes, each
scored with its tube's score.  Video-level thresholds are rounded to 2
decimals.  Detections of equal score rank in input order, so the first of
them is matched first and is the best by score.

Video mAP and temporal recovery compare a detected tube only with the
annotated tubes of its class and video.  Tube overlap multiplies the mean
per-frame spatial IoU over the temporal intersection with the temporal IoU
of the frame ranges; frames of the intersection where the detected tube has
no box count as spatial IoU 0.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import Box, box_iou, box_iou_array, temporal_iou
from .tubes import FinalTube, GroundTruthTube

VMAP_AVG_BAND = tuple(round(0.5 + 0.05 * i, 2) for i in range(10))
DEFAULT_TUBE_THRESHOLDS = tuple(sorted({0.1, 0.2, 0.3, 0.5, 0.75} | set(VMAP_AVG_BAND)))


def tube_iou(det: FinalTube, gt: GroundTruthTube) -> float:
    """Spatio-temporal overlap of a detected tube and an annotated tube."""
    t_lo = max(det.t_start, gt.t_start)
    t_hi = min(det.t_end, gt.t_end)
    if t_lo > t_hi:
        return 0.0
    # Entries are chronological: the sum runs in frame order.
    gt_boxes, g0 = gt.boxes, gt.t_start
    total = 0.0
    for f, bx in det.entries:
        if f > t_hi:
            break
        if f >= t_lo:
            total += box_iou(bx, gt_boxes[f - g0])
    spatial = total / (t_hi - t_lo + 1)
    return spatial * temporal_iou((det.t_start, det.t_end), (gt.t_start, gt.t_end))


def average_precisions(
    scores: Sequence[float],
    pairs: tuple[Sequence[int], Sequence[int], Sequence[float]],
    n_gt: int,
    thresholds: Sequence[float],
) -> list[float]:
    """AP of one class at each threshold, in the order of ``thresholds``.

    ``scores[i]`` is detection ``i``'s score.  ``pairs`` is three parallel
    sequences ``(det, gt, overlap)`` with one entry per ground truth a
    detection may match (those of its group: same video, or same video and
    frame); ``gt`` indexes the class's ``n_gt`` ground truths.  A pair left
    out has overlap 0, and an overlap of 0 never matches.  Ties in score keep
    input order; ties in overlap go to the lower ``gt``.
    """
    if n_gt == 0 or len(scores) == 0:
        return [0.0] * len(thresholds)
    det = np.asarray(pairs[0], dtype=np.intp)
    gt = np.asarray(pairs[1], dtype=np.intp)
    overlap = np.asarray(pairs[2], dtype=np.float64)
    keep = overlap > 0.0
    if not keep.all():
        det, gt, overlap = det[keep], gt[keep], overlap[keep]
    rank = np.empty(len(scores), dtype=np.intp)
    rank[np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")] = np.arange(len(scores))
    det_rank = rank[det]
    del rank, keep
    # Detections in rank order, each one's candidates best first: its greedy
    # pick is its first candidate not yet matched.
    by = np.lexsort((gt, -overlap, det_rank))
    columns = memoryview(det_rank[by]), memoryview(gt[by]), memoryview(overlap[by])  # no object per pair
    del det_rank, by
    aps = []
    for threshold in thresholds:
        matched = bytearray(n_gt)
        hits = array("q")  # the ranks of the true positives, ascending
        picked = -1
        for r, j, ov in zip(*columns):
            if r != picked and not matched[j]:
                picked = r
                if ov > threshold:
                    matched[j] = 1
                    hits.append(r)
        if not hits:
            aps.append(0.0)
            continue
        # Precision at each hit; past a hit it only falls until the next, so the
        # best precision from any rank on is the best at the hits from there on.
        precision = np.arange(1, len(hits) + 1) / (np.asarray(hits) + 1)
        best = np.maximum.accumulate(precision[::-1])[::-1]
        # cumsum adds in rank order; np.sum adds pairwise and can change the last bit.
        aps.append(float(np.cumsum(best / n_gt)[-1]))
    return aps


def _mean(values: Iterable[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0


# Pending (row, annotation) pairs a class gathers between two box-overlap calls.
_FLUSH_PAIRS = 1024


class _ClassTally:
    """What one annotated class keeps of an evaluation's inputs.

    Annotations are numbered in input order: annotation ``j`` of video ``v``
    is a ``(j, t_start, t_end, base)`` span of ``spans[v]``, and its frame
    ``f`` is box ``base + f`` of ``coords`` (four floats a box).  Each
    detected tube then leaves its score, its tube-IoU pairs above 0 and its
    temporal IoUs folded into the per-annotation bests; each frame row
    leaves its score and its box-IoU pairs above 0, gathered per row and
    reduced to overlaps a chunk at a time."""

    __slots__ = ("coords", "spans", "boxes", "tube_scores", "tube_pairs", "by_overlap", "top", "by_score",
                 "row_scores", "row_pairs", "pending")

    def __init__(self):
        self.coords, self.spans, self.boxes = array("d"), {}, None
        self.tube_scores, self.tube_pairs = array("d"), (array("q"), array("q"), array("d"))
        self.by_overlap: list[float] = []
        self.top: list[float | None] = []
        self.by_score: list[float] = []
        self.row_scores, self.row_pairs = array("d"), (array("q"), array("q"), array("d"))
        self.pending = array("q"), array("q"), array("d")  # row, box, the row's box coordinates

    def add_annotation(self, gt: GroundTruthTube) -> None:
        base = len(self.coords) // 4 - gt.t_start
        self.spans.setdefault(gt.video_id, []).append((len(self.by_overlap), gt.t_start, gt.t_end, base))
        for x1, y1, x2, y2 in gt.boxes:  # a box of other than four numbers fails here, not misaligned
            self.coords.extend((x1, y1, x2, y2))
        self.by_overlap.append(0.0)
        self.top.append(None)
        self.by_score.append(0.0)

    def annotation(self, video_id: str, class_id: int, t_start: int, t_end: int, base: int) -> GroundTruthTube:
        """An annotated tube rebuilt from its span, for ``tube_iou``."""
        flat = iter(self.coords[4 * (base + t_start) : 4 * (base + t_end + 1)])
        return GroundTruthTube(video_id, class_id, t_start, t_end, tuple(zip(flat, flat, flat, flat)))

    def add_tube(self, tube: FinalTube) -> None:
        i, score, det_range = len(self.tube_scores), tube.score, (tube.t_start, tube.t_end)
        det, gt, overlap = self.tube_pairs
        for j, t_start, t_end, base in self.spans.get(tube.video_id, ()):
            ov = tube_iou(tube, self.annotation(tube.video_id, tube.class_id, t_start, t_end, base))
            if ov > 0.0:
                det.append(i)
                gt.append(j)
                overlap.append(ov)
            tiou = temporal_iou(det_range, (t_start, t_end))
            self.by_overlap[j] = max(self.by_overlap[j], tiou)
            if self.top[j] is None or score > self.top[j]:
                self.top[j], self.by_score[j] = score, tiou
        self.tube_scores.append(score)

    def flush(self) -> None:
        """Reduce the pending (row, annotation) pairs to their overlaps, keeping those above 0."""
        det, gt, coords = self.pending
        if not det:
            return
        if self.boxes is None:
            self.boxes = np.frombuffer(self.coords).reshape(-1, 4)  # the annotations are all in
        overlap = box_iou_array(np.array(coords).reshape(-1, 4), self.boxes[np.array(gt, dtype=np.intp)])
        keep = overlap > 0.0
        for kept, column in zip((np.array(det)[keep], np.array(gt)[keep], overlap[keep]), self.row_pairs):
            column.frombytes(kept.tobytes())
        del det[:], gt[:], coords[:]


class _Tally:
    """One evaluation's inputs reduced to what its metrics read, class by
    class: the annotations are read in full first, then tubes and frame
    rows stream through and keep a score each and their overlaps above 0."""

    def __init__(self, gt_tubes: Iterable[GroundTruthTube]):
        self.classes: dict[int, _ClassTally] = {}
        for gt in gt_tubes:
            tally = self.classes.get(gt.class_id)
            if tally is None:
                tally = self.classes[gt.class_id] = _ClassTally()
            tally.add_annotation(gt)

    def add_tubes(self, tubes: Iterable[FinalTube], as_rows: bool = False) -> None:
        """Each tube in turn; with ``as_rows`` its retained boxes are also frame
        rows, each scored with the tube's score."""
        for tube in tubes:
            tally = self.classes.get(tube.class_id)
            if tally is not None:
                tally.add_tube(tube)
                if as_rows:
                    self.add_rows((tube.video_id, f, tube.class_id, tube.score, bx) for f, bx in tube.entries)

    def add_rows(self, rows: Iterable[tuple[str, int, int, float, Box]]) -> None:
        """Frame rows ``(video_id, frame, class_id, score, box)``, read once."""
        sinks = {c: (tally, tally.spans, tally.row_scores, *tally.pending) for c, tally in self.classes.items()}
        for video_id, frame, class_id, score, box in rows:
            sink = sinks.get(class_id)
            if sink is None:
                continue
            tally, spans, scores, det, gt, coords = sink
            for _, t_start, t_end, base in spans.get(video_id, ()):
                if t_start <= frame <= t_end:
                    x1, y1, x2, y2 = box
                    det.append(len(scores))
                    gt.append(base + frame)
                    coords.extend((x1, y1, x2, y2))
                    if len(det) == _FLUSH_PAIRS:
                        tally.flush()
            scores.append(score)


@dataclass
class EvalReport:
    """Full evaluation summary; ``rows`` flattens it for CSV export."""

    f_map: float
    f_ap: dict[int, float]
    v_map: dict[float, float]
    v_ap: dict[float, dict[int, float]]
    v_map_avg: float | None
    t_iou: dict[int, float]
    t_iou_by_score: dict[int, float]
    frame_threshold: float = 0.5

    def rows(self) -> list[tuple[str, str, str, float]]:
        out: list[tuple[str, str, str, float]] = [("f_map", "", _fmt_thr(self.frame_threshold), self.f_map)]
        out += [("f_ap", str(c), _fmt_thr(self.frame_threshold), v) for c, v in sorted(self.f_ap.items())]
        out += [("v_map", "", _fmt_thr(d), v) for d, v in sorted(self.v_map.items())]
        if self.v_map_avg is not None:
            out.append(("v_map_avg", "", "0.5:0.95", self.v_map_avg))
        for d in sorted(self.v_ap):
            out += [("v_ap", str(c), _fmt_thr(d), v) for c, v in sorted(self.v_ap[d].items())]
        out += [("avg_t_iou", str(c), "", v) for c, v in sorted(self.t_iou.items())]
        out += [("avg_t_iou_by_score", str(c), "", v) for c, v in sorted(self.t_iou_by_score.items())]
        return out

    def table(self) -> str:
        lines = [f"{'metric':<20}{'class':>6}{'threshold':>11}{'value':>13}"]
        for metric, cls, thr, value in self.rows():
            lines.append(f"{metric:<20}{cls:>6}{thr:>11}{value:>13.6f}")
        return "\n".join(lines)


def _fmt_thr(threshold: float) -> str:
    return format(threshold, "g")


def evaluate(
    tubes: Iterable[FinalTube],
    gt_tubes: Iterable[GroundTruthTube],
    frame_detections: Iterable[tuple[str, int, int, float, Box]] | None = None,
    tube_thresholds: Sequence[float] = DEFAULT_TUBE_THRESHOLDS,
    frame_threshold: float = 0.5,
) -> EvalReport:
    """Score a detection run against annotations: the library's one scoring path.

    Each input is read once, in this order: ``gt_tubes``, ``tubes``, then
    ``frame_detections``, ``(video_id, frame, class_id, score, box)`` rows;
    so each may be a stream.  Neither tubes nor rows are kept: each leaves
    its score and its overlaps above 0.  When no per-frame detections are
    supplied, frame-level AP is computed over the tubes' retained boxes,
    each scored with its tube's score.

    Frame-level AP pools every (video, frame) box of a class at
    ``frame_threshold``.  Video-level AP is matched at each of
    ``tube_thresholds``, rounded to 2 decimals; ``tube_iou`` runs once per
    same-class, same-video (tube, annotation) pair.  Temporal recovery is
    each annotated tube's temporal IoU with its best same-class detection in
    the same video, averaged per class under two readings of "best": highest
    temporal IoU (``t_iou``, the headline number) and highest score
    (``t_iou_by_score``; the first of equal scores wins).  An annotated tube
    with no detection counts 0.
    """
    tally = _Tally(gt_tubes)
    tally.add_tubes(tubes, as_rows=frame_detections is None)
    if frame_detections is not None:
        tally.add_rows(frame_detections)
    # Every row is in: the overlaps are all there is to match, so the annotated boxes go first.
    n_boxes = {}
    for class_id, c in tally.classes.items():
        c.flush()
        n_boxes[class_id] = len(c.coords) // 4
        c.coords = c.boxes = None
    thresholds = [round(d, 2) for d in tube_thresholds]
    f_ap: dict[int, float] = {}
    v_ap: dict[float, dict[int, float]] = {d: {} for d in thresholds}
    t_iou: dict[int, float] = {}
    t_iou_by_score: dict[int, float] = {}
    for class_id in sorted(tally.classes):
        c = tally.classes[class_id]
        f_ap[class_id] = average_precisions(c.row_scores, c.row_pairs, n_boxes[class_id], (frame_threshold,))[0]
        c.row_scores = c.row_pairs = None  # freed before the next class's rows are matched
        for d, ap in zip(thresholds, average_precisions(c.tube_scores, c.tube_pairs, len(c.by_overlap), thresholds)):
            v_ap[d][class_id] = ap
        t_iou[class_id], t_iou_by_score[class_id] = _mean(c.by_overlap), _mean(c.by_score)
    v_map = {d: _mean(aps.values()) for d, aps in v_ap.items()}
    if all(d in v_map for d in VMAP_AVG_BAND):
        v_map_avg = sum(v_map[d] for d in VMAP_AVG_BAND) / len(VMAP_AVG_BAND)
    else:
        v_map_avg = None
    return EvalReport(
        f_map=_mean(f_ap.values()),
        f_ap=f_ap,
        v_map=v_map,
        v_ap=v_ap,
        v_map_avg=v_map_avg,
        t_iou=t_iou,
        t_iou_by_score=t_iou_by_score,
        frame_threshold=frame_threshold,
    )
