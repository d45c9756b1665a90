"""Detection and tube evaluation: AP/mAP at frame and video level, temporal recovery.

Matching is the usual greedy one-to-one scheme: detections are visited in
order of decreasing score, each claims the not-yet-matched ground truth with
the highest overlap, and counts as a true positive when that overlap is
strictly above the threshold.  AP is the area under the all-point
interpolated precision-recall curve.  Classes absent from the ground truth
are excluded from every mean.

Each (detection, ground truth) overlap is computed once; one matcher,
:func:`average_precisions`, then matches every threshold on those overlaps
and integrates each curve in numpy, with no Python list per row.

Frame-level scoring reads one row shape, ``(video_id, frame, class_id,
score, box)`` in the detections record's field order, once and in order,
so a file's rows can stream straight from the parser.  It keeps no row: a
row leaves its score, and for each same-class annotation on its frame a
(row, annotation) index pair and its box, in flat arrays per class; each
class's overlaps are then computed in one array call.  Without per-frame
detections the rows are the tubes' boxes, each scored with its tube's score.

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
    rank = np.empty(len(scores), dtype=np.intp)
    rank[np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")] = np.arange(len(scores))
    keep = overlap > 0.0
    det_rank, gt, overlap = rank[det[keep]], gt[keep], overlap[keep]
    # Detections in rank order, each one's candidates best first: its greedy
    # pick is its first candidate not yet matched.
    by = np.lexsort((gt, -overlap, det_rank))
    columns = det_rank[by].tolist(), gt[by].tolist(), overlap[by].tolist()
    ranks = np.arange(1, len(scores) + 1)
    aps = []
    for threshold in thresholds:
        matched = bytearray(n_gt)
        tp = np.zeros(len(scores), dtype=bool)  # by rank
        picked = -1
        for r, j, ov in zip(*columns):
            if r != picked and not matched[j]:
                picked = r
                tp[r] = matched[j] = ov > threshold
        best = np.maximum.accumulate((np.cumsum(tp) / ranks)[::-1])[::-1]
        # cumsum adds in rank order; np.sum adds pairwise and can change the last bit.
        aps.append(float(np.cumsum(best[tp] / n_gt)[-1]) if tp.any() else 0.0)
    return aps


def _mean(values: Iterable[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0


def frame_map(
    detections: Iterable[tuple[str, int, int, float, Box]],
    gt_tubes: Sequence[GroundTruthTube],
    threshold: float = 0.5,
) -> tuple[float, dict[int, float]]:
    """Frame-level mAP: per-class AP over all (video, frame) pooled boxes.

    ``detections`` holds ``(video_id, frame, class_id, score, box)`` rows, the
    detections record's field order; it is read once, so it may be a stream.
    Rows are not kept: each leaves its score, and for each annotation on its
    frame a (row, annotation) index pair and its box."""
    # A class's annotated boxes are numbered in gt_tubes order; each of its
    # tubes is a (t_start, t_end, base) span of its video, frame f of which is
    # box base + f.
    gt_boxes: dict[int, list[Box]] = {}
    spans: dict[int, dict[str, list[tuple[int, int, int]]]] = {}
    for t in gt_tubes:
        boxes = gt_boxes.setdefault(t.class_id, [])
        spans.setdefault(t.class_id, {}).setdefault(t.video_id, []).append((t.t_start, t.t_end, len(boxes) - t.t_start))
        boxes.extend(t.boxes)
    # Per class: each row's score, and per (row, annotation) pair the row's
    # index within the class, the annotation's and the row's box.
    by_class = {c: (array("d"), array("q"), array("q"), array("d"), spans[c]) for c in spans}
    for video_id, frame, class_id, score, box in detections:
        acc = by_class.get(class_id)
        if acc is None:
            continue
        scores, det, gt, coords, video_spans = acc
        for t_start, t_end, base in video_spans.get(video_id, ()):
            if t_start <= frame <= t_end:
                x1, y1, x2, y2 = box
                det.append(len(scores))
                gt.append(base + frame)
                coords.extend((x1, y1, x2, y2))
        scores.append(score)
    per_class: dict[int, float] = {}
    for class_id in sorted(by_class):
        scores, det, gt, coords, _ = by_class.pop(class_id)
        gt_array = np.array(gt_boxes.pop(class_id), dtype=np.float64)
        overlap = box_iou_array(np.asarray(coords).reshape(-1, 4), gt_array[np.asarray(gt)])
        per_class[class_id] = average_precisions(scores, (det, gt, overlap), len(gt_array), (threshold,))[0]
    return _mean(per_class.values()), per_class


def video_map(
    tubes: Sequence[FinalTube],
    gt_tubes: Sequence[GroundTruthTube],
    thresholds: Sequence[float] = DEFAULT_TUBE_THRESHOLDS,
) -> tuple[dict[float, float], dict[float, dict[int, float]]]:
    """Video-level mAP at each tube-overlap threshold (rounded to 2 decimals).

    ``tube_iou`` runs once per same-class, same-video (detection, annotation)
    pair; every threshold is matched on those overlaps."""
    thresholds = [round(d, 2) for d in thresholds]
    per_class: dict[float, dict[int, float]] = {d: {} for d in thresholds}
    for class_id in sorted({t.class_id for t in gt_tubes}):
        dets, gts, (det, gt) = _same_video_pairs(tubes, gt_tubes, class_id)
        overlap = [tube_iou(dets[i], gts[j]) for i, j in zip(det, gt)]
        aps = average_precisions([d.score for d in dets], (det, gt, overlap), len(gts), thresholds)
        for threshold, ap in zip(thresholds, aps):
            per_class[threshold][class_id] = ap
    v_map = {d: _mean(aps.values()) for d, aps in per_class.items()}
    return v_map, per_class


def average_temporal_iou(
    tubes: Sequence[FinalTube],
    gt_tubes: Sequence[GroundTruthTube],
) -> tuple[dict[int, float], dict[int, float]]:
    """Per-class mean temporal IoU between each annotated tube and its best
    same-class detection in the same video.

    Returned twice under two readings of "best": highest temporal IoU
    (first dict, the headline number) and highest detection score (second;
    the first of equal scores wins).  Annotated tubes with no detection
    contribute 0.
    """
    best_overlap: dict[int, float] = {}
    best_score: dict[int, float] = {}
    for class_id in sorted({t.class_id for t in gt_tubes}):
        dets, gts, (det, gt) = _same_video_pairs(tubes, gt_tubes, class_id)
        by_overlap, by_score, top = [0.0] * len(gts), [0.0] * len(gts), [None] * len(gts)
        for i, j in zip(det, gt):
            d, g = dets[i], gts[j]
            tiou = temporal_iou((d.t_start, d.t_end), (g.t_start, g.t_end))
            by_overlap[j] = max(by_overlap[j], tiou)
            if top[j] is None or d.score > top[j]:
                top[j], by_score[j] = d.score, tiou
        best_overlap[class_id] = _mean(by_overlap)
        best_score[class_id] = _mean(by_score)
    return best_overlap, best_score


def _same_video_pairs(tubes: Sequence[FinalTube], gt_tubes: Sequence[GroundTruthTube], class_id: int):
    """One class's detected and annotated tubes, each in input order, and the
    index lists of its same-video (detection, annotation) pairs, detections ascending."""
    dets = [t for t in tubes if t.class_id == class_id]
    gts = [g for g in gt_tubes if g.class_id == class_id]
    gt_by_video: dict[str, list[int]] = {}
    for j, g in enumerate(gts):
        gt_by_video.setdefault(g.video_id, []).append(j)
    same = [gt_by_video.get(d.video_id, ()) for d in dets]
    return dets, gts, ([i for i, js in enumerate(same) for _ in js], [j for js in same for j in js])


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
    tubes: Sequence[FinalTube],
    gt_tubes: Sequence[GroundTruthTube],
    frame_detections: Iterable[tuple[str, int, int, float, Box]] | None = None,
    tube_thresholds: Sequence[float] = DEFAULT_TUBE_THRESHOLDS,
    frame_threshold: float = 0.5,
) -> EvalReport:
    """Score a detection run against annotations.

    When no per-frame detections are supplied, frame-level AP is computed
    over the tubes' retained boxes, each scored with its tube's score.
    """
    if frame_detections is None:
        frame_detections = ((t.video_id, f, t.class_id, t.score, bx) for t in tubes for f, bx in t.entries)
    f_map_val, f_ap = frame_map(frame_detections, gt_tubes, frame_threshold)
    v_map_val, v_ap = video_map(tubes, gt_tubes, tube_thresholds)
    if all(d in v_map_val for d in VMAP_AVG_BAND):
        v_map_avg = sum(v_map_val[d] for d in VMAP_AVG_BAND) / len(VMAP_AVG_BAND)
    else:
        v_map_avg = None
    t_iou, t_iou_by_score = average_temporal_iou(tubes, gt_tubes)
    return EvalReport(
        f_map=f_map_val,
        f_ap=f_ap,
        v_map=v_map_val,
        v_ap=v_ap,
        v_map_avg=v_map_avg,
        t_iou=t_iou,
        t_iou_by_score=t_iou_by_score,
        frame_threshold=frame_threshold,
    )
