"""The evaluation code as it stood before overlaps were computed once per
pair: the greedy match reruns per threshold and recomputes every overlap.

Kept verbatim as the differential oracle for ``tubestream.metrics``; only
its imports changed.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Sequence

from tubestream.decode import CandidateBox
from tubestream.geometry import box_iou, temporal_iou
from tubestream.metrics import DEFAULT_TUBE_THRESHOLDS, VMAP_AVG_BAND, EvalReport, tube_iou
from tubestream.tubes import FinalTube, GroundTruthTube


def average_precision(
    detections: Sequence[tuple[float, Hashable, object]],
    ground_truths: Sequence[tuple[Hashable, object]],
    overlap: Callable[[object, object], float],
    threshold: float,
) -> float:
    """AP of one class.

    ``detections`` are (score, group, item) triples and ``ground_truths``
    are (group, item) pairs; a detection can only match ground truth in the
    same group (same video, or same video+frame).  Ties in score keep input
    order; ties in overlap go to the earlier ground-truth entry.
    """
    n_gt = len(ground_truths)
    if n_gt == 0 or not detections:
        return 0.0
    by_group: dict[Hashable, list[list]] = {}
    for group, item in ground_truths:
        by_group.setdefault(group, []).append([item, False])

    ordered = sorted(detections, key=lambda d: -d[0])
    tp_flags = []
    for score, group, item in ordered:
        best = None
        best_ov = 0.0
        for slot in by_group.get(group, []):
            if slot[1]:
                continue
            ov = overlap(item, slot[0])
            if ov > best_ov:
                best_ov = ov
                best = slot
        if best is not None and best_ov > threshold:
            best[1] = True
            tp_flags.append(True)
        else:
            tp_flags.append(False)

    # Area under the all-point interpolated precision-recall curve.
    ap = 0.0
    best_precision_from = [0.0] * (len(tp_flags) + 1)
    n_tp_total = sum(tp_flags)
    running_tp = n_tp_total
    for k in range(len(tp_flags) - 1, -1, -1):
        precision = running_tp / (k + 1)
        best_precision_from[k] = max(best_precision_from[k + 1], precision)
        if tp_flags[k]:
            running_tp -= 1
    for k, flag in enumerate(tp_flags):
        if flag:
            ap += best_precision_from[k] / n_gt
    return ap


def _mean(values: Iterable[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0


FrameDetection = tuple[str, int, CandidateBox]


def frame_map(
    detections: Sequence[FrameDetection],
    gt_tubes: Sequence[GroundTruthTube],
    threshold: float = 0.5,
) -> tuple[float, dict[int, float]]:
    """Frame-level mAP: per-class AP over all (video, frame) pooled boxes."""
    classes = sorted({t.class_id for t in gt_tubes})
    per_class: dict[int, float] = {}
    for class_id in classes:
        dets = [
            (bx.confidence, (vid, f), bx.geometry)
            for vid, f, bx in detections
            if bx.class_id == class_id
        ]
        gts = [
            ((t.video_id, f), t.box_at(f))
            for t in gt_tubes
            if t.class_id == class_id
            for f in range(t.t_start, t.t_end + 1)
        ]
        per_class[class_id] = average_precision(dets, gts, box_iou, threshold)
    return _mean(per_class.values()), per_class


def video_map(
    tubes: Sequence[FinalTube],
    gt_tubes: Sequence[GroundTruthTube],
    thresholds: Sequence[float] = DEFAULT_TUBE_THRESHOLDS,
) -> tuple[dict[float, float], dict[float, dict[int, float]]]:
    """Video-level mAP at each tube-overlap threshold."""
    classes = sorted({t.class_id for t in gt_tubes})
    v_map: dict[float, float] = {}
    per_class: dict[float, dict[int, float]] = {}
    for threshold in thresholds:
        threshold = round(threshold, 2)
        aps = {}
        for class_id in classes:
            dets = [(t.score, t.video_id, t) for t in tubes if t.class_id == class_id]
            gts = [(t.video_id, t) for t in gt_tubes if t.class_id == class_id]
            aps[class_id] = average_precision(dets, gts, tube_iou, threshold)
        per_class[threshold] = aps
        v_map[threshold] = _mean(aps.values())
    return v_map, per_class


def average_temporal_iou(
    tubes: Sequence[FinalTube],
    gt_tubes: Sequence[GroundTruthTube],
) -> tuple[dict[int, float], dict[int, float]]:
    """Per-class mean temporal IoU between each annotated tube and its best
    same-class detection in the same video.

    Returned twice under two readings of "best": highest temporal IoU
    (first dict, the headline number) and highest detection score (second).
    Annotated tubes with no detection contribute 0.
    """
    classes = sorted({t.class_id for t in gt_tubes})
    best_overlap: dict[int, float] = {}
    best_score: dict[int, float] = {}
    for class_id in classes:
        ov_vals, sc_vals = [], []
        for gt in (t for t in gt_tubes if t.class_id == class_id):
            same = [
                t for t in tubes if t.class_id == class_id and t.video_id == gt.video_id
            ]
            tious = [temporal_iou((t.t_start, t.t_end), (gt.t_start, gt.t_end)) for t in same]
            ov_vals.append(max(tious, default=0.0))
            if same:
                top = max(range(len(same)), key=lambda i: same[i].score)
                sc_vals.append(tious[top])
            else:
                sc_vals.append(0.0)
        best_overlap[class_id] = _mean(ov_vals)
        best_score[class_id] = _mean(sc_vals)
    return best_overlap, best_score


def evaluate(
    tubes: Sequence[FinalTube],
    gt_tubes: Sequence[GroundTruthTube],
    frame_detections: Sequence[FrameDetection] | None = None,
    tube_thresholds: Sequence[float] = DEFAULT_TUBE_THRESHOLDS,
    frame_threshold: float = 0.5,
) -> EvalReport:
    """Score a detection run against annotations.

    When no per-frame detections are supplied, frame-level AP is computed
    over the tubes' retained boxes, each scored with its tube's score.
    """
    if frame_detections is None:
        frame_detections = [
            (t.video_id, f, CandidateBox(t.class_id, bx, t.score, 0.0))
            for t in tubes
            for f, bx in t.entries
        ]
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
