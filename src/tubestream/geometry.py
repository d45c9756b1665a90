"""Axis-aligned box overlap and frame-range overlap primitives.

Boxes are ``(x_min, y_min, x_max, y_max)`` tuples, frame ranges are inclusive
``(start, end)`` integer pairs.  Everything downstream (decoder, linker,
scorer) shares these two definitions so there is exactly one notion of
overlap in the codebase; ``box_iou_array`` and ``box_area_array`` are ``box_iou``
and ``box_area`` over arrays.  ``box_area`` and ``box_iou`` spell ``min`` and
``max`` as conditional expressions, exactly: ``max(0.0, w)`` is ``w if w > 0.0
else 0.0``, ``min(x, y)`` is ``y if y < x else x`` and ``max(x, y)`` is ``y if y
> x else x``, NaN and -0.0 included.
"""

from __future__ import annotations

import numpy as np

Box = tuple[float, float, float, float]


def box_area(box: Box) -> float:
    w = box[2] - box[0]
    h = box[3] - box[1]
    return (w if w > 0.0 else 0.0) * (h if h > 0.0 else 0.0)


def box_iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes, in [0, 1]."""
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    ix = (bx2 if bx2 < ax2 else ax2) - (bx1 if bx1 > ax1 else ax1)
    if ix <= 0.0:
        return 0.0
    iy = (by2 if by2 < ay2 else ay2) - (by1 if by1 > ay1 else ay1)
    if iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = box_area(a) + box_area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def box_iou_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``box_iou`` elementwise over two broadcastable ``(..., 4)`` arrays of
    finite boxes, with the same float64 operations in the same order."""
    ix = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    iy = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    inter = ix * iy
    union = box_area_array(a) + box_area_array(b) - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((ix > 0.0) & (iy > 0.0) & (union > 0.0), inter / union, 0.0)


def box_area_array(boxes: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, boxes[..., 2] - boxes[..., 0]) * np.maximum(0.0, boxes[..., 3] - boxes[..., 1])


def shape_iou(wh_a: tuple[float, float], wh_b: tuple[float, float]) -> float:
    """IoU of two boxes of the given sizes sharing a common center."""
    inter = min(wh_a[0], wh_b[0]) * min(wh_a[1], wh_b[1])
    union = wh_a[0] * wh_a[1] + wh_b[0] * wh_b[1] - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def temporal_iou(range_a: tuple[int, int], range_b: tuple[int, int]) -> float:
    """IoU of two inclusive frame ranges, counted in whole frames."""
    inter = min(range_a[1], range_b[1]) - max(range_a[0], range_b[0]) + 1
    if inter <= 0:
        return 0.0
    union = (range_a[1] - range_a[0] + 1) + (range_b[1] - range_b[0] + 1) - inter
    return inter / union
