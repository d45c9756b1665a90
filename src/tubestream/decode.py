"""Decode raw per-frame detection grids into scored candidate boxes.

The detector emits, per frame, an ``S x S x B x (5 + 3C)`` tensor of raw
logits: for every grid cell and anchor there are four box offsets, an
actionness logit, and three per-class blocks (classification, progression,
progress rate).  This module activates those logits, applies the anchor
decode (sigmoid center offsets inside the owning cell, exponential sizes on
the anchor prior), composes per-class confidences as
``actionness * class_score * progression``, and reduces the result to
per-class candidate lists via thresholding and greedy NMS.  Activations are the
sigmoid ``1 / (1 + exp(-x))`` and the softmax ``exp(x - max(x))`` normalised over
classes.  An overflowing ``exp`` gives the limit: sigmoid 0.0 below a logit of about
-709, class score 0.0 where ``x - max(x)`` overflows, and a box clipped to [0, 1].

Threshold + NMS has one implementation, ``nms_indices``: it takes parallel
sequences or arrays of class ids, confidences and geometry ids into a box table and
returns the indices it keeps.  Decode passes a threshold mask's (slot, class) pairs as
arrays, slots as ids, and returns the survivors as columns for ``DetectionWriter.write_frame``,
building no object per survivor; ``link`` passes the columns of each frame that
``records.iter_detection_frames`` reads, its rows' box ids pointing into the frame's table of
distinct box texts, and builds a ``CandidateBox`` only for each row kept.  ``nms_frame`` runs
it on a list of boxes.  Large classes share one mirrored overlap matrix of bitmask rows.

Attribute layout along the last tensor axis, sliced only by ``split_attributes``::

    [x, y, w, h, actionness, class_0..C-1, progression_0..C-1, rate_0..C-1]
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Box, box_iou

ATTR_X, ATTR_Y, ATTR_W, ATTR_H, ATTR_ACT = range(5)

# Per-class lists up to this length go through the scalar greedy loop: on a
# handful of boxes numpy's per-call cost exceeds the whole greedy loop.  The
# matrix path overtakes it at about 10 boxes that rarely overlap and at about
# 20 boxes that all overlap one another.
SMALL_NMS = 16
# Rows of the overlap matrix computed at once, bounding the float temporaries.
OVERLAP_BLOCK = 64
# Smallest box width and height a candidate may have.  Records write
# coordinates with 9 significant digits, which moves a coordinate in [0, 1]
# by at most 5e-10, so a box at least this wide and high stays
# non-degenerate in the file.
MIN_BOX_SIZE = 1e-8
# Floor on a decoded box's half width and half height.  It is many ulps of
# any coordinate in [0, 1], so every slot keeps a positive extent after
# rounding and clipping, and far below ``MIN_BOX_SIZE``, so a floored slot is
# still dropped as a candidate.
MIN_HALF_SIZE = 1e-15


def attr_width(n_classes: int) -> int:
    return 5 + 3 * n_classes


def split_attributes(tensor: np.ndarray, n_classes: int):
    """Views of the blocks of the last axis, in layout order: box ``(x, y, w, h)``,
    actionness (that axis dropped), class scores, progression and rates.  The one
    place the layout is sliced; writing through a view writes ``tensor``."""
    c = n_classes
    box, act = tensor[..., ATTR_X : ATTR_H + 1], tensor[..., ATTR_ACT]
    return box, act, tensor[..., 5 : 5 + c], tensor[..., 5 + c : 5 + 2 * c], tensor[..., 5 + 2 * c : 5 + 3 * c]


@dataclass(frozen=True)
class AnchorSet:
    """Anchor box priors, (width, height) pairs in grid-cell units."""

    sizes: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.sizes:
            raise ValueError("anchor set must contain at least one anchor")
        for w, h in self.sizes:
            if not (math.isfinite(w) and math.isfinite(h) and w > 0 and h > 0):
                raise ValueError(f"anchor sizes must be finite and positive, got ({w}, {h})")

    def __len__(self) -> int:
        return len(self.sizes)


@dataclass(frozen=True)
class RawGrid:
    """One frame's raw (pre-activation) detection tensor.

    ``values`` is indexed ``[cell_y][cell_x][anchor][attribute]`` and must be
    finite.
    """

    s_cells: int
    n_anchors: int
    n_classes: int
    values: np.ndarray

    def __post_init__(self):
        if self.s_cells < 1 or self.n_anchors < 1 or self.n_classes < 1:
            raise ValueError("grid dimensions must all be >= 1")
        expected = (self.s_cells, self.s_cells, self.n_anchors, attr_width(self.n_classes))
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.size != np.prod(expected):
            raise ValueError(f"grid values have {arr.size} elements, expected {np.prod(expected)} for shape {expected}")
        if not np.isfinite(arr).all():
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "values", arr.reshape(expected))


@dataclass(frozen=True, eq=False)
class DecodedGrid:
    """Every (cell, anchor) slot of one frame, activated and decoded.

    All arrays are indexed ``[cell_y, cell_x, anchor]``.  ``geometry`` holds
    ``(x_min, y_min, x_max, y_max)`` on the last axis; the per-class arrays
    have ``C`` entries there.  ``class_scores`` sums to one over the classes;
    ``progression`` and ``rates`` are independent per-class probabilities.
    """

    geometry: np.ndarray  # (S, S, B, 4)
    actionness: np.ndarray  # (S, S, B)
    class_scores: np.ndarray  # (S, S, B, C)
    progression: np.ndarray  # (S, S, B, C)
    rates: np.ndarray  # (S, S, B, C)
    confidence: np.ndarray  # (S, S, B, C): actionness * class_scores * progression


@dataclass(slots=True, unsafe_hash=True)
class CandidateBox:
    """A per-class scored detection ready for linking.  Slotted, as decode and
    records build one per row; compared and hashed by value, so immutable by
    convention."""

    class_id: int
    geometry: Box
    confidence: float
    rate: float


def decode_grid(raw: RawGrid, anchors: AnchorSet) -> DecodedGrid:
    """Activate a raw grid and decode every (cell, anchor) slot to a box.

    Pure function: on one host, identical inputs produce bit-identical outputs;
    numpy picks its ``exp`` routine by CPU features, so another CPU may round an
    activation 1 ulp differently.  Geometry is clamped to the unit square and every
    box has a positive width and height.  A very negative size logit makes a box
    narrower than ``MIN_BOX_SIZE``; ``select_candidates`` drops such slots.
    """
    if len(anchors) != raw.n_anchors:
        raise ValueError(f"anchor set has {len(anchors)} entries, grid declares {raw.n_anchors}")
    s = raw.s_cells
    box, act, cls, prog, rate = split_attributes(raw.values, raw.n_classes)

    prior = np.asarray(anchors.sizes, dtype=np.float64)  # (B, 2)
    with np.errstate(over="ignore"):  # inf gives each limit; see the module docstring
        sig_xy, act, prog, rate = (1.0 / (1.0 + np.exp(-x)) for x in (box[..., :2], act, prog, rate))
        cls = np.exp(cls - cls.max(axis=-1, keepdims=True))
        cls /= cls.sum(axis=-1, keepdims=True)
        half = prior * np.exp(box[..., 2:]) / s / 2.0  # (S, S, B, 2)
    np.maximum(half, MIN_HALF_SIZE, out=half)

    grid_x = np.arange(s, dtype=np.float64)[None, :, None]
    grid_y = np.arange(s, dtype=np.float64)[:, None, None]
    center = np.stack(((grid_x + sig_xy[..., 0]) / s, (grid_y + sig_xy[..., 1]) / s), axis=-1)
    geometry = np.clip(np.concatenate((center - half, center + half), axis=-1), 0.0, 1.0)
    return DecodedGrid(geometry, act, cls, prog, rate, act[..., None] * cls * prog)


def select_candidates(decoded: DecodedGrid, score_threshold: float, nms_iou: float):
    """Threshold + NMS of one decoded frame: ``nms_indices`` on the (slot,
    class) pairs a mask selects, class by class in slot order (cell_y, cell_x,
    anchor), the slot being the geometry id, so a slot's classes share one box
    tuple.  Returns the survivors as columns, ``(class_ids, slots, confidences,
    rates, geometry)``: four arrays in ``nms_indices`` order and one box tuple per
    slot.  Slots narrower or lower than ``MIN_BOX_SIZE`` are dropped, so every box
    survives the records format."""
    n_classes = decoded.confidence.shape[-1]
    conf = decoded.confidence.reshape(-1, n_classes).T  # (C, slots)
    boxes = decoded.geometry.reshape(-1, 4)
    sized = (boxes[:, 2] - boxes[:, 0] >= MIN_BOX_SIZE) & (boxes[:, 3] - boxes[:, 1] >= MIN_BOX_SIZE)
    class_ids, slots = np.nonzero((conf > score_threshold) & sized)
    geometry = [tuple(g) for g in boxes.tolist()]  # one tuple per slot
    scores = conf[class_ids, slots]
    keep = nms_indices(class_ids, scores, slots, geometry, score_threshold, nms_iou)
    class_ids, slots = class_ids[keep], slots[keep]
    return class_ids, slots, scores[keep], decoded.rates.reshape(-1, n_classes).T[class_ids, slots], geometry


def _greedy(
    indices: Sequence[int], confidence: Sequence[float], geometry: Sequence[Box], nms_iou: float
) -> list[int]:
    """Scalar greedy NMS: ``indices`` by descending confidence (ties in order),
    keeping each whose box overlaps no kept one by more than ``nms_iou``."""
    kept: list[int] = []
    for i in sorted(indices, key=confidence.__getitem__, reverse=True):
        g = geometry[i]
        if all(box_iou(g, geometry[k]) <= nms_iou for k in kept):
            kept.append(i)
    return kept


def nms_boxes(candidates: list[CandidateBox], nms_iou: float) -> list[CandidateBox]:
    """Greedy NMS on one class's candidates; returns survivors sorted by
    descending confidence.  A box is suppressed when its IoU with an already
    kept box exceeds ``nms_iou``.  Ties in confidence keep input order.  The
    scalar loop of ``nms_indices``, and the oracle of its matrix path."""
    fields = [cb.confidence for cb in candidates], [cb.geometry for cb in candidates]
    return [candidates[i] for i in _greedy(range(len(candidates)), *fields, nms_iou)]


def overlap_matrix(geometry: np.ndarray, nms_iou: float) -> np.ndarray:
    """``over[i, j]`` is ``box_iou(geometry[i], geometry[j]) > nms_iou``, with
    ``box_iou``'s arithmetic, for an (n, 4) array of finite boxes.  Each operation of
    ``box_iou`` commutes, so row blocks are computed from the diagonal rightwards and mirrored,
    each into the same contiguous buffers."""
    n = len(geometry)
    x1, y1, x2, y2 = geometry.T
    area = np.maximum(0.0, x2 - x1) * np.maximum(0.0, y2 - y1)
    over = np.empty((n, n), dtype=bool)
    size = min(n, OVERLAP_BLOCK) * n
    floats, flags = np.empty((4, size)), np.empty((2, size), dtype=bool)
    for lo in range(0, n, OVERLAP_BLOCK):
        hi = min(lo + OVERLAP_BLOCK, n)
        rows, cols, count = slice(lo, hi), slice(lo, None), (hi - lo) * (n - lo)
        ix, iy, inter, union = (b[:count].reshape(hi - lo, n - lo) for b in floats)
        ok, flag = (b[:count].reshape(hi - lo, n - lo) for b in flags)
        np.minimum(x2[rows, None], x2[cols], out=ix)
        ix -= np.maximum(x1[rows, None], x1[cols], out=inter)
        np.minimum(y2[rows, None], y2[cols], out=iy)
        iy -= np.maximum(y1[rows, None], y1[cols], out=inter)
        np.multiply(ix, iy, out=inter)
        np.add(area[rows, None], area[cols], out=union)
        union -= inter
        np.greater(ix, 0.0, out=ok)
        ok &= np.greater(iy, 0.0, out=flag)
        ok &= np.greater(union, 0.0, out=flag)
        with np.errstate(divide="ignore", invalid="ignore"):
            ok &= np.greater(np.divide(inter, union, out=inter), nms_iou, out=flag)
        over[rows, cols] = ok
        over[cols, rows] = ok.T
    return over


def nms_indices(
    class_ids: Sequence[int],
    confidence: Sequence[float],
    geometry_ids: Sequence[int] | None,
    geometry: Sequence[Box],
    score_threshold: float,
    nms_iou: float,
) -> list[int]:
    """Per-class threshold + greedy NMS over one frame's candidates, given as parallel
    sequences or arrays, candidate ``i``'s box being ``geometry[geometry_ids[i]]`` (``geometry[i]`` if
    ``geometry_ids`` is None): the indices of what ``nms_boxes`` keeps of each class's candidates
    above ``score_threshold``, classes in ascending order.  If some class has more than ``SMALL_NMS``
    candidates, their distinct boxes meet once, in one overlap matrix of bitmask rows.  Boxes must be finite."""
    if not 0.0 <= score_threshold < 1.0:
        raise ValueError("score_threshold must lie in [0, 1)")
    if not 0.0 < nms_iou < 1.0:
        raise ValueError("nms_iou must lie in (0, 1)")
    out: list[int] = []
    # Classes are counted in one numpy call, which is fast on arrays and on lists alike.
    if len(class_ids) <= SMALL_NMS or np.unique(class_ids, return_counts=True)[1].max() <= SMALL_NMS:
        by_class: dict[int, list[int]] = {}
        for i, (class_id, score) in enumerate(zip(class_ids, confidence)):
            if score > score_threshold:
                by_class.setdefault(class_id, []).append(i)
        boxes = geometry if geometry_ids is None else [geometry[g] for g in geometry_ids]
        for class_id in sorted(by_class):
            group = by_class[class_id]  # a lone candidate is kept without a sort
            out.extend(_greedy(group, confidence, boxes, nms_iou) if len(group) > 1 else group)
        return out
    classes, scores = np.asarray(class_ids), np.asarray(confidence, dtype=np.float64)
    if classes.dtype.kind not in "iu":  # ids beyond 64 bits would turn float: compare them exactly
        classes = np.asarray(class_ids, dtype=object)
    passing = np.flatnonzero(scores > score_threshold)
    order = passing[np.lexsort((-scores[passing], classes[passing]))]  # stable: ties keep input order
    ids = order if geometry_ids is None else np.asarray(geometry_ids)[order]
    used = np.zeros(len(geometry), dtype=bool)
    used[ids] = True
    row_of = np.empty(len(geometry), dtype=np.intp)  # geometry id -> matrix row
    index: dict[Box, int] = {}  # a matrix row per distinct value among the used boxes
    row_of[used] = [index.setdefault(geometry[g], len(index)) for g in np.flatnonzero(used).tolist()]
    rows = row_of[ids].tolist()
    over = overlap_matrix(np.array(list(index), dtype=np.float64).reshape(-1, 4), nms_iou)
    bits = [int.from_bytes(row, "little") for row in np.packbits(over, axis=1, bitorder="little")]
    current, suppressed = None, 0
    for i, class_id, row in zip(order.tolist(), classes[order].tolist(), rows):
        if class_id != current:
            current, suppressed = class_id, 0
        if not suppressed >> row & 1:
            out.append(i)
            suppressed |= bits[row]
    return out


def nms_frame(boxes: Sequence[CandidateBox], score_threshold: float, nms_iou: float) -> list[CandidateBox]:
    """Per-class threshold + greedy NMS of one frame's boxes: the objects ``nms_indices`` keeps, in its order."""
    fields = [bx.class_id for bx in boxes], [bx.confidence for bx in boxes], None, [bx.geometry for bx in boxes]
    return [boxes[i] for i in nms_indices(*fields, score_threshold, nms_iou)]
