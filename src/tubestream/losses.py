"""Training objective for the progress-aware grid detector, as pure numeric kernels.

The loss compares an *activated* attribute grid against a per-cell/per-anchor
target assignment.  The grid has the raw grids' layout, whose one owner is
:func:`tubestream.decode.split_attributes`: every block is sliced there.  Five
squared-error terms are summed over every cell i and anchor j:

* ``coord``  - box offsets, only at responsible (i, j) slots;
* ``conf``   - actionness pulled to 1 at responsible slots and to 0 at
  action-free slots, with separate weights;
* ``cls``    - per-class scores against a one-hot target at responsible slots;
* ``hp``     - progression pulled to 1 for the assigned class at responsible
  slots; pulled to 0 (unit weight) for every class at action-free slots whose
  predicted actionness exceeds the mining gate ``theta`` - easy negatives are
  ignored;
* ``sp``     - progress rate against the tube-local completion fraction,
  for the assigned class at responsible slots.

Analytic gradients are provided with respect to every predicted attribute
(the mining gate is treated as a constant factor, which is its almost-
everywhere derivative), along with a central-finite-difference checker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decode import ATTR_H, ATTR_W, AnchorSet, attr_width, split_attributes
from .geometry import shape_iou
from .linker import check_settings
from .tubes import GroundTruthTube


@dataclass(frozen=True)
class LossWeights:
    """Term weights and the progression negative-mining gate, checked by ``check_settings``."""

    coord: float = 5.0
    act: float = 10.0
    noact: float = 5.0
    cls: float = 5.0
    progression: float = 5.0
    rate: float = 5.0
    neg_gate: float = 0.2  # theta: mine progression negatives only where actionness exceeds this

    # Valid values of each setting, in the text ``check_range`` reads.
    RANGES = dict.fromkeys(("coord", "act", "noact", "cls", "progression", "rate"), "[0, inf)") | {"neg_gate": "[0, 1]"}

    def __post_init__(self):
        check_settings(self)


@dataclass
class TargetAssignment:
    """Ground-truth values for one frame's grid of S x S cells, B anchors, C classes.

    ``act_mask`` is 1 at each action instance's single responsible anchor and
    0 at every action-free slot.  ``target_class`` is the one-hot class there,
    so it is also the per-class positive mask, and its shape is the grid's.
    Offsets and rates are meaningful only at responsible slots.
    """

    act_mask: np.ndarray  # (S, S, B)
    target_offsets: np.ndarray  # (S, S, B, 4) activated-space (x, y, w, h)
    target_class: np.ndarray  # (S, S, B, C) one-hot
    target_rate: np.ndarray  # (S, S, B, C) tube-local completion fraction


@dataclass(frozen=True)
class LossBreakdown:
    coord: float
    conf: float
    cls: float
    hp: float
    sp: float

    @property
    def total(self) -> float:
        return self.coord + self.conf + self.cls + self.hp + self.sp


def build_targets(
    gt: list[GroundTruthTube],
    frame: int,
    grid: tuple[int, int, int],
    anchors: AnchorSet,
) -> TargetAssignment:
    """Assign each action instance covering ``frame`` to its responsible slot.

    The owning cell is the one containing the box center; the responsible
    anchor maximizes the co-centered shape IoU with the box (ties go to the
    lowest anchor index).  The rate target for a tube of length L at its
    k-th covered frame (1-based) is k / L, so the last frame targets 1.
    Tubes not covering ``frame`` are ignored.  If two instances claim the
    same slot, the first one in the list wins.
    """
    s, b, c = grid
    if len(anchors) != b:
        raise ValueError(f"anchor set has {len(anchors)} entries, grid declares {b}")
    ta = TargetAssignment(
        act_mask=np.zeros((s, s, b)),
        target_offsets=np.zeros((s, s, b, 4)),
        target_class=np.zeros((s, s, b, c)),
        target_rate=np.zeros((s, s, b, c)),
    )
    for tube in gt:
        if not tube.t_start <= frame <= tube.t_end:
            continue
        if not 0 <= tube.class_id < c:
            raise ValueError(f"tube class {tube.class_id} out of range for C={c}")
        x_min, y_min, x_max, y_max = tube.box_at(frame)
        if not (0.0 <= x_min < x_max <= 1.0 and 0.0 <= y_min < y_max <= 1.0):
            raise ValueError(f"ground-truth box {(x_min, y_min, x_max, y_max)} outside the unit square")
        w, h = x_max - x_min, y_max - y_min
        cx, cy = (x_min + x_max) / 2.0, (y_min + y_max) / 2.0
        ix = min(int(cx * s), s - 1)
        iy = min(int(cy * s), s - 1)
        ious = [shape_iou((w, h), (pw / s, ph / s)) for pw, ph in anchors.sizes]
        j = int(np.argmax(ious))  # argmax takes the first maximum: lowest anchor index on ties
        if ta.act_mask[iy, ix, j]:
            continue
        pw, ph = anchors.sizes[j]
        ta.act_mask[iy, ix, j] = 1.0
        ta.target_offsets[iy, ix, j] = (
            cx * s - ix,
            cy * s - iy,
            np.log(w * s / pw),
            np.log(h * s / ph),
        )
        ta.target_class[iy, ix, j, tube.class_id] = 1.0
        ta.target_rate[iy, ix, j, tube.class_id] = (frame - tube.t_start + 1) / tube.length
    return ta


def _inputs(pred: np.ndarray, target: TargetAssignment, weights: LossWeights):
    """``pred`` as float64 and checked against the target grid, its blocks, and
    the positive, negative and mined-negative masks."""
    s, _, b, c = target.target_class.shape
    pred = np.asarray(pred, dtype=np.float64)
    if pred.shape != (s, s, b, attr_width(c)):
        raise ValueError(f"prediction shape {pred.shape} does not match target grid ({s}, {s}, {b}, {attr_width(c)})")
    blocks, neg = split_attributes(pred, c), 1.0 - target.act_mask
    return pred, blocks, target.act_mask, neg, neg * (blocks[1] > weights.neg_gate)


def loss_terms(pred: np.ndarray, target: TargetAssignment, weights: LossWeights) -> LossBreakdown:
    """Evaluate every loss term over the grid; ``pred`` is the activated
    attribute tensor of shape (S, S, B, 5 + 3C)."""
    _, (xywh, act, cls, prog, rate), pos, neg, gate = _inputs(pred, target, weights)

    coord = weights.coord * float(np.sum(pos[..., None] * (xywh - target.target_offsets) ** 2))
    conf = weights.act * float(np.sum(pos * (act - 1.0) ** 2)) + weights.noact * float(np.sum(neg * act**2))
    cls_l = weights.cls * float(np.sum(pos[..., None] * (cls - target.target_class) ** 2))
    hp = weights.progression * float(np.sum(target.target_class * (prog - 1.0) ** 2)) + float(
        np.sum(gate[..., None] * prog**2)
    )
    sp = weights.rate * float(np.sum(target.target_class * (rate - target.target_rate) ** 2))
    return LossBreakdown(coord=coord, conf=conf, cls=cls_l, hp=hp, sp=sp)


def loss_gradient(pred: np.ndarray, target: TargetAssignment, weights: LossWeights) -> np.ndarray:
    """Analytic gradient of the total loss with respect to every predicted attribute."""
    pred, (xywh, act, cls, prog, rate), pos, neg, gate = _inputs(pred, target, weights)

    grad = np.zeros_like(pred)
    g_xywh, g_act, g_cls, g_prog, g_rate = split_attributes(grad, target.target_class.shape[-1])
    g_xywh[...] = 2.0 * weights.coord * pos[..., None] * (xywh - target.target_offsets)
    g_act[...] = 2.0 * weights.act * pos * (act - 1.0) + 2.0 * weights.noact * neg * act
    g_cls[...] = 2.0 * weights.cls * pos[..., None] * (cls - target.target_class)
    g_prog[...] = 2.0 * weights.progression * target.target_class * (prog - 1.0) + 2.0 * gate[..., None] * prog
    g_rate[...] = 2.0 * weights.rate * target.target_class * (rate - target.target_rate)
    return grad


def check_gradients(
    pred: np.ndarray,
    target: TargetAssignment,
    weights: LossWeights,
    eps: float = 1e-5,
) -> float:
    """Worst relative error between analytic and central-difference gradients.

    Relative error uses ``|a - b| / max(|a|, |b|, 1e-8)`` per component.
    """
    if not 0.0 < eps < 1e-2:
        raise ValueError("eps must lie in (0, 1e-2)")
    pred = np.asarray(pred, dtype=np.float64).copy()
    analytic = loss_gradient(pred, target, weights)
    worst = 0.0
    flat = pred.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + eps
        hi = loss_terms(pred, target, weights).total
        flat[k] = orig - eps
        lo = loss_terms(pred, target, weights).total
        flat[k] = orig
        fd = (hi - lo) / (2.0 * eps)
        a = analytic.reshape(-1)[k]
        err = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
        worst = max(worst, err)
    return worst


def random_check_case(
    seed: int,
    s_cells: int = 3,
    n_anchors: int = 2,
    n_classes: int = 2,
) -> tuple[np.ndarray, TargetAssignment, LossWeights]:
    """Seeded random (prediction, target, weights) triple for gradient checks.

    Targets come from 0-3 random tubes pushed through :func:`build_targets`
    so positives, mined negatives, and ignored negatives all occur.
    """
    rng = np.random.default_rng(seed)
    anchors = AnchorSet(tuple((float(w), float(h)) for w, h in rng.uniform(0.5, 3.0, size=(n_anchors, 2))))
    tubes = []
    for _ in range(int(rng.integers(0, 4))):
        cx, cy = rng.uniform(0.2, 0.8, size=2)
        w, h = rng.uniform(0.05, 0.35, size=2)
        box = (
            float(max(0.0, cx - w / 2)),
            float(max(0.0, cy - h / 2)),
            float(min(1.0, cx + w / 2)),
            float(min(1.0, cy + h / 2)),
        )
        length = int(rng.integers(1, 9))
        tubes.append(
            GroundTruthTube(
                video_id="check",
                class_id=int(rng.integers(0, n_classes)),
                t_start=1,
                t_end=length,
                boxes=(box,) * length,
            )
        )
    frame = 1
    target = build_targets(tubes, frame, (s_cells, n_anchors, n_classes), anchors)

    width = attr_width(n_classes)
    pred = rng.uniform(0.0, 1.0, size=(s_cells, s_cells, n_anchors, width))
    pred[..., ATTR_W] = rng.normal(0.0, 1.0, size=pred.shape[:3])
    pred[..., ATTR_H] = rng.normal(0.0, 1.0, size=pred.shape[:3])
    return pred, target, LossWeights()
