"""Grid decoding, confidence composition, and per-class NMS."""

import csv
import dataclasses
import math
import os
import tempfile
import warnings
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import detection_line, per_class_nms, survivor_boxes
from tubestream import decode
from tubestream.config import RunConfig
from tubestream.decode import (
    ATTR_ACT,
    AnchorSet,
    CandidateBox,
    RawGrid,
    attr_width,
    decode_grid,
    nms_boxes,
    nms_frame,
    select_candidates,
    split_attributes,
)
from tubestream.geometry import box_iou
from tubestream.pipeline import run_decode, run_eval, run_link
from tubestream.records import (
    DETECTIONS_HEADER,
    iter_detection_rows,
    parse_tubes,
    read_rawgrids,
    write_annotations,
    write_rawgrids,
)
from tubestream.tubes import GroundTruthTube


def scalar_sigmoid(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def random_grid(seed: int, s: int = 3, b: int = 2, c: int = 3, scale: float = 3.0) -> tuple[RawGrid, AnchorSet]:
    rng = np.random.default_rng(seed)
    grid = RawGrid(s, b, c, rng.normal(0.0, scale, size=(s, s, b, attr_width(c))))
    anchors = AnchorSet(tuple((float(w), float(h)) for w, h in rng.uniform(0.5, 3.0, size=(b, 2))))
    return grid, anchors


def one_slot(n_classes: int, act: float, cls: tuple[float, ...], prog: tuple[float, ...]):
    """Decode a 1x1x1 grid with the given actionness, class and progression logits."""
    values = np.zeros((1, 1, 1, attr_width(n_classes)))
    values[0, 0, 0, ATTR_ACT] = act
    values[0, 0, 0, 5 : 5 + n_classes] = cls
    values[0, 0, 0, 5 + n_classes : 5 + 2 * n_classes] = prog
    return decode_grid(RawGrid(1, 1, n_classes, values), AnchorSet(((1.0, 1.0),)))


def scalar_candidates(decoded, score_threshold: float) -> list[CandidateBox]:
    """Slot-by-slot thresholding with Python floats, class by class."""
    s, _, b, c = decoded.confidence.shape
    out = []
    for class_id in range(c):
        for cy in range(s):
            for cx in range(s):
                for j in range(b):
                    score = (
                        float(decoded.actionness[cy, cx, j])
                        * float(decoded.class_scores[cy, cx, j, class_id])
                        * float(decoded.progression[cy, cx, j, class_id])
                    )
                    geometry = tuple(float(x) for x in decoded.geometry[cy, cx, j])
                    sized = min(geometry[2] - geometry[0], geometry[3] - geometry[1]) >= decode.MIN_BOX_SIZE
                    if score > score_threshold and sized:
                        out.append(CandidateBox(class_id, geometry, score, float(decoded.rates[cy, cx, j, class_id])))
    return out


def test_candidate_box_is_compared_hashed_and_printed_by_value():
    box = CandidateBox(1, (0.1, 0.2, 0.3, 0.4), 0.9, 0.5)
    assert repr(box) == "CandidateBox(class_id=1, geometry=(0.1, 0.2, 0.3, 0.4), confidence=0.9, rate=0.5)"
    twin = CandidateBox(1, (0.1, 0.2, 0.3, 0.4), 0.9, 0.5)
    assert twin is not box and twin == box and hash(twin) == hash(box) == hash((1, (0.1, 0.2, 0.3, 0.4), 0.9, 0.5))
    assert len({box, twin}) == 1 and box != CandidateBox(1, (0.1, 0.2, 0.3, 0.4), 0.9, 0.6)
    assert box != (1, (0.1, 0.2, 0.3, 0.4), 0.9, 0.5) and not hasattr(box, "__dict__")


@pytest.mark.parametrize("n_classes", [1, 3])
def test_split_attributes_views_the_blocks_in_layout_order(n_classes):
    width = attr_width(n_classes)
    tensor = np.arange(2 * 2 * 3 * width, dtype=np.float64).reshape(2, 2, 3, width)
    blocks = split_attributes(tensor, n_classes)
    box, act, cls, prog, rate = blocks
    assert [b.shape[-1] for b in (box, cls, prog, rate)] == [4, n_classes, n_classes, n_classes]
    assert act.shape == tensor.shape[:-1]
    # In layout order, the blocks concatenate back to the tensor, column for column.
    columns = np.concatenate((box, act[..., None], cls, prog, rate), axis=-1)
    assert np.array_equal(columns, tensor)
    assert np.array_equal(act, tensor[..., 4]) and np.array_equal(cls[0, 0, 0], np.arange(5, 5 + n_classes))
    # Each block is a view: writing through it writes the tensor.
    for k, block in enumerate(blocks):
        assert np.shares_memory(block, tensor)
        block[...] = -1.0 - k
    expected = np.repeat([-1.0, -2.0, -3.0, -4.0, -5.0], [4, 1, n_classes, n_classes, n_classes])
    assert (tensor == expected).all()


class TestDecodeGrid:
    def test_zero_logits_symmetry(self):
        raw = RawGrid(2, 1, 1, np.zeros((2, 2, 1, 8)))
        decoded = decode_grid(raw, AnchorSet(((1.0, 1.0),)))
        assert decoded.geometry.shape == (2, 2, 1, 4)
        assert decoded.confidence.shape == (2, 2, 1, 1)
        assert (decoded.actionness == 0.5).all()
        assert (decoded.class_scores == 1.0).all()
        assert (decoded.progression == 0.5).all()
        assert (decoded.rates == 0.5).all()
        for cy in range(2):
            for cx in range(2):
                center = ((cx + 0.5) / 2, (cy + 0.5) / 2)
                x1, y1, x2, y2 = decoded.geometry[cy, cx, 0]
                assert (x1 + x2) / 2 == pytest.approx(center[0], abs=1e-12)
                assert (y1 + y2) / 2 == pytest.approx(center[1], abs=1e-12)
                assert x2 - x1 == pytest.approx(0.5, abs=1e-12)
                assert y2 - y1 == pytest.approx(0.5, abs=1e-12)

    def test_extreme_actionness_logit(self):
        decoded = one_slot(1, -20.0, (0.0,), (0.0,))
        assert decoded.actionness[0, 0, 0] == pytest.approx(scalar_sigmoid(-20.0), rel=1e-12)
        assert decoded.actionness[0, 0, 0] == pytest.approx(2.0611536e-9, rel=1e-6)

    def test_matches_scalar_reevaluation_seed7(self):
        # Straight-line scalar oracle over every grid element.
        raw, anchors = random_grid(7)
        s, b, c = raw.s_cells, raw.n_anchors, raw.n_classes
        decoded = decode_grid(raw, anchors)
        for cy in range(s):
            for cx in range(s):
                for j in range(b):
                    v = raw.values[cy, cx, j]
                    act = scalar_sigmoid(v[4])
                    assert decoded.actionness[cy, cx, j] == pytest.approx(act, rel=1e-12, abs=1e-15)
                    exps = [math.exp(v[5 + i] - max(v[5 : 5 + c])) for i in range(c)]
                    for i in range(c):
                        cls = exps[i] / sum(exps)
                        prog = scalar_sigmoid(v[5 + c + i])
                        assert decoded.class_scores[cy, cx, j, i] == pytest.approx(cls, rel=1e-12, abs=1e-15)
                        assert decoded.progression[cy, cx, j, i] == pytest.approx(prog, rel=1e-12, abs=1e-15)
                        assert decoded.rates[cy, cx, j, i] == pytest.approx(
                            scalar_sigmoid(v[5 + 2 * c + i]), rel=1e-12, abs=1e-15
                        )
                        assert decoded.confidence[cy, cx, j, i] == pytest.approx(act * cls * prog, rel=1e-12, abs=1e-15)
                    center_x = (cx + scalar_sigmoid(v[0])) / s
                    center_y = (cy + scalar_sigmoid(v[1])) / s
                    pw, ph = anchors.sizes[j]
                    width = pw * math.exp(v[2]) / s
                    height = ph * math.exp(v[3]) / s
                    expected = (
                        min(1.0, max(0.0, center_x - width / 2)),
                        min(1.0, max(0.0, center_y - height / 2)),
                        min(1.0, max(0.0, center_x + width / 2)),
                        min(1.0, max(0.0, center_y + height / 2)),
                    )
                    assert tuple(decoded.geometry[cy, cx, j]) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_pure_function_bit_identical(self):
        raw, anchors = random_grid(3)
        a, b = decode_grid(raw, anchors), decode_grid(raw, anchors)
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), f.name

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="elements"):
            RawGrid(2, 2, 2, np.zeros(17))
        raw, _ = random_grid(1)
        with pytest.raises(ValueError, match="anchor"):
            decode_grid(raw, AnchorSet(((1.0, 1.0),)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        values = np.zeros((1, 1, 1, attr_width(1)))
        values[0, 0, 0, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            RawGrid(1, 1, 1, values)

    @pytest.mark.parametrize("size", [(math.nan, 1.0), (1.0, math.inf), (0.0, 1.0)])
    def test_bad_anchor_sizes_rejected(self, size):
        with pytest.raises(ValueError, match="finite and positive"):
            AnchorSet((size,))

    @given(st.integers(0, 10_000), st.floats(0.5, 12.0))
    @settings(max_examples=60, deadline=None)
    def test_geometry_in_unit_square_with_positive_area(self, seed, scale):
        raw, anchors = random_grid(seed, s=2, b=1, c=1, scale=scale)
        for x1, y1, x2, y2 in decode_grid(raw, anchors).geometry.reshape(-1, 4):
            assert 0.0 <= x1 < x2 <= 1.0
            assert 0.0 <= y1 < y2 <= 1.0


class TestConfidence:
    def test_identity_product(self):
        # sigmoid(40) rounds to 1.0 and a single class scores 1.0.
        assert one_slot(1, 40.0, (0.0,), (40.0,)).confidence[0, 0, 0, 0] == 1.0

    def test_direct_product(self):
        decoded = one_slot(2, math.log(4.0), (0.0, 0.0), (0.0, 0.0))  # 0.8 * 0.5 * 0.5
        assert decoded.confidence[0, 0, 0, 0] == pytest.approx(0.2, abs=1e-15)
        product = decoded.actionness[..., None] * decoded.class_scores * decoded.progression
        assert decoded.confidence.tobytes() == product.tobytes()

    def test_progression_suppresses_irrelevant_action(self):
        assert one_slot(1, 2.0, (0.0,), (-800.0,)).confidence[0, 0, 0, 0] == 0.0

    def test_emitted_candidates_carry_exact_confidence(self):
        raw, anchors = random_grid(11)
        decoded = decode_grid(raw, anchors)
        class_ids, slots, confidences, rates, geometry = select_candidates(decoded, 1e-3, 0.45)
        assert len(class_ids)

        def at_slots(values):  # each survivor's own slot and class, bit for bit
            return values.reshape(-1, raw.n_classes)[slots, class_ids]

        assert confidences.tobytes() == at_slots(decoded.confidence).tobytes()
        assert rates.tobytes() == at_slots(decoded.rates).tobytes()
        assert geometry == [tuple(g) for g in decoded.geometry.reshape(-1, 4).tolist()]

    @given(st.integers(0, 10_000), st.floats(0.0, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_mask_threshold_matches_scalar_loop(self, seed, score_threshold):
        raw, anchors = random_grid(seed, s=2, b=2, c=3)
        decoded = decode_grid(raw, anchors)
        want = per_class_nms(scalar_candidates(decoded, score_threshold), score_threshold, 0.45)
        assert survivor_boxes(select_candidates(decoded, score_threshold, 0.45)) == want


def cand(score: float, box, class_id: int = 0) -> CandidateBox:
    return CandidateBox(class_id, box, score, 0.5)


class TestNms:
    def test_coincident_boxes_keep_best(self):
        a = cand(0.9, (0.1, 0.1, 0.5, 0.5))
        b = cand(0.8, (0.1, 0.1, 0.5, 0.5))
        assert nms_boxes([b, a], 0.5) == [a]

    def test_disjoint_boxes_both_kept(self):
        a = cand(0.9, (0.0, 0.0, 0.2, 0.2))
        b = cand(0.8, (0.5, 0.5, 0.9, 0.9))
        assert nms_boxes([b, a], 0.5) == [a, b]

    def test_greedy_hand_trace(self):
        # B overlaps kept A above threshold; C overlaps A below it, so its
        # heavy overlap with suppressed B is irrelevant.
        a = cand(0.9, (0.0, 0.0, 0.5, 1.0))
        b = cand(0.8, (0.125, 0.0, 0.625, 1.0))
        c = cand(0.7, (0.27, 0.0, 0.77, 1.0))
        assert box_iou(a.geometry, b.geometry) == pytest.approx(0.6)
        assert box_iou(a.geometry, c.geometry) < 0.5 < box_iou(b.geometry, c.geometry)
        assert nms_boxes([a, b, c], 0.5) == [a, c]

    @pytest.mark.parametrize("small", [decode.SMALL_NMS, 0])
    def test_overlap_equal_to_the_threshold_does_not_suppress(self, small):
        a = cand(0.9, (0.0, 0.0, 1.0, 1.0))
        b = cand(0.8, (0.0, 0.0, 0.5, 1.0))
        assert box_iou(a.geometry, b.geometry) == 0.5
        assert nms_boxes([a, b], 0.5) == [a, b]
        with mock.patch.object(decode, "SMALL_NMS", small):
            assert nms_frame([b, a], 1e-3, 0.5) == [a, b]
            assert nms_frame([b, a], 1e-3, 0.4999) == [a]

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_survivors_form_antichain_and_sorted(self, seed):
        rng = np.random.default_rng(seed)
        boxes = []
        for _ in range(rng.integers(0, 12)):
            x1, y1 = rng.uniform(0, 0.7, 2)
            w, h = rng.uniform(0.05, 0.3, 2)
            boxes.append(cand(float(rng.uniform(0, 1)), (x1, y1, min(1, x1 + w), min(1, y1 + h))))
        kept = nms_boxes(boxes, 0.45)
        for i, a in enumerate(kept):
            for b in kept[i + 1 :]:
                assert box_iou(a.geometry, b.geometry) <= 0.45
        assert [k.confidence for k in kept] == sorted((k.confidence for k in kept), reverse=True)

    @given(st.integers(0, 10_000), st.floats(0.0, 0.9), st.floats(0.0, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_raising_threshold_never_adds_a_box(self, seed, thr_a, thr_b):
        lo, hi = sorted((round(thr_a, 3), round(thr_b, 3)))
        raw, anchors = random_grid(seed, s=2, b=2, c=2)
        decoded = decode_grid(raw, anchors)
        loose = survivor_boxes(select_candidates(decoded, lo, 0.45))
        assert set(survivor_boxes(select_candidates(decoded, hi, 0.45))) <= set(loose)
        assert set(nms_frame(scalar_candidates(decoded, lo), hi, 0.45)) <= set(loose)

    def test_duplicates_boxes_across_classes(self):
        values = np.zeros((1, 1, 1, attr_width(2)))
        decoded = decode_grid(RawGrid(1, 1, 2, values), AnchorSet(((1.0, 1.0),)))
        kept = survivor_boxes(select_candidates(decoded, 1e-3, 0.45))
        assert [k.class_id for k in kept] == [0, 1]
        assert kept[0].geometry == kept[1].geometry

    def test_threshold_is_strict(self):
        assert nms_frame([cand(0.5, (0.1, 0.1, 0.5, 0.5))], score_threshold=0.5, nms_iou=0.45) == []
        with pytest.raises(ValueError, match="score_threshold"):
            nms_frame([], score_threshold=1.0, nms_iou=0.45)
        with pytest.raises(ValueError, match="score_threshold"):
            nms_frame([], score_threshold=-1.0, nms_iou=0.45)
        with pytest.raises(ValueError, match="nms_iou"):
            nms_frame([], score_threshold=1e-3, nms_iou=0.0)
        with pytest.raises(ValueError, match="nms_iou"):
            nms_frame([], score_threshold=1e-3, nms_iou=1.5)


# Coordinates on a coarse grid make shared edges (ix == 0) and exact
# duplicates common; equal ends give zero-area boxes, which never suppress.
_coord = st.sampled_from([0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 1.0]) | st.floats(0.0, 1.0)
_score = st.sampled_from([0.25, 0.5, 0.75]) | st.floats(0.0, 1.0)


@st.composite
def _geometry(draw):
    x1, x2 = sorted((draw(_coord), draw(_coord)))
    y1, y2 = sorted((draw(_coord), draw(_coord)))
    return (x1, y1, x2, y2)


@st.composite
def _frame(draw):
    pool = draw(st.lists(_geometry(), min_size=1, max_size=24))
    n = draw(st.integers(0, 3 * decode.SMALL_NMS))
    return [
        CandidateBox(draw(st.sampled_from([0, 0, 0, 1, 2])), draw(st.sampled_from(pool)), draw(_score), 0.5)
        for _ in range(n)
    ]


class TestNmsFrameOracle:
    """``nms_frame`` against ``nms_boxes`` run class by class."""

    @pytest.mark.parametrize("small", [decode.SMALL_NMS, 0])
    @given(_frame(), st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.01, 0.99))
    @settings(max_examples=150, deadline=None)
    def test_same_survivors_as_scalar_nms(self, small, boxes, score_threshold, nms_iou):
        with mock.patch.object(decode, "SMALL_NMS", small):
            got = nms_frame(boxes, score_threshold, nms_iou)
        want = per_class_nms(boxes, score_threshold, nms_iou)
        assert [id(b) for b in got] == [id(b) for b in want]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_frames_on_both_sides_of_the_small_list_size(self, seed):
        rng = np.random.default_rng(seed)
        pool = []
        for _ in range(40):
            (x1, x2), (y1, y2) = np.sort(rng.uniform(0.0, 1.0, (2, 2)), axis=1).tolist()
            pool.append((x1, y1, x2, y2))
        boxes = []
        for class_id, size in enumerate((1, decode.SMALL_NMS, decode.SMALL_NMS + 1, 4 * decode.SMALL_NMS)):
            for _ in range(size):
                geometry = pool[int(rng.integers(0, len(pool)))]
                boxes.append(CandidateBox(class_id, geometry, float(rng.choice([0.3, rng.uniform()])), 0.5))
        rng.shuffle(boxes)
        got = nms_frame(boxes, 1e-3, 0.45)
        want = per_class_nms(boxes, 1e-3, 0.45)
        assert [id(b) for b in got] == [id(b) for b in want]

    @pytest.mark.parametrize(
        "class_ids", [(2**63, 2**63 + 1, 0), (2**63, 2**63 + 1), (10**30, 10**30 + 1, 7), (-(2**64), -(2**64) - 1, 0)]
    )
    def test_class_ids_beyond_64_bits_stay_apart(self, class_ids):
        # Mixed with small ints, 2**63 and 2**63 + 1 both become the float 2**63.
        rng = np.random.default_rng(4)
        boxes = []
        for k in range(20 * len(class_ids)):
            x1, y1 = rng.uniform(0.0, 0.5, 2).tolist()
            score = float(rng.choice([0.3, rng.uniform()]))
            boxes.append(CandidateBox(class_ids[k % len(class_ids)], (x1, y1, x1 + 0.3, y1 + 0.3), score, 0.5))
        got = nms_frame(boxes, 1e-3, 0.45)
        assert [id(b) for b in got] == [id(b) for b in per_class_nms(boxes, 1e-3, 0.45)]

    def test_run_decode_matches_scalar_decode_and_nms(self, tmp_path, monkeypatch):
        # The wide workload's shape: 13x13 cells, 5 anchors, 24 classes.
        rng = np.random.default_rng(2024)
        s, b, c = 13, 5, 24
        anchors = AnchorSet(tuple((float(w), float(h)) for w, h in rng.uniform(1.0, 11.0, size=(b, 2))))
        grid = RawGrid(s, b, c, rng.standard_normal(s * s * b * attr_width(c)))
        assert decode_matches_scalar_oracle(tmp_path, monkeypatch, grid, anchors, RunConfig()) > 1000


@st.composite
def _indexed_frame(draw):
    """One frame as ``nms_indices`` takes it: class ids, confidences, and ids into a
    pool of boxes that many candidates share; up to ten classes, mostly class 0."""
    pool = draw(st.lists(_geometry(), min_size=1, max_size=24))
    n = draw(st.integers(0, 3 * decode.SMALL_NMS))

    def column(values):
        return st.lists(values, min_size=n, max_size=n)

    class_ids = draw(column(st.sampled_from([0, 0, 0, 1, 2]) | st.integers(0, 9)))
    return class_ids, draw(column(_score)), draw(column(st.integers(0, len(pool) - 1))), pool


class TestNmsIndicesInputs:
    """``nms_indices`` keeps the same indices whether its columns come as lists or
    as arrays, with geometry ids or without, on the scalar and the matrix path."""

    # With 4, a class of 5 or more candidates takes the matrix path; with 0, every non-empty input does.
    @pytest.mark.parametrize("small", [decode.SMALL_NMS, 4, 0])
    @given(_indexed_frame(), st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.01, 0.99))
    @settings(max_examples=150, deadline=None)
    def test_arrays_and_lists_keep_the_same_indices(self, small, frame, score_threshold, nms_iou):
        class_ids, scores, ids, pool = frame
        arrays = np.array(class_ids, dtype=np.int64), np.array(scores, dtype=np.float64), np.array(ids, dtype=np.int64)
        boxes = [pool[g] for g in ids]
        with mock.patch.object(decode, "SMALL_NMS", small):
            want = decode.nms_indices(class_ids, scores, ids, pool, score_threshold, nms_iou)
            assert decode.nms_indices(*arrays, pool, score_threshold, nms_iou) == want
            assert decode.nms_indices(class_ids, scores, None, boxes, score_threshold, nms_iou) == want
            assert decode.nms_indices(*arrays[:2], None, boxes, score_threshold, nms_iou) == want
        candidates = [CandidateBox(c, box, p, 0.5) for c, box, p in zip(class_ids, boxes, scores)]
        assert [id(candidates[i]) for i in want] == [id(b) for b in per_class_nms(candidates, score_threshold, nms_iou)]


def wide_grid(seed: int, n_classes: int = 8) -> tuple[RawGrid, AnchorSet]:
    """A random-logit 13x13x5 grid, the ``wide`` workload's shape, whose 4x4
    top-left cells copy one slot's non-box logits: those 80 slots tie in every
    class's confidence, and many of their boxes overlap."""
    rng = np.random.default_rng(seed)
    s, b = 13, 5
    values = rng.standard_normal((s, s, b, attr_width(n_classes)))
    values[:4, :4, :, ATTR_ACT:] = values[0, 0, 0, ATTR_ACT:]
    anchors = AnchorSet(tuple((float(w), float(h)) for w, h in rng.uniform(1.0, 11.0, size=(b, 2))))
    return RawGrid(s, b, n_classes, values), anchors


class TestWideShapedNms:
    """Threshold + NMS on frames of the ``wide`` shape, where every class takes
    the overlap-matrix path, against the scalar oracle."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_select_candidates_and_nms_frame_match_scalar_nms(self, seed):
        config = RunConfig()
        decoded = decode_grid(*wide_grid(seed))
        candidates = scalar_candidates(decoded, config.score_threshold)
        per_class = Counter(bx.class_id for bx in candidates)
        assert len(per_class) == 8 and min(per_class.values()) > 40 * decode.SMALL_NMS
        tied = [bx for bx in candidates if bx.class_id == 0 and bx.confidence == candidates[0].confidence]
        assert len(tied) == 80 and any(box_iou(a.geometry, tied[0].geometry) > config.nms_iou for a in tied[1:])
        want = per_class_nms(candidates, config.score_threshold, config.nms_iou)
        assert survivor_boxes(select_candidates(decoded, config.score_threshold, config.nms_iou)) == want
        got = nms_frame(candidates, config.score_threshold, config.nms_iou)
        assert [id(bx) for bx in got] == [id(bx) for bx in want]

    def test_run_decode_builds_no_candidate_box(self, tmp_path, monkeypatch):
        grid, anchors = wide_grid(0, n_classes=24)
        grids, det = str(tmp_path / "grids.txt"), str(tmp_path / "det.txt")
        write_rawgrids(grids, anchors, [("v", 1, grid), ("v", 2, grid)], (13, 5, 24))
        with built_candidate_boxes(monkeypatch) as built:
            n = run_decode(RunConfig(), grids, det)
            assert n > 2000 and built == []
            assert sum(1 for _ in iter_detection_rows(det)) == len(built) == n  # the count sees a parse's boxes

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n", [63, 64, 65, 129, 300])
    def test_overlap_matrix_is_box_iou_pair_by_pair(self, seed, n):
        # n of the 845 slots: one block short of full, full, one past full, two
        # blocks and one past, and four full row blocks and a partial one, so the
        # reused block buffers are used whole, in part and for a last narrow block.
        assert decode.OVERLAP_BLOCK == 64
        geometry = decode_grid(*wide_grid(seed)).geometry.reshape(-1, 4)[:n]
        over = decode.overlap_matrix(geometry, 0.45)
        boxes = [tuple(g) for g in geometry.tolist()]
        assert over.tolist() == [[box_iou(a, b) > 0.45 for b in boxes] for a in boxes]
        assert (over == over.T).all() and 0 < over.sum() < over.size


@contextmanager
def built_candidate_boxes(monkeypatch):
    """A list that gains the fields of every ``CandidateBox`` built inside the block, by any module."""
    built, init = [], CandidateBox.__init__

    def counting_init(self, *fields):
        built.append(fields)
        init(self, *fields)

    with monkeypatch.context() as patch:
        patch.setattr(CandidateBox, "__init__", counting_init)
        yield built


def decode_matches_scalar_oracle(tmp_path, monkeypatch, grid: RawGrid, anchors: AnchorSet, config: RunConfig) -> int:
    """Assert that ``run_decode`` writes, row for row, what the scalar decode
    (``scalar_candidates``) and scalar NMS (``per_class_nms``) keep of the
    grid as the file holds it, and that it builds no ``CandidateBox``; returns
    the row count."""
    dims = (grid.s_cells, grid.n_anchors, grid.n_classes)
    grids, out = tmp_path / "grids.txt", tmp_path / "det.txt"
    write_rawgrids(str(grids), anchors, [("v", 1, grid)], dims)
    with built_candidate_boxes(monkeypatch) as built:
        n = run_decode(config, str(grids), str(out))

    _, anchors_read, frames = read_rawgrids(str(grids))
    ((_, _, grid_read),) = list(frames)
    boxes = scalar_candidates(decode_grid(grid_read, anchors_read), config.score_threshold)
    kept = per_class_nms(boxes, config.score_threshold, config.nms_iou)
    want = [DETECTIONS_HEADER] + [detection_line("v", 1, box) for box in kept]
    # Line lists, so that a failure reports the first differing row quickly.
    assert out.read_text(encoding="utf-8").splitlines() == want
    assert n == len(kept) and built == []
    return n


def adversarial_grid(name: str) -> tuple[RawGrid, AnchorSet]:
    rng = np.random.default_rng(5)
    anchor_size = (1.0, 3.0)
    if name == "clipped_ties":
        # Huge size logits clip every slot to the unit square, and equal
        # logits tie every confidence: each class keeps its first slot.
        s, b, c = 4, 2, 3
        values = np.zeros((s, s, b, attr_width(c)))
        values[..., 2:4] = 8.0
    elif name == "lattice_ties":
        # Logits from a few values: repeated geometries, some clipped, and
        # confidences tied within and across classes.
        s, b, c = 4, 2, 2
        values = rng.choice([-1.0, 0.0, 2.0], size=(s, s, b, attr_width(c)))
    else:
        # Class 0 has exactly SMALL_NMS candidates, class 1 one more and
        # class 2 a single one; the rest score far below the threshold.
        # Anchors of several cells make the boxes overlap.
        s, b, c = 6, 1, 3
        anchor_size = (3.0, 6.0)
        values = rng.normal(0.0, 0.7, size=(s, s, b, attr_width(c)))
        values[..., 2:4] = 0.0
        values[..., 5 + c : 5 + 2 * c] = -60.0
        slots = rng.permutation(s * s)
        sizes = (decode.SMALL_NMS, decode.SMALL_NMS + 1, 1)
        for class_id, size in enumerate(sizes):
            prog = values[..., 5 + c + class_id].reshape(-1)
            prog[slots[:size]] = 3.0
            values[..., 5 + c + class_id] = prog.reshape(s, s, b)
    anchors = AnchorSet(tuple((float(w), float(h)) for w, h in rng.uniform(*anchor_size, size=(b, 2))))
    return RawGrid(s, b, c, values), anchors


class TestSurvivorsOnlyDecode:
    """``run_decode`` runs threshold + NMS on arrays and builds objects only
    for the survivors; it must write exactly what the scalar path keeps."""

    @pytest.mark.parametrize("name", ["clipped_ties", "lattice_ties", "small_list_sizes"])
    @pytest.mark.parametrize("config", [RunConfig(), RunConfig(score_threshold=0.05, nms_iou=0.2)], ids=["default", "tight"])
    def test_adversarial_grids_match_scalar_oracle(self, tmp_path, monkeypatch, name, config):
        grid, anchors = adversarial_grid(name)
        n = decode_matches_scalar_oracle(tmp_path, monkeypatch, grid, anchors, config)
        if name == "clipped_ties":
            assert n == grid.n_classes

    def test_small_list_sizes_straddle_the_scalar_path(self):
        grid, anchors = adversarial_grid("small_list_sizes")
        decoded = decode_grid(grid, anchors)
        counts = Counter(bx.class_id for bx in scalar_candidates(decoded, RunConfig().score_threshold))
        assert [counts[c] for c in range(3)] == [decode.SMALL_NMS, decode.SMALL_NMS + 1, 1]


@st.composite
def finite_grids(draw):
    """A raw-grid file's contents: small dims, any finite logits (extremes
    included, where sizes overflow or vanish) and any positive anchors."""
    s, b, c = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    logit = st.one_of(st.floats(-60.0, 60.0), st.floats(allow_nan=False, allow_infinity=False))
    values = draw(st.lists(logit, min_size=s * s * b * attr_width(c), max_size=s * s * b * attr_width(c)))
    size = st.floats(1e-12, 1e6)
    anchors = AnchorSet(tuple(draw(st.tuples(size, size)) for _ in range(b)))
    return (s, b, c), anchors, np.array(values, dtype=np.float64)


class TestDecodeOutputParses:
    """Whatever finite grid comes in, link can read what decode writes."""

    def decode_and_parse(self, dims, anchors, values):
        with tempfile.TemporaryDirectory() as work:
            grids, det = os.path.join(work, "g.txt"), os.path.join(work, "det.txt")
            write_rawgrids(grids, anchors, [("v", 1, RawGrid(*dims, values))], dims)
            n = run_decode(RunConfig(score_threshold=0.0), grids, det)
            assert sum(1 for _ in iter_detection_rows(det)) == n
            return n

    @given(finite_grids())
    @example(((1, 1, 2), AnchorSet(((1.0, 1.0),)), np.array([0.0] * 5 + [-1.7e308, 1.7e308] + [0.0] * 4)))
    @settings(max_examples=150, deadline=None)
    def test_any_finite_grid(self, grid):
        self.decode_and_parse(*grid)

    def test_vanishing_width_is_dropped(self):
        # A w-logit of -45 puts the half-width below the center's ulp; it is
        # floored at MIN_HALF_SIZE, far too narrow to be a candidate.
        values = np.zeros(attr_width(1))
        values[2] = -45.0
        anchors = AnchorSet(((1.0, 1.0),))
        half = decode.MIN_HALF_SIZE
        assert decode_grid(RawGrid(1, 1, 1, values), anchors).geometry.tolist() == [[[[0.5 - half, 0.0, 0.5 + half, 1.0]]]]
        assert self.decode_and_parse((1, 1, 1), anchors, values) == 0

    def test_overflowing_width_is_full_width_without_warning(self):
        # A w-logit of 1000 overflows exp; the infinite half-width clips to the unit square.
        values = np.zeros(attr_width(1))
        values[2] = 1000.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            geometry = decode_grid(RawGrid(1, 1, 1, values), AnchorSet(((1.0, 1.0),))).geometry
        assert geometry.tolist() == [[[[0.0, 0.0, 1.0, 1.0]]]]

    @pytest.mark.parametrize("logit, limit", [(1000.0, 1.0), (-1000.0, 0.0)])
    def test_overflowing_activations_are_exact_limits_without_warning(self, logit, limit):
        # exp(-x) overflows below about -709 and x - max(x) overflows for the two
        # class logits; each inf gives the exact limit.
        values = np.zeros(attr_width(2))
        values[[0, 1, ATTR_ACT, 7, 8, 9, 10]] = logit
        values[5:7] = -1.7e308, 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decoded = decode_grid(RawGrid(1, 1, 2, values), AnchorSet(((1.0, 1.0),)))
        assert decoded.actionness.tolist() == [[[limit]]]
        assert decoded.progression.tolist() == decoded.rates.tolist() == [[[[limit, limit]]]]
        assert decoded.class_scores.tolist() == [[[[0.0, 1.0]]]]
        low = 0.5 * limit  # the center is a cell corner; the clipped box is a quarter of the cell
        assert decoded.geometry.tolist() == [[[[low, low, low + 0.5, low + 0.5]]]]


_unit_open_high = st.floats(0.0, 1.0, exclude_max=True)
_unit_open = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
_unit = st.floats(0.0, 1.0)
_low_threshold = st.sampled_from([0.0, 1e-3]) | _unit_open_high  # low ones keep boxes to link


@st.composite
def chain_inputs(draw):
    """Raw grids of a few frames with any finite logits, annotations on those
    frames, and any valid ``RunConfig``."""
    s, b, c = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    n_values = s * s * b * attr_width(c)
    logit = st.one_of(st.floats(-60.0, 60.0), st.floats(allow_nan=False, allow_infinity=False))
    n_frames = draw(st.integers(1, 4))
    frames = [np.array(draw(st.lists(logit, min_size=n_values, max_size=n_values))) for _ in range(n_frames)]
    size = st.floats(1e-12, 1e6)
    anchors = AnchorSet(tuple(draw(st.tuples(size, size)) for _ in range(b)))
    gt = []
    for _ in range(draw(st.integers(1, 2))):
        t_start = draw(st.integers(1, n_frames))
        t_end = draw(st.integers(t_start, n_frames))
        box = draw(st.sampled_from([(0.0, 0.0, 1.0, 1.0), (0.1, 0.2, 0.6, 0.7), (0.5, 0.5, 0.75, 0.9)]))
        gt.append(GroundTruthTube("v", draw(st.integers(0, c - 1)), t_start, t_end, (box,) * (t_end - t_start + 1)))
    alphas = st.one_of(_unit, st.tuples(*[_unit] * c))
    config = RunConfig(
        iou_gate=draw(_unit_open),
        window=draw(st.integers(1, 4)),
        max_tubes=draw(st.integers(1, 3)),
        score_floor=draw(_low_threshold),
        alphas=draw(alphas),
        score_threshold=draw(_low_threshold),
        nms_iou=draw(_unit_open),
        deltas=tuple(draw(st.lists(_unit, min_size=1, max_size=3))),
        frame_threshold=draw(_unit),
    )
    return (s, b, c), anchors, frames, gt, config


class TestWholeChainContract:
    """Decode -> link -> eval on any finite grids and any valid settings:
    every stage's output parses in the next stage and every report value is
    a fraction.  The inputs are valid, so no stage may raise at all; a
    ``RecordError`` here would mean a stage wrote a file the next rejects."""

    @given(chain_inputs())
    @settings(max_examples=60, deadline=None)
    def test_any_finite_grid_and_valid_config(self, inputs):
        dims, anchors, frames, gt, config = inputs
        with tempfile.TemporaryDirectory() as work:
            grids, det, tubes, ann, report = (
                os.path.join(work, name) for name in ("g.txt", "det.txt", "tubes.txt", "ann.txt", "report.csv")
            )
            write_rawgrids(grids, anchors, [("v", t, RawGrid(*dims, v)) for t, v in enumerate(frames, 1)], dims)
            write_annotations(ann, gt)
            with np.errstate(over="ignore"):
                n_boxes = run_decode(config, grids, det)
            assert sum(1 for _ in iter_detection_rows(det)) == n_boxes
            n_tubes = run_link(config, det, tubes, work)
            assert len(parse_tubes(tubes)) == n_tubes
            result = run_eval(dataclasses.replace(config, report=report), tubes, ann, det)
            with open(report, encoding="utf-8", newline="") as fh:
                written = [float(row[3]) for row in list(csv.reader(fh))[1:]]
        values = [value for *_, value in result.rows()]
        assert len(written) == len(values) > 0
        assert all(0.0 <= v <= 1.0 for v in written + values)
