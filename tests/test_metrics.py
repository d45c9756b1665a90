"""Evaluation stack: overlaps, AP machinery, frame/video mAP, temporal recovery."""

import random
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metrics_oracle
from helpers import random_box
from tubestream import metrics
from tubestream.config import RunConfig
from tubestream.decode import CandidateBox
from tubestream.geometry import box_iou, box_iou_array, temporal_iou
from tubestream.metrics import (
    DEFAULT_TUBE_THRESHOLDS,
    VMAP_AVG_BAND,
    average_precisions,
    average_temporal_iou,
    evaluate,
    frame_map,
    tube_iou,
    video_map,
)
from tubestream.linker import FRAME_MAX, FRAME_MIN
from tubestream.pipeline import run_link
from tubestream.records import (
    DETECTIONS_HEADER,
    DetectionWriter,
    iter_detection_frames,
    parse_annotations,
    parse_tubes,
    write_annotations,
)
from tubestream.synthetic import ScenarioSpec, TrackSpec, generate
from tubestream.tubes import FinalTube, GroundTruthTube


# Boxes on a quarter grid: their overlaps tie often and hit 0.25, 0.5 and
# 0.75 exactly, the thresholds where strict ">" decides.
_QUARTERS = (0.0, 0.25, 0.5, 0.75, 1.0)
DYADIC_BOXES = tuple(
    (x1, y1, x2, y2)
    for x1 in _QUARTERS
    for x2 in _QUARTERS
    if x1 < x2
    for y1 in _QUARTERS
    for y2 in _QUARTERS
    if y1 < y2
)


def gt(video, class_id, t_start, t_end, box=(0.1, 0.1, 0.6, 0.6)):
    return GroundTruthTube(video, class_id, t_start, t_end, (box,) * (t_end - t_start + 1))


def det(video, class_id, t_start, t_end, score, box=(0.1, 0.1, 0.6, 0.6)):
    return FinalTube(video, class_id, t_start, t_end, score, tuple((f, box) for f in range(t_start, t_end + 1)))


def box_pairs(dets, gts):
    """The (det, gt, overlap) pairs of (score, group, box) detections and
    (group, box) ground truths in the same group, overlap being box IoU."""
    pairs = ([], [], [])
    for i, (_, group, box) in enumerate(dets):
        for j, (gt_group, gt_box) in enumerate(gts):
            if gt_group == group:
                pairs[0].append(i)
                pairs[1].append(j)
                pairs[2].append(box_iou(box, gt_box))
    return pairs


def average_precision(dets, gts, threshold):
    return average_precisions([d[0] for d in dets], box_pairs(dets, gts), len(gts), (threshold,))[0]


class TestOverlaps:
    def test_box_iou_identity(self):
        assert box_iou((0.1, 0.2, 0.5, 0.8), (0.1, 0.2, 0.5, 0.8)) == 1.0

    def test_box_iou_disjoint(self):
        assert box_iou((0, 0, 0.2, 0.2), (0.5, 0.5, 0.9, 0.9)) == 0.0

    def test_box_iou_one_third(self):
        assert box_iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(1 / 3, abs=1e-9)

    def test_temporal_iou_identity_and_disjoint(self):
        assert temporal_iou((1, 10), (1, 10)) == 1.0
        assert temporal_iou((1, 5), (6, 10)) == 0.0

    def test_temporal_iou_one_third(self):
        assert temporal_iou((1, 10), (6, 15)) == pytest.approx(1 / 3, abs=1e-9)

    @given(
        st.tuples(st.floats(0, 0.8), st.floats(0, 0.8), st.floats(0.05, 0.2), st.floats(0.05, 0.2)),
        st.tuples(st.floats(0, 0.8), st.floats(0, 0.8), st.floats(0.05, 0.2), st.floats(0.05, 0.2)),
    )
    @settings(max_examples=80, deadline=None)
    def test_box_iou_symmetric_bounded(self, a, b):
        box_a = (a[0], a[1], a[0] + a[2], a[1] + a[3])
        box_b = (b[0], b[1], b[0] + b[2], b[1] + b[3])
        v = box_iou(box_a, box_b)
        assert v == box_iou(box_b, box_a)
        assert 0.0 <= v <= 1.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_box_iou_array_is_box_iou(self, seed):
        # Quarter-grid boxes touch, nest and coincide; random ones round.
        rng = np.random.default_rng(seed)
        boxes = [DYADIC_BOXES[k] for k in rng.integers(0, len(DYADIC_BOXES), 40)]
        boxes += [random_box(rng) for _ in range(40)]
        pairs = [(boxes[i], boxes[j]) for i, j in rng.integers(0, len(boxes), (80, 2))]
        a, b = (np.array(side, dtype=np.float64) for side in zip(*pairs))
        assert box_iou_array(a, b).tolist() == [box_iou(x, y) for x, y in pairs]


class TestTubeIou:
    def test_perfect_overlap(self):
        assert tube_iou(det("v", 0, 1, 10, 0.9), gt("v", 0, 1, 10)) == pytest.approx(1.0, abs=1e-9)

    def test_product_of_components(self):
        # Mean spatial IoU 0.8 over the overlap, temporal IoU 0.5 -> 0.4.
        g = GroundTruthTube("v", 0, 1, 10, ((0.0, 0.0, 1.0, 1.0),) * 10)
        d = FinalTube("v", 0, 6, 20, 0.9, tuple((f, (0.0, 0.0, 1.0, 0.8)) for f in range(6, 21)))
        assert temporal_iou((6, 20), (1, 10)) == pytest.approx(0.25)
        assert tube_iou(d, g) == pytest.approx(0.8 * 0.25, abs=1e-9)
        d_matching_range = FinalTube("v", 0, 6, 15, 0.9, tuple((f, (0.0, 0.0, 1.0, 0.8)) for f in range(6, 16)))
        assert tube_iou(d_matching_range, g) == pytest.approx(0.8 * temporal_iou((6, 15), (1, 10)), abs=1e-9)

    def test_temporally_disjoint_is_zero(self):
        assert tube_iou(det("v", 0, 11, 20, 0.9), gt("v", 0, 1, 10)) == 0.0

    def test_missing_frames_count_as_zero_overlap(self):
        entries = tuple((f, (0.1, 0.1, 0.6, 0.6)) for f in (1, 3))
        d = FinalTube("v", 0, 1, 3, 0.9, entries)
        g = gt("v", 0, 1, 3)
        assert tube_iou(d, g) == pytest.approx(2 / 3, abs=1e-9)

    @given(st.integers(0, 5_000))
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_components(self, seed):
        rng = np.random.default_rng(seed)
        t0, l0 = int(rng.integers(1, 20)), int(rng.integers(1, 15))
        t1, l1 = int(rng.integers(1, 20)), int(rng.integers(1, 15))
        g = gt("v", 0, t0, t0 + l0, random_box(rng))
        d = det("v", 0, t1, t1 + l1, 0.5, random_box(rng))
        t = temporal_iou((d.t_start, d.t_end), (g.t_start, g.t_end))
        assert 0.0 <= tube_iou(d, g) <= t <= 1.0


class TestAveragePrecision:
    def test_single_match(self):
        ap = average_precision([(0.9, "v", (0, 0, 1, 1))], [("v", (0, 0, 1, 1))], 0.5)
        assert ap == 1.0

    def test_fp_then_tp(self):
        dets = [(0.9, "v", (0.6, 0.6, 0.9, 0.9)), (0.8, "v", (0, 0, 0.5, 0.5))]
        ap = average_precision(dets, [("v", (0, 0, 0.5, 0.5))], 0.5)
        assert ap == pytest.approx(0.5, abs=1e-9)

    def test_no_matches(self):
        ap = average_precision([(0.9, "v", (0.6, 0.6, 0.9, 0.9))], [("v", (0, 0, 0.2, 0.2))], 0.5)
        assert ap == 0.0

    def test_strictly_above_threshold_required(self):
        # IoU exactly at the threshold is a miss.
        ap = average_precision([(0.9, "v", (0, 0, 1, 0.5))], [("v", (0, 0, 1, 1))], 0.5)
        assert ap == 0.0

    def test_overlap_tie_goes_to_earlier_ground_truth(self):
        # The first detection overlaps both ground truths by 1/3 and takes the
        # earlier one, which the second detection then cannot have.
        dets = [(0.9, "v", (0.25, 0.0, 0.75, 1.0)), (0.8, "v", (0.0, 0.0, 0.5, 1.0))]
        gts = [("v", (0.0, 0.0, 0.5, 1.0)), ("v", (0.5, 0.0, 1.0, 1.0))]
        assert average_precision(dets, gts, 0.3) == 0.5
        assert average_precision(dets, gts[::-1], 0.3) == 1.0

    def test_terms_add_in_rank_order(self):
        # Eight hits on ten annotations: 1/10 added eight times in rank order
        # rounds to 0.7999999999999999, where a pairwise sum gives 0.8.
        dets = [(0.9, "v", (0, 0, 1, 1))] * 8
        gts = [("v", (0, 0, 1, 1))] * 10
        assert average_precision(dets, gts, 0.5) == 0.7999999999999999
        assert metrics_oracle.average_precision(dets, gts, box_iou, 0.5) == 0.7999999999999999

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_rank_only_dependence(self, seed):
        rng = np.random.default_rng(seed)
        dets = [(float(s), "v", random_box(rng)) for s in np.sort(rng.uniform(0, 1, 6))[::-1]]
        gts = [("v", random_box(rng)) for _ in range(3)]
        base = average_precision(dets, gts, 0.3)
        squashed = [(s**3 + 1.0, g, b) for s, g, b in dets]  # strictly monotone rescale
        assert average_precision(squashed, gts, 0.3) == pytest.approx(base, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_matcher(self, seed):
        # Naive transcription of the matching rule: walk detections by
        # descending score, rescan every unmatched ground truth each time.
        rng = np.random.default_rng(seed)
        dets = [(float(rng.uniform(0, 1)), "v", random_box(rng)) for _ in range(int(rng.integers(0, 5)))]
        gts = [("v", random_box(rng)) for _ in range(int(rng.integers(0, 5)))]
        threshold = float(rng.choice([0.1, 0.3, 0.5]))

        order = sorted(range(len(dets)), key=lambda i: -dets[i][0])
        matched = set()
        flags = []
        for i in order:
            best, best_ov = None, 0.0
            for j, (_, g) in enumerate(gts):
                if j in matched:
                    continue
                ov = box_iou(dets[i][2], g)
                if ov > best_ov:
                    best, best_ov = j, ov
            if best is not None and best_ov > threshold:
                matched.add(best)
                flags.append(True)
            else:
                flags.append(False)
        expected = 0.0
        if gts:
            tp = 0
            for k, flag in enumerate(flags):
                if flag:
                    tp += 1
                    best_prec = max(
                        (sum(flags[: m + 1]) / (m + 1)) for m in range(k, len(flags))
                    )
                    expected += best_prec / len(gts)
        assert average_precision(dets, gts, threshold) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_every_threshold_at_once_matches_the_oracle(self, seed):
        # Coarse boxes and scores make overlap ties, score ties and overlaps
        # equal to a threshold common; two groups share the ground truths.
        # The negative threshold shows that an overlap of 0 never matches.
        rng = np.random.default_rng(seed)
        boxes = [DYADIC_BOXES[k] for k in rng.integers(0, len(DYADIC_BOXES), 12)]
        n_dets, n_gts = int(rng.integers(0, 7)), int(rng.integers(0, 5))
        dets = [(float(rng.choice([0.3, 0.6, 0.9])), str(rng.integers(0, 2)), boxes[k]) for k in range(n_dets)]
        gts = [(str(rng.integers(0, 2)), boxes[6 + k]) for k in range(n_gts)]
        thresholds = (0.25, 0.5, 0.1, 0.75, 0.5, -1.0)
        got = average_precisions([d[0] for d in dets], box_pairs(dets, gts), len(gts), thresholds)
        assert got == [metrics_oracle.average_precision(dets, gts, box_iou, d) for d in thresholds]


class TestFrameMap:
    def test_perfect_detection(self):
        tubes = [gt("v", 0, 1, 3)]
        dets = [("v", f, 0, 0.9, (0.1, 0.1, 0.6, 0.6)) for f in (1, 2, 3)]
        value, per_class = frame_map(dets, tubes)
        assert value == 1.0 and per_class == {0: 1.0}

    def test_shifted_box_below_threshold_is_fp(self):
        tubes = [GroundTruthTube("v", 0, 1, 1, ((0.0, 0.0, 1.0, 1.0),))]
        dets = [("v", 1, 0, 0.9, (0.0, 0.0, 1.0, 0.49))]
        value, _ = frame_map(dets, tubes, threshold=0.5)
        assert value == 0.0

    def test_two_class_hand_fixture(self):
        # Class 0: GT at frames 1 and 2; detections TP(0.9), FP(0.8), TP(0.7)
        #   -> precision 1 at recall 1/2, 2/3 at recall 1 -> AP 5/6.
        # Class 1: GT at frame 4; detections FP(0.95), TP(0.5) -> AP 1/2.
        g = (0.1, 0.1, 0.5, 0.5)
        far = (0.6, 0.6, 0.9, 0.9)
        tubes = [gt("v", 0, 1, 2, g), gt("v", 1, 4, 4, g)]
        dets = [
            ("v", 1, 0, 0.9, g),
            ("v", 3, 0, 0.8, g),
            ("v", 2, 0, 0.7, g),
            ("v", 4, 1, 0.95, far),
            ("v", 4, 1, 0.5, g),
        ]
        value, per_class = frame_map(dets, tubes)
        assert per_class[0] == pytest.approx(5 / 6, abs=1e-9)
        assert per_class[1] == pytest.approx(1 / 2, abs=1e-9)
        assert value == pytest.approx((5 / 6 + 1 / 2) / 2, abs=1e-9)


def reader_rows(path):
    """A detections file's rows in ``frame_map``'s shape, as ``run_eval`` streams them."""
    for video_id, frame, class_ids, confidences, _, box_ids, boxes in iter_detection_frames(str(path)):
        for class_id, conf, box_id in zip(class_ids, confidences, box_ids):
            yield video_id, frame, class_id, conf, boxes[box_id]


def dict_pairs(rows, gt_tubes, class_id):
    """One class's ``average_precisions`` inputs as ``frame_map`` built them
    with one dict key per annotated (video, frame)."""
    gt_boxes, at = [], {}
    for t in gt_tubes:
        if t.class_id == class_id:
            for f, bx in enumerate(t.boxes, t.t_start):
                at.setdefault((t.video_id, f), []).append(len(gt_boxes))
                gt_boxes.append(bx)
    own = [row for row in rows if row[2] == class_id]
    det, gt = [], []
    for i, (video_id, frame, _, _, _) in enumerate(own):
        for j in at.get((video_id, frame), ()):
            det.append(i)
            gt.append(j)
    overlap = [box_iou(own[i][4], gt_boxes[j]) for i, j in zip(det, gt)]
    return [row[3] for row in own], det, gt, overlap, len(gt_boxes)


def spelled(frame: int, how: int) -> str:
    """One of the frame spellings the detections reader accepts."""
    sign, digits = ("-" if frame < 0 else ""), str(abs(frame))
    if how == 1:
        return f"{sign or '+'}0{digits}"
    if how == 2 and len(digits) > 1:
        return f"{sign}{digits[0]}_{digits[1:]}"
    if how == 3:
        return f"\t{frame}\x0b"
    return str(frame)


# Frames at both ends of the record range and about zero.
_CENTERS = (FRAME_MIN, -2, FRAME_MAX - 3)


@st.composite
def spelled_detection_sets(draw):
    """Annotations of two classes and a detections file's text over two
    videos, whose frames sit at ``_CENTERS`` and are spelled every way the
    reader accepts; several spans of a (class, video) may cover a frame."""
    frame = st.builds(lambda c, k: c + k, st.sampled_from(_CENTERS), st.integers(0, 3))
    gt_tubes = []
    for _ in range(draw(st.integers(1, 8))):
        t0, n = draw(frame), draw(st.integers(1, 4))
        t0 = min(t0, FRAME_MAX - n + 1)
        boxes = tuple(draw(st.lists(st.sampled_from(DYADIC_BOXES[::5]), min_size=n, max_size=n)))
        gt_tubes.append(GroundTruthTube(draw(st.sampled_from("ab")), draw(st.integers(0, 1)), t0, t0 + n - 1, boxes))
    lines = [DETECTIONS_HEADER]
    for video_id in "ab":
        for f in sorted(draw(st.lists(frame, max_size=12))):
            x1, y1, x2, y2 = draw(st.sampled_from(DYADIC_BOXES[::5]))
            how, class_id, score = draw(st.integers(0, 3)), draw(st.integers(0, 2)), draw(st.sampled_from((0.25, 0.5)))
            lines.append(f"{video_id} {spelled(f, how)} {class_id} {x1} {y1} {x2} {y2} {score} 0.5")
    return gt_tubes, "\n".join(lines) + "\n"


class TestFrameMapStreaming:
    """``frame_map`` keeps a score per row and, per annotation on the row's
    frame, an index pair and the row's box: never the row itself."""

    @given(spelled_detection_sets())
    @settings(max_examples=150, deadline=None)
    def test_pairs_are_the_frame_dicts(self, data):
        # Span arithmetic (base + frame) numbers the annotations exactly as
        # a dict keyed by (video, frame) did, for every frame the reader yields.
        gt_tubes, text = data
        calls = []
        original = metrics.average_precisions

        def spy(scores, pairs, n_gt, thresholds):
            calls.append((list(scores), list(pairs[0]), list(pairs[1]), list(pairs[2]), n_gt))
            return original(scores, pairs, n_gt, thresholds)

        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "det.txt"
            path.write_text(text, encoding="utf-8")
            rows = list(reader_rows(path))
            metrics.average_precisions = spy
            try:
                frame_map(reader_rows(path), gt_tubes)
            finally:
                metrics.average_precisions = original
        assert all(type(row[1]) is int for row in rows)
        classes = sorted({t.class_id for t in gt_tubes})
        assert calls == [dict_pairs(rows, gt_tubes, c) for c in classes]

    def test_synthetic_set_matches_oracle(self, tmp_path):
        # Several videos, overlapping same-class actions, context and
        # distractors; rows in reader order and shuffled.
        tracks = (
            TrackSpec(0, 3, 20, (0.1, 0.1, 0.4, 0.5), (0.3, 0.2, 0.6, 0.6)),
            TrackSpec(0, 12, 30, (0.5, 0.4, 0.9, 0.9), (0.4, 0.3, 0.8, 0.8)),
            TrackSpec(1, 8, 26, (0.2, 0.5, 0.5, 0.9), (0.2, 0.5, 0.5, 0.9)),
        )
        gt_tubes = []
        with DetectionWriter(str(tmp_path / "det.txt")) as writer:
            for k in range(3):
                spec = ScenarioSpec(
                    n_frames=32, n_classes=3, tracks=tracks[k % 2 :], geometry_jitter=0.03,
                    context_score=(0.4, 0.9), distractor_rate=1.0, seed=k, video_id=f"v{k}",
                )
                stream, tubes = generate(spec)
                gt_tubes += tubes
                for t in stream.ordered_frames():
                    for bx in stream.boxes_at(t):
                        writer.add(stream.video_id, t, bx)
        write_annotations(str(tmp_path / "ann.txt"), gt_tubes)
        run_link(RunConfig(alphas=1.0), str(tmp_path / "det.txt"), str(tmp_path / "tubes.txt"))
        tubes, gt_tubes = parse_tubes(str(tmp_path / "tubes.txt")), parse_annotations(str(tmp_path / "ann.txt"))
        rows = list(reader_rows(tmp_path / "det.txt"))
        assert 200 <= len(rows) <= 600 and tubes
        shuffled = rows[:]
        random.Random(0).shuffle(shuffled)
        for order in (rows, shuffled):
            oracle_rows = [(v, f, CandidateBox(c, bx, p, 0.0)) for v, f, c, p, bx in order]
            got = evaluate(tubes, gt_tubes, iter(order))
            want = metrics_oracle.evaluate(tubes, gt_tubes, oracle_rows)
            assert got.rows() == want.rows()
            assert 0.0 < got.f_map < 1.0

    @pytest.mark.parametrize("boxes", [[(0.1, 0.1, 0.6)], [(0.1, 0.1, 0.6, 0.6, 0.6)], [(0.1, 0.1, 0.6), (0, 0, 1, 1, 1)]])
    def test_box_not_four_numbers_raises(self, boxes):
        # A row of three numbers and one of five are eight coordinates: they
        # must not pass as two misaligned boxes.
        rows = [("v", f, 0, 0.9, box) for f, box in enumerate(boxes, 1)]
        with pytest.raises(ValueError):
            frame_map(rows, [gt("v", 0, 1, 4)])

    def test_memory_per_row_and_pair(self):
        # About 100k fresh rows, as a parser yields them: a third of a class
        # without annotations, most others on frames without one, some on
        # annotated frames.  Keeping each row costs hundreds of bytes.
        n_videos, n_frames, classes = 4, 8000, (0, 1, 2)
        gt_tubes = [
            GroundTruthTube(f"v{v}", c, t0, t0 + 19, ((0.1, 0.1, 0.6, 0.6),) * 20)
            for v in range(n_videos)
            for c in (0, 1)
            for t0 in range(100 * c + 10, n_frames, 1000)
        ]

        def stream():
            for v in range(n_videos):
                video_id = f"v{v}"
                for f in range(n_frames):
                    for c in classes:
                        yield video_id, f, c, (f * 7919 % 1000) / 1000, (0.1, 0.1, 0.5 + c / 10, 0.6 + f / 1e4)

        n_rows = n_videos * n_frames * len(classes)
        n_pairs = sum(t.length for t in gt_tubes)
        tracemalloc.start()
        try:
            frame_map(stream(), gt_tubes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * n_rows + 64 * n_pairs + 256 * 1024


class TestVideoMap:
    def test_perfect_tubes_everywhere_one(self):
        tubes = [det("v", 0, 1, 10, 0.9)]
        annotations = [gt("v", 0, 1, 10)]
        v_map, _ = video_map(tubes, annotations)
        assert all(v == 1.0 for v in v_map.values())

    def test_threshold_ladder(self):
        # One tube with tube-IoU 0.8 x 0.5 = 0.4: TP at 0.1/0.2/0.3, FP at >= 0.5.
        g = GroundTruthTube("v", 0, 1, 10, ((0.0, 0.0, 1.0, 1.0),) * 10)
        d = FinalTube("v", 0, 6, 10, 0.9, tuple((f, (0.0, 0.0, 1.0, 0.8)) for f in range(6, 11)))
        assert tube_iou(d, g) == pytest.approx(0.4, abs=1e-9)
        v_map, _ = video_map([d], [g], thresholds=(0.1, 0.2, 0.3, 0.5, 0.75))
        assert v_map[0.1] == v_map[0.2] == v_map[0.3] == 1.0
        assert v_map[0.5] == v_map[0.75] == 0.0

    def test_empty_detections_zero(self):
        v_map, _ = video_map([], [gt("v", 0, 1, 5)])
        assert all(v == 0.0 for v in v_map.values())

    @given(st.integers(0, 5_000))
    @settings(max_examples=40, deadline=None)
    def test_nonincreasing_in_threshold(self, seed):
        rng = np.random.default_rng(seed)
        annotations = [gt("v", 0, 1, 10, random_box(rng)) for _ in range(2)]
        tubes = [det("v", 0, int(rng.integers(1, 6)), int(rng.integers(6, 14)), float(rng.uniform(0, 1)), random_box(rng)) for _ in range(3)]
        v_map, _ = video_map(tubes, annotations, thresholds=DEFAULT_TUBE_THRESHOLDS)
        ordered = [v_map[d] for d in sorted(v_map)]
        assert all(a >= b - 1e-12 for a, b in zip(ordered, ordered[1:]))


class TestAverageTemporalIou:
    def test_exact_recovery(self):
        by_overlap, by_score = average_temporal_iou([det("v", 0, 1, 20, 0.9)], [gt("v", 0, 1, 20)])
        assert by_overlap[0] == 1.0 and by_score[0] == 1.0

    def test_missing_tube_contributes_zero(self):
        by_overlap, _ = average_temporal_iou([], [gt("v", 0, 1, 20)])
        assert by_overlap[0] == 0.0

    def test_partial_recovery(self):
        by_overlap, _ = average_temporal_iou([det("v", 0, 5, 20, 0.9)], [gt("v", 0, 1, 20)])
        assert by_overlap[0] == pytest.approx(0.8, abs=1e-9)

    def test_best_by_overlap_vs_best_by_score(self):
        good = det("v", 0, 1, 20, 0.2)
        confident_bad = det("v", 0, 15, 40, 0.9)
        by_overlap, by_score = average_temporal_iou([good, confident_bad], [gt("v", 0, 1, 20)])
        assert by_overlap[0] == 1.0
        assert by_score[0] == pytest.approx(temporal_iou((15, 40), (1, 20)), abs=1e-9)


class TestEvalReport:
    def test_band_average_is_mean_of_ten(self):
        rng = np.random.default_rng(0)
        annotations = [gt("v", 0, 1, 10)]
        tubes = [det("v", 0, int(rng.integers(1, 4)), 10, 0.9)]
        report = evaluate(tubes, annotations)
        assert report.v_map_avg == pytest.approx(
            sum(report.v_map[d] for d in VMAP_AVG_BAND) / 10, abs=1e-9
        )

    def test_rows_cover_all_metrics(self):
        report = evaluate([det("v", 0, 1, 5, 0.9)], [gt("v", 0, 1, 5)])
        metrics = {row[0] for row in report.rows()}
        assert metrics == {"f_map", "f_ap", "v_map", "v_map_avg", "v_ap", "avg_t_iou", "avg_t_iou_by_score"}


@st.composite
def evaluation_sets(draw):
    """Tubes, annotations and frame detections over 1-3 videos and 3 classes.

    Class 2 is never annotated and class 1 is sometimes never detected.
    Spans are short and share one box pool and four scores, so several
    annotations per (class, video), score ties, overlap ties and overlaps
    equal to a threshold are all common."""
    videos = [f"v{k}" for k in range(draw(st.integers(1, 3)))]
    box = st.sampled_from(DYADIC_BOXES[::7])
    score = st.sampled_from((0.25, 0.5, 0.75, 1.0))
    span = st.tuples(st.integers(1, 6), st.integers(0, 4)).map(lambda s: (s[0], s[0] + s[1]))
    gt_tubes = []
    for _ in range(draw(st.integers(1, 6))):
        (t0, t1), video, class_id = draw(span), draw(st.sampled_from(videos)), draw(st.integers(0, 1))
        boxes = tuple(draw(st.lists(box, min_size=t1 - t0 + 1, max_size=t1 - t0 + 1)))
        gt_tubes.append(GroundTruthTube(video, class_id, t0, t1, boxes))
    detected = [0, 2] if draw(st.booleans()) else [0, 1, 2]
    tubes = []
    for _ in range(draw(st.integers(0, 8))):
        (t0, t1), video, class_id = draw(span), draw(st.sampled_from(videos)), draw(st.sampled_from(detected))
        inner = draw(st.lists(st.integers(t0 + 1, t1 - 1), unique=True)) if t1 - t0 > 1 else []
        frames = sorted({t0, t1, *inner})
        tubes.append(FinalTube(video, class_id, t0, t1, draw(score), tuple((f, draw(box)) for f in frames)))
    rows = []
    for _ in range(draw(st.integers(0, 25))):
        video, frame = draw(st.sampled_from(videos)), draw(st.integers(1, 10))
        rows.append((video, frame, CandidateBox(draw(st.sampled_from(detected)), draw(box), draw(score), 0.5)))
    return tubes, gt_tubes, rows


class TestAgainstOracle:
    """The evaluation against the code it replaced (tests/metrics_oracle.py),
    which reruns the greedy match and every overlap per threshold."""

    @given(
        evaluation_sets(),
        st.sampled_from((0.25, 0.5, 0.75)),
        st.sampled_from((DEFAULT_TUBE_THRESHOLDS, (0.5, 0.25, 0.5, 0.123))),
    )
    @settings(max_examples=300, deadline=None)
    def test_report_rows_identical(self, data, frame_threshold, tube_thresholds):
        tubes, gt_tubes, rows = data
        # The oracle reads (video, frame, CandidateBox) rows; evaluate reads
        # them in the detections record's field order, as a list or a stream.
        converted = [(v, f, bx.class_id, bx.confidence, bx.geometry) for v, f, bx in rows]
        for ours, theirs in ((None, None), (converted, rows), (iter(converted), rows)):
            got = evaluate(tubes, gt_tubes, ours, tube_thresholds, frame_threshold)
            want = metrics_oracle.evaluate(tubes, gt_tubes, theirs, tube_thresholds, frame_threshold)
            assert got.rows() == want.rows()
            assert got == want

    @given(evaluation_sets())
    @settings(max_examples=100, deadline=None)
    def test_tube_iou_once_per_pair(self, data):
        tubes, gt_tubes, _ = data
        calls = []
        original = metrics.tube_iou

        def counting(d, g):
            calls.append((id(d), id(g)))
            return original(d, g)

        metrics.tube_iou = counting
        try:
            video_map(tubes, gt_tubes, DEFAULT_TUBE_THRESHOLDS)
        finally:
            metrics.tube_iou = original
        same_group = {
            (id(d), id(g)) for d in tubes for g in gt_tubes if (d.class_id, d.video_id) == (g.class_id, g.video_id)
        }
        assert len(calls) == len(set(calls)) == len(same_group)
        assert set(calls) == same_group
