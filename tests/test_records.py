"""File formats: round trips, validation errors, streaming parse."""

import os
import re
import sys
import tempfile
import tracemalloc
from collections import Counter, deque
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    GRID_PREAMBLE,
    HEADERS,
    detection_line,
    first_detections_error,
    hostile_files,
    nms_frame,
    valid_records,
)
from tubestream.decode import AnchorSet, CandidateBox, RawGrid, attr_width
from tubestream.linker import FRAME_MAX, FRAME_MIN, OnlineLinker, SequencingError
from tubestream.config import RunConfig
from tubestream import records
from tubestream.pipeline import run_decode, run_link
from tubestream.records import (
    ANNOTATIONS_HEADER,
    DETECTIONS_HEADER,
    RAWGRID_HEADER,
    TUBES_HEADER,
    DetectionWriter,
    RecordError,
    TubeWriter,
    fnum,
    iter_annotations,
    iter_detection_frames,
    iter_detection_rows,
    parse_tubes,
    read_rawgrids,
    write_annotations,
    write_detections,
    write_rawgrids,
)
from tubestream.tubes import DetectionStream, FinalTube, GroundTruthTube


def sample_streams():
    streams = []
    for vid, n_frames in (("va", 4), ("vb", 2), ("vc", 5)):
        stream = DetectionStream(video_id=vid)
        rng = np.random.default_rng(hash(vid) % 1000)
        for t in range(1, n_frames + 1):
            for class_id in range(2):
                x1, y1 = rng.uniform(0, 0.5, 2)
                stream.add(
                    t,
                    CandidateBox(
                        class_id,
                        (float(x1), float(y1), float(x1 + 0.3), float(y1 + 0.2)),
                        float(rng.uniform(0.001, 1)),
                        float(rng.uniform(0, 1)),
                    ),
                )
        streams.append(stream)
    return streams


class TestDetections:
    def test_round_trip_byte_identical(self, tmp_path):
        path = tmp_path / "d.txt"
        write_detections(str(path), sample_streams())
        first = path.read_bytes()
        path2 = tmp_path / "d2.txt"
        with DetectionWriter(str(path2)) as writer:
            for row in iter_detection_rows(str(path)):
                writer.add(*row)
        assert path2.read_bytes() == first

    def test_lenient_spellings_read_as_their_canonical_twin(self, tmp_path):
        # A reader takes any spelling int() and float() take inside a field;
        # the writers emit only canonical numbers, so both files link to the same bytes.
        def spelled(record):
            video_id, frame, class_id, *values = record.split(" ")
            frame = f"+{frame[0]}_{frame[1:]}" if len(frame) > 1 else f"0{frame}"
            return " ".join([video_id, frame, f"+0{class_id}", *(f"\t{v}\x0b" for v in values)])

        canonical, lenient = tmp_path / "canonical.txt", tmp_path / "lenient.txt"
        records = valid_records("det")
        canonical.write_text(DETECTIONS_HEADER + "\n" + "".join(r + "\n" for r in records))
        lenient.write_text(DETECTIONS_HEADER + "\n" + "".join(spelled(r) + "\n" for r in records))
        assert list(iter_detection_rows(str(lenient))) == list(iter_detection_rows(str(canonical)))
        assert run_link(RunConfig(), str(canonical), str(tmp_path / "t1.txt")) > 0
        run_link(RunConfig(), str(lenient), str(tmp_path / "t2.txt"))
        assert (tmp_path / "t2.txt").read_bytes() == (tmp_path / "t1.txt").read_bytes()

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_run_link_matches_the_row_oracle(self, data):
        # Rows repeat box texts across classes and spell equal numbers apart
        # (0.5 and 5e-1, 0 and -0, frames 01 and +1); the tubes must be the bytes
        # of a plain row parse, then nms_frame, then the linker, frame by frame.
        coords = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0]
        spellings = {0.0: ["0", "-0", "0.0", "-0e0"], 0.5: ["0.5", "5e-1", ".50"], 1.0: ["1", "1.0", "1e0"]}
        spelled = [spellings.get(v, [fnum(v), f"{v:e}"]) for v in coords]  # by coordinate index
        span = st.lists(st.integers(0, len(coords) - 1), min_size=2, max_size=2, unique=True).map(sorted)
        row = st.tuples(st.integers(0, 3), st.integers(0, 1), st.integers(1, len(coords) - 1), st.integers(0, 11))
        lines = [DETECTIONS_HEADER]
        for video_id in data.draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True)):
            for frame in sorted(data.draw(st.sets(st.integers(1, 12), min_size=1, max_size=4))):
                spans = data.draw(st.lists(st.tuples(span, span), min_size=1, max_size=4))
                pool = [(x[0], y[0], x[1], y[1]) for x, y in spans]
                n = data.draw(st.integers(1, 50))  # over 16 rows of a class take the overlap matrix
                for box, class_id, conf, k in data.draw(st.lists(row, min_size=n, max_size=n)):
                    # k picks the spellings: of the frame, of each number
                    box = " ".join(spelled[i][(k + j) % len(spelled[i])] for j, i in enumerate(pool[box % len(pool)]))
                    frame_text = [str(frame), f"0{frame}", f"+{frame}"][k % 3]
                    conf, rate = spelled[conf][k % len(spelled[conf])], spelled[3][k % 3]
                    lines.append(f"{video_id} {frame_text} {class_id} {box} {conf} {rate}")
        config = RunConfig(alphas=0.0, window=2)
        with tempfile.TemporaryDirectory() as work:
            det, tubes, want = (os.path.join(work, name) for name in ("det.txt", "tubes.txt", "want.txt"))
            Path(det).write_text("\n".join(lines) + "\n")
            rows, texts = [], {}  # texts: each frame's distinct box texts
            for line in lines[1:]:
                video_id, frame, class_id, *values = line.split(" ")
                x1, y1, x2, y2, conf, rate = map(float, values)
                rows.append((video_id, int(frame), CandidateBox(int(class_id), (x1, y1, x2, y2), conf, rate)))
                texts.setdefault((video_id, int(frame)), set()).add(tuple(values[:4]))
            assert repr(list(iter_detection_rows(det))) == repr(rows)  # repr tells -0.0 from 0.0
            # Each frame's box table holds its own distinct box texts, once each.
            tables = [(video_id, frame, len(boxes)) for video_id, frame, *_, boxes in iter_detection_frames(det)]
            assert tables == [(*block, len(distinct)) for block, distinct in texts.items()]
            with TubeWriter(want) as writer:
                for video_id, video_rows in groupby(rows, itemgetter(0)):
                    linker = OnlineLinker(config=config, video_id=video_id, on_tube=writer.write)
                    for frame, frame_rows in groupby(video_rows, itemgetter(1)):
                        boxes = [box for _, _, box in frame_rows]
                        linker.step(frame, nms_frame(boxes, config.score_threshold, config.nms_iou))
                    linker.finalize()
            run_link(config, det, tubes, work)
            assert Path(tubes).read_bytes() == Path(want).read_bytes()

    def test_three_video_fixture_counts(self, tmp_path):
        path = tmp_path / "d.txt"
        write_detections(str(path), sample_streams())
        boxes_per_frame = Counter((video_id, frame) for video_id, frame, _ in iter_detection_rows(str(path)))
        assert list(boxes_per_frame) == [
            (vid, t) for vid, n_frames in (("va", 4), ("vb", 2), ("vc", 5)) for t in range(1, n_frames + 1)
        ]
        assert set(boxes_per_frame.values()) == {2}

    def test_out_of_range_confidence_names_field_and_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(DETECTIONS_HEADER + "\nv 1 0 0.1 0.1 0.5 0.5 1.2 0.5\n")
        with pytest.raises(RecordError, match=r"d.txt:2: field confidence out of range"):
            list(iter_detection_rows(str(path)))

    def test_out_of_order_frame_is_sequencing_error(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(
            DETECTIONS_HEADER + "\n"
            "v 2 0 0.1 0.1 0.5 0.5 0.9 0.5\n"
            "v 1 0 0.1 0.1 0.5 0.5 0.9 0.5\n"
        )
        with pytest.raises(SequencingError, match="frame 1"):
            list(iter_detection_rows(str(path)))

    def test_video_split_into_two_blocks_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(
            DETECTIONS_HEADER + "\n"
            "v 1 0 0.1 0.1 0.5 0.5 0.9 0.5\n"
            "w 1 0 0.1 0.1 0.5 0.5 0.9 0.5\n"
            "v 2 0 0.1 0.1 0.5 0.5 0.9 0.5\n"
        )
        with pytest.raises(SequencingError, match="two blocks"):
            list(iter_detection_rows(str(path)))

    def test_bad_header_and_field_count(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("#something else\n")
        with pytest.raises(RecordError, match="bad header"):
            list(iter_detection_rows(str(path)))
        path.write_text(DETECTIONS_HEADER + "\nv 1 0 0.1\n")
        with pytest.raises(RecordError, match="expected 9 fields"):
            list(iter_detection_rows(str(path)))

    def test_degenerate_box_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(DETECTIONS_HEADER + "\nv 1 0 0.5 0.1 0.5 0.5 0.9 0.5\n")
        with pytest.raises(RecordError, match="degenerate"):
            list(iter_detection_rows(str(path)))


class ReadCounter(list):
    """A list that counts the reads of each index."""

    def __init__(self, items):
        super().__init__(items)
        self.reads = Counter()

    def __getitem__(self, k):
        self.reads[k] += 1
        return super().__getitem__(k)


def frame_boxes(columns) -> list[CandidateBox]:
    """A frame's ``write_frame`` columns as one box per row."""
    class_ids, slots, confidences, rates, geometry = columns
    boxes = [geometry[s] for s in slots.tolist()]
    return [CandidateBox(*row) for row in zip(class_ids.tolist(), boxes, confidences.tolist(), rates.tolist())]


class TestGeometryTextCache:
    """``DetectionWriter.write_frame`` formats each slot's box once per frame and
    reuses the text for the slot's other rows; each row must still be
    ``detection_line``'s, and ``add`` writes the same rows."""

    def written_rows(self, path, frames):
        with DetectionWriter(str(path)) as writer:
            for video_id, t, (*columns, geometry) in frames:
                counted = ReadCounter(geometry)
                writer.write_frame(video_id, t, *columns, counted)
                assert counted.reads == Counter(set(columns[1].tolist()))  # each used slot read once
        return path.read_text(encoding="utf-8").splitlines()

    def oracle_rows(self, frames):
        return [DETECTIONS_HEADER] + [
            detection_line(video_id, t, box) for video_id, t, columns in frames for box in frame_boxes(columns)
        ]

    def test_one_tuple_across_classes_frames_and_videos(self, tmp_path):
        shared = (0.125, 0.25, 0.5, 0.75)
        zero, minus_zero = (0.0, 0.1, 0.5, 0.6), (-0.0, 0.1, 0.5, 0.6)
        assert zero == minus_zero
        geometry = [shared, zero, minus_zero, (0.125, 0.25, 0.5, 0.75 + 1e-9)]

        def frame(video_id, t, rows):
            class_ids, slots, confidences, rates = (np.array(column) for column in zip(*rows))
            return video_id, t, (class_ids, slots, confidences, rates, geometry)

        first = [(c, 0, 0.9 - c / 10, c / 10) for c in range(4)] + [(4, 1, 0.5, 0.5), (4, 2, 0.4, 0.5), (5, 3, 0.3, 0.5)]
        frames = [
            frame("a", 1, first),
            frame("a", 2, [(0, 0, 0.2, 0.1), (1, 2, 0.2, 0.1)]),
            frame("b", 2, [(0, 2, 0.7, 0.3), (3, 0, 0.6, 0.2)]),
            frame("b", 3, [(2, 0, 0.1, 0.0)]),
            frame("c", 3, [(2, 1, 0.1, 0.0)]),
        ]
        written = self.written_rows(tmp_path / "d.txt", frames)
        assert written == self.oracle_rows(frames)
        assert written[6].split(" ")[3] == "-0" and written[5].split(" ")[3] == "0"
        # add writes the same rows, one at a time.
        with DetectionWriter(str(tmp_path / "added.txt")) as writer:
            for video_id, t, columns in frames:
                for box in frame_boxes(columns):
                    writer.add(video_id, t, box)
        assert (tmp_path / "added.txt").read_text(encoding="utf-8").splitlines() == written

    def test_tuples_built_per_row(self, tmp_path):
        # Each tuple is freed after its row, so a cache keyed by identity
        # alone would hand a later tuple an earlier one's text.
        def one_at_a_time():
            for k in range(100):
                yield "v", 1 + k // 50, CandidateBox(0, (k / 1000, 0.1, 0.5, 0.6 + k / 1000), 0.5, 0.5)

        expected = [DETECTIONS_HEADER] + [detection_line(*row) for row in one_at_a_time()]
        with DetectionWriter(str(tmp_path / "d.txt")) as writer:
            for row in one_at_a_time():
                writer.add(*row)
        assert (tmp_path / "d.txt").read_text(encoding="utf-8").splitlines() == expected

    def test_video_id_with_percent(self, tmp_path):
        # The frame's head goes into the row template, so its "%" must be escaped.
        geometry = [(0.125, 0.25, 0.5, 0.75), (0.0, 0.1, 0.5, 0.6)]
        columns = (np.array([3, 0, 7]), np.array([1, 0, 1]), np.array([0.9, 0.5, 0.25]), np.array([0.1, 0.2, 0.3]))
        frames = [(video_id, 5, (*columns, geometry)) for video_id in ("%", "v%d%%s", "100%s%")]
        written = self.written_rows(tmp_path / "d.txt", frames)
        assert written == self.oracle_rows(frames)
        assert [(v, f) for v, f, _ in iter_detection_rows(str(tmp_path / "d.txt"))] == [
            (video_id, 5) for video_id, _, _ in frames for _ in range(3)
        ]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_frame_write_matches_the_row_oracle(self, data):
        # Slots shared across rows, zero coordinates of either sign, and
        # distinct slots whose boxes are equal, with and without a flipped zero.
        coord = st.sampled_from([0.0, -0.0, 0.125, 1.0]) | _unit
        pool = data.draw(st.lists(st.tuples(coord, coord, coord, coord), min_size=1, max_size=6))
        geometry = pool + [tuple(-v if v == 0.0 else v for v in box) for box in pool] + pool
        frames = []
        for t in range(data.draw(st.integers(1, 3))):
            n = data.draw(st.integers(0, 30))

            def column(values, dtype):
                return np.array(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)

            slots = column(st.integers(0, len(geometry) - 1), np.int64)
            class_ids = column(st.integers(0, 10**6), np.int64)
            video_id = data.draw(st.sampled_from(["v", "%", "v%d%%s"]))
            columns = (class_ids, slots, column(_unit, np.float64), column(_unit, np.float64), geometry)
            frames.append((video_id, t, columns))
        with tempfile.TemporaryDirectory() as work:
            written = self.written_rows(Path(work) / "d.txt", frames)
        assert written == self.oracle_rows(frames)


def fnum_detection_line(video_id, frame, box):
    """A detection row formatted one ``fnum`` call per number: the oracle of
    ``detection_line``'s single format string."""
    g = box.geometry
    return (
        f"{video_id} {frame} {box.class_id} {fnum(g[0])} {fnum(g[1])} {fnum(g[2])} {fnum(g[3])} "
        f"{fnum(box.confidence)} {fnum(box.rate)}"
    )


_unit = st.floats(0.0, 1.0)
_box = "0.1,0.1,0.2,0.2"


def fnum_entries(entries) -> str:
    """Tube or annotation entries formatted one ``fnum`` call per number: the
    oracle of the one entry format both writers share."""
    return "".join(f" {frame},{fnum(b[0])},{fnum(b[1])},{fnum(b[2])},{fnum(b[3])}" for frame, b in entries)


_any_float = st.floats() | st.floats().map(np.float64)
_frame = st.integers(-(10**12), 10**12) | st.integers(0, 10**6).map(np.int64)


@st.composite
def valid_boxes(draw):
    xs = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2, unique=True)))
    ys = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2, unique=True)))
    return (xs[0], ys[0], xs[1], ys[1])


class TestEntryWriter:
    """``TubeWriter.write`` and ``write_annotations`` share one entry format,
    which writes the bytes that one ``fnum`` call per number wrote."""

    @given(
        st.lists(st.tuples(_frame, st.tuples(_any_float, _any_float, _any_float, _any_float)), max_size=8),
        _any_float,
    )
    @settings(max_examples=200, deadline=None)
    def test_tube_entries_match_fnum_formatting(self, entries, score):
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "t.txt")
            with TubeWriter(path) as writer:
                writer.write("v", 2, 1, 9, score, len(entries), iter(entries))
            with open(path, encoding="utf-8") as fh:
                written = fh.read()
        assert written == f"{TUBES_HEADER}\nv 2 1 9 {fnum(score)} {len(entries)}{fnum_entries(entries)}\n"

    @given(st.integers(-1000, 1000), st.lists(valid_boxes(), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_annotation_entries_match_fnum_formatting(self, t_start, boxes):
        t_end = t_start + len(boxes) - 1
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "a.txt")
            write_annotations(path, [GroundTruthTube("v", 1, t_start, t_end, tuple(boxes))])
            with open(path, encoding="utf-8") as fh:
                written = fh.read()
        entries = zip(range(t_start, t_end + 1), boxes)
        assert written == f"{ANNOTATIONS_HEADER}\nv 1 {t_start} {t_end}{fnum_entries(entries)}\n"


class TestRowFastPaths:
    """Rows are formatted in one operation and parsed with one range check;
    what they write and every message they raise stay those of the
    field-by-field code."""

    @given(
        st.text(alphabet="abvxyz_-0123456789", min_size=1, max_size=8),
        st.integers(-(10**12), 10**12),
        st.integers(0, 10**6),
        st.tuples(_unit, _unit, _unit, _unit),
        _unit,
        _unit,
    )
    @settings(max_examples=300, deadline=None)
    def test_detection_line_matches_fnum_formatting(self, video_id, frame, class_id, geometry, conf, rate):
        box = CandidateBox(class_id, geometry, conf, rate)
        assert detection_line(video_id, frame, box) == fnum_detection_line(video_id, frame, box)

    @pytest.mark.parametrize(
        "kind, record, message",
        [
            ("det", "v 1 0 0.1 0.1 0.5 0.5 0.9", "expected 9 fields, got 8"),
            ("det", "v 1 0 0.1 0.1 0.5 0.5 0.9 0.5 0.5", "expected 9 fields, got 10"),
            ("det", "v 1 0 nan 0.1 0.5 0.5 0.9 0.5", "field x_min out of range [0, 1]: nan"),
            ("det", "v 1 0 0.1 0.1 0.5 0.5 inf 0.5", "field confidence out of range [0, 1]: inf"),
            ("det", "v 1 0 0.1 0.1 0.5 1e400 0.9 0.5", "field y_max out of range [0, 1]: 1e400"),
            ("det", "v 1 0 0.1 -0.5 0.5 0.5 0.9 0.5", "field y_min out of range [0, 1]: -0.5"),
            ("det", "v 1 0 0.1 0.1 0.5 0.5 0.9 1.5", "field rate out of range [0, 1]: 1.5"),
            ("det", "v 1 0 0.5 0.1 0.5 0.5 0.9 0.5", "degenerate box (0.5, 0.1, 0.5, 0.5)"),
            ("det", "v 1 0 0.1 0.6 0.5 0.5 0.9 0.5", "degenerate box (0.1, 0.6, 0.5, 0.5)"),
            ("det", "v 1 -1 0.1 0.1 0.5 0.5 0.9 0.5", "field class_id must be >= 0: -1"),
            ("det", "v 1.0 0 0.1 0.1 0.5 0.5 0.9 0.5", "field frame is not an integer: '1.0'"),
            ("tubes", "v 0 1 1 0.5 1 1,0.1,0.1,0.2", "geometry entry needs 5 comma-separated values: '1,0.1,0.1,0.2'"),
            ("ann", f"v 0 1 2 1,{_box} 2,0.3,0.1,0.3,0.2", "degenerate entry box (0.3, 0.1, 0.3, 0.2)"),
            ("tubes", "v 0 1 1 0.5 1 1,0.1,0.2,0.3,0.2", "degenerate entry box (0.1, 0.2, 0.3, 0.2)"),
        ],
        ids=[
            "8_fields", "10_fields", "nan", "inf", "1e400", "negative", "above_one", "x1_eq_x2", "y1_gt_y2",
            "class_minus_1", "frame_1.0", "tube_entry_4_values", "annotation_degenerate_box", "tube_entry_flat_box",
        ],
    )
    def test_malformed_line_keeps_its_message(self, tmp_path, kind, record, message):
        header, parse = {
            "det": (DETECTIONS_HEADER, lambda p: list(iter_detection_rows(p))),
            "tubes": ("#tubestream tubes v1", parse_tubes),
            "ann": ("#tubestream annotations v1", lambda p: list(iter_annotations(p))),
        }[kind]
        path = tmp_path / f"{kind}.txt"
        path.write_text(f"{header}\n{record}\n")
        with pytest.raises(RecordError) as err:
            parse(str(path))
        assert str(err.value) == f"{path}:2: {message}"

    @pytest.mark.parametrize(
        "second, line, message",
        [
            ("v 1 1 0.1 0.1 0.5 0.5 1.2 0.5", 3, "field confidence out of range [0, 1]: 1.2"),
            ("v 1 1 0.1 0.1 0.5 0.5 0.9 nan", 3, "field rate out of range [0, 1]: nan"),
            ("v 1 -1 0.1 0.1 0.5 0.5 0.9 0.5", 3, "field class_id must be >= 0: -1"),
            ("v 1.0 1 0.1 0.1 0.5 0.5 0.9 0.5", 3, "field frame is not an integer: '1.0'"),
            ("v 1 1 0.1 0.1 0.5 0.5 0.9 0.5 0.5", 3, "expected 9 fields, got 10"),
            ("v 1 1 0.1 0.1 0.5 0.5 0.9", 3, "expected 9 fields, got 8"),
            ("v 0 1 0.1 0.1 0.5 0.5 0.9 0.5", 3, "frame 0 of video 'v' after frame 1"),
        ],
        ids=["confidence", "rate", "class_id", "frame", "10_fields", "8_fields", "frame_order"],
    )
    def test_row_repeating_a_box_text_keeps_its_message(self, tmp_path, second, line, message):
        # The reader converts a frame's box text once; a later row with that
        # text still has each of its other fields checked, in the same order.
        path = tmp_path / "det.txt"
        path.write_text(f"{DETECTIONS_HEADER}\nv 1 0 0.1 0.1 0.5 0.5 0.9 0.5\n{second}\n")
        with pytest.raises((RecordError, SequencingError)) as err:
            list(iter_detection_rows(str(path)))
        assert str(err.value) == f"{path}:{line}: {message}"

    @pytest.mark.parametrize("box", ["0.5 0.1 0.5 0.5", "0.1 0.1 0.5 x", "0.1 0.1 1.5 0.5"])
    def test_bad_box_text_twice_fails_at_its_first_row(self, tmp_path, box):
        path = tmp_path / "det.txt"
        path.write_text(f"{DETECTIONS_HEADER}\nv 1 0 0.2 0.2 0.6 0.6 0.9 0.5\n" + f"v 1 1 {box} 0.9 0.5\n" * 2)
        with pytest.raises(RecordError) as err:
            list(iter_detection_rows(str(path)))
        assert err.value.line_no == 3 and str(err.value) == first_detections_error(str(path))


class TestTubes:
    def test_round_trip(self, tmp_path):
        tubes = [
            FinalTube("va", 0, 2, 5, 0.75, tuple((f, (0.1, 0.2, 0.4, 0.6)) for f in (2, 3, 5))),
            FinalTube("va", 1, 1, 1, 0.5, ((1, (0.2, 0.2, 0.3, 0.3)),)),
        ]
        path = tmp_path / "t.txt"
        with TubeWriter(str(path)) as writer:
            for tube in tubes:
                writer.write_tube(tube)
        assert parse_tubes(str(path)) == tubes
        path2 = tmp_path / "t2.txt"
        with TubeWriter(str(path2)) as writer:
            for tube in parse_tubes(str(path)):
                writer.write_tube(tube)
        assert path2.read_bytes() == path.read_bytes()

    def test_entry_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("#tubestream tubes v1\nv 0 1 2 0.5 2 1,0.1,0.1,0.2,0.2\n")
        with pytest.raises(RecordError, match="declared 2 entries"):
            parse_tubes(str(path))

    def test_range_span_mismatch_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("#tubestream tubes v1\nv 0 1 5 0.5 1 2,0.1,0.1,0.2,0.2\n")
        with pytest.raises(RecordError, match="span"):
            parse_tubes(str(path))

    @pytest.mark.parametrize(
        "record, message",
        [
            ("v 0 1 4 0.9 4 1,{b} 3,{b} 2,{b} 4,{b}", "not strictly increasing"),
            ("v 0 1 4 0.9 4 1,{b} 2,{b} 2,{b} 4,{b}", "not strictly increasing"),
            ("v 0 5 4 0.9 0", "n must be >= 1"),
        ],
        ids=["out_of_order", "repeated_frame", "no_entries"],
    )
    def test_malformed_entries_rejected_with_line(self, tmp_path, record, message):
        path = tmp_path / "t.txt"
        path.write_text("#tubestream tubes v1\n" + record.format(b="0.1,0.1,0.2,0.2") + "\n")
        with pytest.raises(RecordError, match=f"t.txt:2: .*{message}"):
            parse_tubes(str(path))


class TestAnnotations:
    def test_round_trip(self, tmp_path):
        tubes = [
            GroundTruthTube("va", 0, 2, 4, ((0.1, 0.1, 0.5, 0.5),) * 3),
            GroundTruthTube("vb", 1, 1, 1, ((0.2, 0.2, 0.6, 0.6),)),
        ]
        path = tmp_path / "a.txt"
        write_annotations(str(path), tubes)
        assert list(iter_annotations(str(path))) == tubes

    def test_missing_frame_box_rejected(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("#tubestream annotations v1\nv 0 1 3 1,0.1,0.1,0.2,0.2 2,0.1,0.1,0.2,0.2\n")
        with pytest.raises(RecordError, match="covers 3 frames"):
            list(iter_annotations(str(path)))


class TestRawGrids:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        anchors = AnchorSet(((1.0, 1.5), (2.0, 1.0)))
        frames = [
            ("v", t, RawGrid(2, 2, 1, rng.normal(size=(2, 2, 2, attr_width(1)))))
            for t in (1, 2)
        ]
        path = tmp_path / "g.txt"
        write_rawgrids(str(path), anchors, frames, (2, 2, 1))
        dims, got_anchors, reader = read_rawgrids(str(path))
        got = list(reader)
        assert dims == (2, 2, 1)
        assert got_anchors == anchors
        assert [(v, t) for v, t, _ in got] == [("v", 1), ("v", 2)]
        for (_, _, grid), (_, _, expect) in zip(got, frames):
            # 9 significant digits round-trip binary64 exactly
            np.testing.assert_array_equal(
                np.asarray([float(format(x, '.9g')) for x in expect.values.reshape(-1)]),
                grid.values.reshape(-1),
            )

    def test_value_count_validated(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("#tubestream rawgrid v1\ngrid 1 1 1\nanchors 1,1\nframe v 1 0.0 0.0\n")
        _, _, reader = read_rawgrids(str(path))
        with pytest.raises(RecordError, match="plus 8 values"):
            list(reader)

    def test_reader_holds_one_frame_of_fields_at_a_time(self, tmp_path):
        # The UCF101-24 shape: about 65k values a frame.  The reader used to keep a
        # frame's split fields alive while it read the next, nearly doubling its peak.
        s, b, c = 13, 5, 24
        rng = np.random.default_rng(0)
        frames = (("v", t, RawGrid(s, b, c, rng.standard_normal(s * s * b * attr_width(c)))) for t in (1, 2, 3))
        path = str(tmp_path / "g.txt")
        write_rawgrids(path, AnchorSet(((1.0, 1.0),) * b), frames, (s, b, c))

        def traced_peak(n_frames: int) -> int:
            tracemalloc.start()
            try:
                reader = read_rawgrids(path)[2]
                for _ in range(n_frames):
                    next(reader)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(3) <= 1.2 * traced_peak(1)

    @pytest.mark.parametrize("stage", ["reader", "run_decode"])
    def test_holds_one_grid_at_a_time(self, tmp_path, stage):
        # Neither the reader nor run_decode keeps a frame's grid alive while the
        # next line is read: past one frame, the peak grows by less than a
        # quarter of one grid's values.
        s, b, c = 13, 5, 24
        n_values = s * s * b * attr_width(c)

        def traced_peak(n_frames: int) -> int:
            rng = np.random.default_rng(0)
            frames = (("v", t, RawGrid(s, b, c, rng.standard_normal(n_values))) for t in range(1, n_frames + 1))
            path = str(tmp_path / f"g{n_frames}.txt")
            write_rawgrids(path, AnchorSet(((1.0, 1.0),) * b), frames, (s, b, c))
            tracemalloc.start()
            try:
                if stage == "reader":
                    deque(read_rawgrids(path)[2], maxlen=0)  # each frame dropped as it comes
                else:
                    run_decode(RunConfig(), path, str(tmp_path / "det.txt"))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = traced_peak(1)
        assert traced_peak(4) - one <= n_values * 8 / 4, one

    def test_line_reader_holds_no_copy_of_the_text(self, tmp_path):
        # While the caller converts a line's fields, only the fields are alive:
        # neither the raw line nor its stripped copy.
        values = " ".join(format(x, ".9g") for x in np.random.default_rng(0).standard_normal(50_000))
        path = tmp_path / "g.txt"
        path.write_text(f"{RAWGRID_HEADER}\n{values}\n", encoding="ascii")
        tracemalloc.start()
        try:
            reader = records._records(str(path), RAWGRID_HEADER)
            _, fields = next(reader)
            held = tracemalloc.get_traced_memory()[0]
            reader.close()
        finally:
            tracemalloc.stop()
        assert len(fields) == 50_000
        fields_size = sys.getsizeof(fields) + sum(map(sys.getsizeof, fields))
        assert held - fields_size < len(values) / 4

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_line(self, tmp_path, bad):
        path = tmp_path / "g.txt"
        good, values = " ".join(["0"] * 8), " ".join(["0.5"] * 7 + [bad])
        path.write_text(f"#tubestream rawgrid v1\ngrid 1 1 1\nanchors 1,1\nframe v 1 {good}\nframe v 2 {values}\n")
        _, _, reader = read_rawgrids(str(path))
        with pytest.raises(RecordError, match="finite") as err:
            list(reader)
        assert err.value.line_no == 5

    @pytest.mark.parametrize(
        "frames, message",
        [
            (("v 2", "v 1"), "frame 1 of video 'v' after frame 2"),
            (("v 1", "w 1", "v 2"), "video 'v' appears in two blocks"),
        ],
        ids=["decreasing_frame", "split_video"],
    )
    def test_frames_out_of_file_order_name_their_line(self, tmp_path, frames, message):
        # decode used to write them into a detections file that link rejects
        path, det = tmp_path / "g.txt", tmp_path / "d.txt"
        line = record_file(path, "grids", [f"frame {f} " + " ".join(["0.5"] * 8) for f in frames])
        with pytest.raises(SequencingError) as err:
            run_decode(RunConfig(score_threshold=0.0), str(path), str(det))
        assert str(err.value) == f"{path}:{line + len(frames) - 1}: {message}"
        assert not det.exists()

    @pytest.mark.parametrize("dims", ["0 1 1", "-1 1 1", "1 0 1", "1 1 0"])
    def test_grid_dimension_below_one_names_line_2(self, tmp_path, dims):
        path = tmp_path / "g.txt"
        path.write_text(f"#tubestream rawgrid v1\ngrid {dims}\nanchors 1,1\n")
        with pytest.raises(RecordError, match="grid dimensions must be >= 1") as err:
            read_rawgrids(str(path))
        assert err.value.line_no == 2
        # decode used to write an empty detections file for ``grid 0 1 1``
        with pytest.raises(RecordError):
            run_decode(RunConfig(), str(path), str(tmp_path / "d.txt"))
        assert not (tmp_path / "d.txt").exists()

    @pytest.mark.parametrize("token", ["1,x", "nan,1", "1,inf", "0,1"])
    def test_bad_anchor_names_line_3(self, tmp_path, token):
        path = tmp_path / "g.txt"
        path.write_text(f"#tubestream rawgrid v1\ngrid 1 1 1\nanchors {token}\n")
        with pytest.raises(RecordError) as err:
            read_rawgrids(str(path))
        assert err.value.line_no == 3


def read_all(kind: str, path: str):
    """Read a whole file of ``kind`` with its reader."""
    if kind == "det":
        return list(iter_detection_rows(path))
    if kind == "grids":
        return list(read_rawgrids(path)[2])
    return parse_tubes(path) if kind == "tubes" else list(iter_annotations(path))


def frames_of(kind: str, parsed) -> list[int]:
    """Every frame number in what ``read_all`` returned."""
    if kind in ("det", "grids"):
        return [frame for _, frame, _ in parsed]
    if kind == "tubes":
        return [f for t in parsed for f in (t.t_start, t.t_end, *(frame for frame, _ in t.entries))]
    return [f for t in parsed for f in (t.t_start, t.t_end)]


def record_file(path, kind: str, records: list[str]) -> int:
    """Write ``records`` under ``kind``'s header; returns the first record's line."""
    preamble = GRID_PREAMBLE if kind == "grids" else ""
    path.write_text(f"{HEADERS[kind]}\n{preamble}" + "".join(r + "\n" for r in records))
    return 2 + preamble.count("\n")


_zeros = " ".join(["0"] * 8)
# One valid record of each kind at frame ``{f}``.
ONE_RECORD = {
    "det": "v {f} 0 0.1 0.1 0.5 0.5 0.9 0.5",
    "tubes": "v 0 {f} {f} 0.5 1 {f}," + _box,
    "ann": "v 0 {f} {f} {f}," + _box,
    "grids": "frame v {f} " + _zeros,
}


class TestFrameDomain:
    """Every reader accepts frame numbers in [FRAME_MIN, FRAME_MAX], what the
    spill record holds, and rejects any other with its line."""

    RECORDS = {
        "det_frame": ("det", "v {f} 0 0.1 0.1 0.5 0.5 0.9 0.5", "frame"),
        "tube_t_start": ("tubes", "v 0 {f} 1 0.5 1 1," + _box, "t_start"),
        "tube_t_end": ("tubes", "v 0 1 {f} 0.5 1 1," + _box, "t_end"),
        "tube_entry": ("tubes", "v 0 1 1 0.5 1 {f}," + _box, "entry frame"),
        "ann_t_start": ("ann", "v 0 {f} 1 1," + _box, "t_start"),
        "ann_t_end": ("ann", "v 0 1 {f} 1," + _box, "t_end"),
        "ann_entry": ("ann", "v 0 1 1 {f}," + _box, "entry frame"),
        "grid_frame": ("grids", "frame v {f} " + _zeros, "frame"),
    }

    @pytest.mark.parametrize("frame", [FRAME_MAX + 1, FRAME_MIN - 1], ids=["2^63", "-2^63-1"])
    @pytest.mark.parametrize("kind, record, name", RECORDS.values(), ids=RECORDS.keys())
    def test_frame_outside_the_domain_names_field_and_line(self, tmp_path, kind, record, name, frame):
        path = tmp_path / f"{kind}.txt"
        line = record_file(path, kind, [record.format(f=frame)])
        with pytest.raises(RecordError) as err:
            read_all(kind, str(path))
        assert str(err.value) == f"{path}:{line}: field {name} out of range [{FRAME_MIN}, {FRAME_MAX}]: {frame}"

    @pytest.mark.parametrize("frame", [FRAME_MIN, FRAME_MAX])
    @pytest.mark.parametrize("kind", HEADERS)
    def test_frames_at_both_ends_of_the_domain_parse(self, tmp_path, kind, frame):
        path = tmp_path / f"{kind}.txt"
        record_file(path, kind, [ONE_RECORD[kind].format(f=frame)])
        assert len(read_all(kind, str(path))) == 1

    def test_frames_up_to_frame_max_link_through_a_spilled_chunk_and_round_trip(self, tmp_path, monkeypatch):
        # A rising rate labels every frame, so 300 labeled pairs fill one
        # 200-record spill chunk.
        frames = range(FRAME_MAX - 299, FRAME_MAX + 1)
        det, tubes = tmp_path / "det.txt", tmp_path / "tubes.txt"
        record_file(det, "det", [f"v {t} 0 0.1 0.1 0.5 0.5 0.9 {k / 300:.9g}" for k, t in enumerate(frames)])
        spill_files = []
        temporary_file = tempfile.TemporaryFile
        monkeypatch.setattr(tempfile, "TemporaryFile", lambda **kw: spill_files.append(1) or temporary_file(**kw))
        assert run_link(RunConfig(alphas=0.0), str(det), str(tubes), str(tmp_path)) == 1
        assert spill_files == [1]
        (tube,) = parse_tubes(str(tubes))
        assert [f for f, _ in tube.entries] == list(frames)
        again = tmp_path / "again.txt"
        with TubeWriter(str(again)) as writer:
            writer.write_tube(tube)
        assert again.read_bytes() == tubes.read_bytes()


class TestAsciiRecords:
    """Records are ASCII: any other byte fails with its file and line."""

    @pytest.mark.parametrize(
        "bad", [b"\xff", "\u0661".encode(), "\u00e9".encode("latin-1")], ids=["ff", "arabic_one", "latin1"]
    )
    @pytest.mark.parametrize("kind", HEADERS)
    def test_non_ascii_byte_names_its_line(self, tmp_path, kind, bad):
        path = tmp_path / f"{kind}.txt"
        line = record_file(path, kind, [ONE_RECORD[kind].format(f=1), ONE_RECORD[kind].format(f=7)])
        data = path.read_bytes()
        cut = data.rindex(b" 7")  # a frame field of the last record
        path.write_bytes(data[: cut + 1] + bad + data[cut + 2 :])
        with pytest.raises(RecordError) as err:
            read_all(kind, str(path))
        assert str(err.value) == f"{path}:{line + 1}: not ASCII text"


class TestHostileBytes:
    """Any bytes in, one located error out: each reader returns, or raises a
    ``RecordError`` or ``SequencingError`` that begins ``<path>:<line>:``; a
    stage that fails leaves no output, and one that succeeds writes what the
    next stage reads."""

    @given(hostile_files())
    @settings(max_examples=300, deadline=None)
    def test_reader_returns_or_names_file_and_line(self, case):
        kind, data = case
        with tempfile.TemporaryDirectory() as work:
            path, out = os.path.join(work, "in.txt"), os.path.join(work, "out.txt")
            with open(path, "wb") as fh:
                fh.write(data)
            located = re.compile(re.escape(path) + r":[1-9][0-9]*: ")
            error = None
            try:
                parsed = read_all(kind, path)
            except (RecordError, SequencingError) as exc:
                assert located.match(str(exc)), str(exc)
                error = str(exc)
            else:
                assert all(FRAME_MIN <= f <= FRAME_MAX for f in frames_of(kind, parsed))
            failed = error is not None
            if kind == "det":
                assert error == first_detections_error(path)
            stages = {"det": (run_link, "tubes"), "grids": (run_decode, "det")}
            if kind in stages:
                run, next_kind = stages[kind]
                try:
                    run(RunConfig(), path, out)
                except (RecordError, SequencingError) as exc:
                    assert failed and located.match(str(exc)), str(exc)
                assert sorted(os.listdir(work)) == sorted(["in.txt"] + ["out.txt"] * (not failed))
                if not failed:
                    read_all(next_kind, out)
