"""Line-oriented plain-text formats for detections, tubes, annotations, raw grids.

Every file is ASCII text: a one-line versioned header, then one record per
non-empty line, its fields separated by single spaces.  Frame numbers are
integers in ``[-2**63, 2**63)``, what the linker's spill record holds.  A bad
record fails with its file and line.  Readers accept any number spelling
that ``int()`` or ``float()`` accepts in a field (``01``, ``+2``, ``1_0``, tab
or vertical-tab padding); writers emit only ``%d`` and ``%.9g``, whose 9
significant digits round-trip binary64 exactly.  So pipeline outputs are
bit-checkable; ``serialize(parse(file)) == file`` for canonical files only.

Detections (one candidate box per line, frames non-decreasing inside a
video, each video one contiguous block)::

    #tubestream detections v1
    <video_id> <frame> <class_id> <x_min> <y_min> <x_max> <y_max> <confidence> <rate>

They are read a (video, frame) block at a time, as columns with one box id
per row into the block's table of distinct box texts, each text converted
and checked once (``iter_detection_frames``); ``iter_detection_rows`` is
its per-row view.

Tubes (one per line; entries are the retained frames, ``n`` of them)::

    #tubestream tubes v1
    <video_id> <class_id> <t_start> <t_end> <score> <n> <frame,x1,y1,x2,y2>...

Annotations (one box per covered frame, count implied by the range)::

    #tubestream annotations v1
    <video_id> <class_id> <t_start> <t_end> <frame,x1,y1,x2,y2>...

Tubes and annotations are read a record at a time (``iter_tubes``,
``iter_annotations``); ``parse_tubes`` lists a file's tubes.

Raw grids (header declares the grid and anchor priors; one frame per line,
in the detections' frame order, values in ``[cell_y][cell_x][anchor][attribute]``
order; every number must be finite)::

    #tubestream rawgrid v1
    grid <S> <B> <C>
    anchors <w,h> ...
    frame <video_id> <frame> <v1> ... <vN>
"""

from __future__ import annotations

import os
from contextlib import AbstractContextManager, contextmanager
from typing import Callable, Iterable, Iterator, TextIO

import numpy as np

from .decode import AnchorSet, CandidateBox, RawGrid, attr_width
from .geometry import Box
from .linker import FRAME_MAX, FRAME_MIN, SequencingError
from .tubes import DetectionStream, FinalTube, GroundTruthTube

DETECTIONS_HEADER = "#tubestream detections v1"
TUBES_HEADER = "#tubestream tubes v1"
ANNOTATIONS_HEADER = "#tubestream annotations v1"
RAWGRID_HEADER = "#tubestream rawgrid v1"


class RecordError(ValueError):
    """A malformed record, carrying the file path and 1-based line number."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


def fnum(x: float) -> str:
    return format(float(x), ".9g")


@contextmanager
def replaced_on_success(path: str) -> Iterator[str]:
    """Yield a temporary path beside ``path`` to write an output to.  When the
    block completes it replaces ``path``; when the block or the replacing
    raises it is removed, so a failed stage leaves no output and keeps any
    earlier one; an ``OSError`` on the temporary path is raised as one on
    ``path``.  ``path`` names a regular file or nothing yet."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def _records(path: str, header: str) -> Iterator[tuple[int, list[str]]]:
    """Yield the line number and space-split fields of each non-empty line
    after ``header``, which must be line 1.  Records are ASCII: any other
    byte fails with its line."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        line = fh.readline().rstrip("\n")
        if line != header:
            raise RecordError(path, 1, f"bad header {line!r}, expected {header!r}")
        line_no = 1
        for line in fh:  # counted by hand: enumerate's result tuple would keep the raw line alive
            line_no += 1
            if not line.isascii():
                raise RecordError(path, line_no, "not ASCII text")
            if line != "\n":
                fields = [line.rstrip("\n").split(" ")]
                del line
                # Popped as it is yielded: while the caller converts a line's
                # fields, it holds the only reference to them, and no copy of the text.
                yield line_no, fields.pop()


def _unit_interval(value: str, path: str, line_no: int, name: str) -> float:
    try:
        v = float(value)
    except ValueError:
        raise RecordError(path, line_no, f"field {name} is not a number: {value!r}") from None
    if not 0.0 <= v <= 1.0:
        raise RecordError(path, line_no, f"field {name} out of range [0, 1]: {value}")
    return v


def _int_field(value: str, path: str, line_no: int, name: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise RecordError(path, line_no, f"field {name} is not an integer: {value!r}") from None


def _frame_field(value: str, path: str, line_no: int, name: str) -> int:
    frame = _int_field(value, path, line_no, name)
    if not FRAME_MIN <= frame <= FRAME_MAX:
        raise RecordError(path, line_no, f"field {name} out of range [{FRAME_MIN}, {FRAME_MAX}]: {frame}")
    return frame


def _file_order(path: str) -> Callable[[int, str, int], None]:
    """A check that rows come in file order: frames non-decreasing inside a
    video, each video one contiguous block."""
    seen: set[str] = set()
    cur_video: str | None = None
    cur_frame = 0

    def in_order(line_no: int, video_id: str, frame: int) -> None:
        nonlocal cur_video, cur_frame
        if video_id != cur_video:
            if video_id in seen:
                raise SequencingError(f"{path}:{line_no}: video {video_id!r} appears in two blocks")
            seen.add(video_id)
            cur_video = video_id
        elif frame < cur_frame:
            raise SequencingError(f"{path}:{line_no}: frame {frame} of video {video_id!r} after frame {cur_frame}")
        cur_frame = frame

    return in_order


# -- detections --------------------------------------------------------------


def _check_detection_fields(parts: list[str], path: str, line_no: int) -> None:
    """Raise the ``RecordError`` that names the first bad field of a detections row.
    The reader calls it only for a row that failed its one-go check, so one of these fails."""
    if len(parts) != 9:
        raise RecordError(path, line_no, f"expected 9 fields, got {len(parts)}")
    _frame_field(parts[1], path, line_no, "frame")
    class_id = _int_field(parts[2], path, line_no, "class_id")
    if class_id < 0:
        raise RecordError(path, line_no, f"field class_id must be >= 0: {class_id}")
    x1 = _unit_interval(parts[3], path, line_no, "x_min")
    y1 = _unit_interval(parts[4], path, line_no, "y_min")
    x2 = _unit_interval(parts[5], path, line_no, "x_max")
    y2 = _unit_interval(parts[6], path, line_no, "y_max")
    if x1 >= x2 or y1 >= y2:
        raise RecordError(path, line_no, f"degenerate box ({x1}, {y1}, {x2}, {y2})")
    _unit_interval(parts[7], path, line_no, "confidence")
    _unit_interval(parts[8], path, line_no, "rate")


def iter_detection_frames(path: str) -> Iterator[tuple[str, int, list, list, list, list, list[Box]]]:
    """Stream a detections file a (video_id, frame) block at a time, as columns
    ``(video_id, frame, class_ids, confidences, rates, box_ids, boxes)``: row ``i`` is class
    ``class_ids[i]`` at box ``boxes[box_ids[i]]``.  ``boxes`` holds one tuple per distinct box
    text of the block, converted and range-checked once, so value-equal spellings (``0`` and
    ``-0``) get a tuple each; memory is bounded by the widest block.  A row is converted and
    range-checked in one go; only a row that fails is checked field by field, to name what is
    wrong.  A block is yielded once the row after it has passed its checks, file order included."""
    in_order = _file_order(path)
    video = frame_no = frame_text = None  # the block being gathered, and its frame's last spelling
    class_ids, confidences, rates, box_ids, boxes, ids = [], [], [], [], [], {}
    for line_no, parts in _records(path, DETECTIONS_HEADER):
        try:
            video_id, frame, class_id, x1, y1, x2, y2, conf, rate = parts
            class_id, conf, rate = int(class_id), float(conf), float(rate)
            valid = class_id >= 0 and 0.0 <= conf <= 1.0 and 0.0 <= rate <= 1.0
            if frame == frame_text and video_id == video:  # a frame converted and checked already
                frame, new_block = frame_no, False
            else:
                frame_text, frame = frame, int(frame)
                valid = valid and FRAME_MIN <= frame <= FRAME_MAX
                new_block = frame != frame_no or video_id != video
            text = x1, y1, x2, y2
            box_id = None if new_block else ids.get(text)
            if box_id is None:  # a box text seen in the block passed this check
                box = x1, y1, x2, y2 = float(x1), float(y1), float(x2), float(y2)
                valid = valid and 0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0
        except ValueError:
            valid = False
        if not valid:  # some field is bad, or there are not 9
            _check_detection_fields(parts, path, line_no)
        if new_block:
            in_order(line_no, video_id, frame)
            if video is not None:
                yield video, frame_no, class_ids, confidences, rates, box_ids, boxes
            video, frame_no = video_id, frame
            class_ids, confidences, rates, box_ids, boxes, ids = [], [], [], [], [], {}
        if box_id is None:
            box_id = ids[text] = len(boxes)
            boxes.append(box)
        class_ids.append(class_id)
        confidences.append(conf)
        rates.append(rate)
        box_ids.append(box_id)
    if video is not None:
        yield video, frame_no, class_ids, confidences, rates, box_ids, boxes


def iter_detection_rows(path: str) -> Iterator[tuple[str, int, CandidateBox]]:
    """Stream (video_id, frame, box) rows with validation: a per-row view of
    ``iter_detection_frames``, whose rows of one box text share its tuple."""
    for video_id, frame, class_ids, confidences, rates, box_ids, boxes in iter_detection_frames(path):
        for class_id, conf, rate, box_id in zip(class_ids, confidences, rates, box_ids):
            yield video_id, frame, CandidateBox(class_id, boxes[box_id], conf, rate)


class _RecordWriter(AbstractContextManager):
    """A records file with its header written; a ``with`` block closes it."""

    header = ""

    def __init__(self, path: str):
        self._fh = open(path, "w", encoding="utf-8")
        try:
            self._fh.write(self.header + "\n")
        except BaseException:  # the with block never began, so its exit will not close the file
            self._fh.close()
            raise

    def close(self) -> None:
        self._fh.close()

    def __exit__(self, *exc):
        self.close()


# A detections row as its (video_id, frame) head and the rest, and its box.
_HEAD, _TAIL, _BOX = "%s %d ", "%d %s %.9g %.9g\n", "%.9g %.9g %.9g %.9g"
_ROW = _HEAD + _TAIL


class DetectionWriter(_RecordWriter):
    """Streaming detections writer, rows in file order."""

    header = DETECTIONS_HEADER

    def add(self, video_id: str, frame: int, box: CandidateBox) -> None:
        self._fh.write(_ROW % (video_id, frame, box.class_id, _BOX % box.geometry, box.confidence, box.rate))

    def write_frame(self, video_id: str, frame: int, class_ids, slots, confidences, rates, geometry) -> None:
        """Write one frame's rows in one call, row ``i`` being class ``class_ids[i]`` at box
        ``geometry[slots[i]]``: the columns of ``decode.select_candidates``, four arrays and one
        box tuple per slot.  Each used slot's box is formatted once, from its own values, so a
        ``-0.0`` stays ``-0`` even where an equal box is ``0``."""
        slots = slots.tolist()
        text = {s: _BOX % geometry[s] for s in set(slots)}
        # One % over the frame's rows: the head is formatted once, its own "%" escaped.
        row = (_HEAD % (video_id, frame)).replace("%", "%%") + _TAIL
        fields = [None] * (4 * len(slots))
        fields[0::4], fields[1::4] = class_ids.tolist(), [text[s] for s in slots]
        fields[2::4], fields[3::4] = confidences.tolist(), rates.tolist()
        self._fh.write(row * len(slots) % tuple(fields))


def write_detections(path: str, streams: Iterable[DetectionStream]) -> None:
    with DetectionWriter(path) as w:
        for stream in streams:
            for frame in stream.ordered_frames():
                for box in stream.boxes_at(frame):
                    w.add(stream.video_id, frame, box)


# -- tubes -------------------------------------------------------------------

def _write_entries(fh: TextIO, entries: Iterable[tuple[int, Box]]) -> None:
    """Write a tube's or annotation's entries one by one: long tubes never sit in memory."""
    for frame, (x1, y1, x2, y2) in entries:
        fh.write(" %s,%.9g,%.9g,%.9g,%.9g" % (frame, x1, y1, x2, y2))


class TubeWriter(_RecordWriter):
    """Streaming tube-record writer; ``tubes_written`` counts the tubes it wrote."""

    header = TUBES_HEADER
    tubes_written = 0

    def write(self, video_id, class_id, t_start, t_end, score, count, entries) -> None:
        fh = self._fh
        fh.write(f"{video_id} {class_id} {t_start} {t_end} {fnum(score)} {count}")
        _write_entries(fh, entries)
        fh.write("\n")
        self.tubes_written += 1

    def write_tube(self, tube: FinalTube) -> None:
        self.write(
            tube.video_id, tube.class_id, tube.t_start, tube.t_end, tube.score, len(tube.entries), tube.entries
        )


def _parse_entry(token: str, path: str, line_no: int) -> tuple[int, tuple[float, float, float, float]]:
    try:
        frame, x1, y1, x2, y2 = token.split(",")
        frame, x1, y1, x2, y2 = int(frame), float(x1), float(y1), float(x2), float(y2)
        if FRAME_MIN <= frame <= FRAME_MAX and 0.0 <= x1 < x2 <= 1.0 and 0.0 <= y1 < y2 <= 1.0:
            return frame, (x1, y1, x2, y2)
    except ValueError:
        pass
    # Value by value, so the error names the first bad one.
    parts = token.split(",")
    if len(parts) != 5:
        raise RecordError(path, line_no, f"geometry entry needs 5 comma-separated values: {token!r}")
    frame = _frame_field(parts[0], path, line_no, "entry frame")
    box = tuple(_unit_interval(p, path, line_no, "entry coordinate") for p in parts[1:])
    if box[0] >= box[2] or box[1] >= box[3]:
        raise RecordError(path, line_no, f"degenerate entry box {box}")
    return frame, box


def parse_tubes(path: str) -> list[FinalTube]:
    return list(iter_tubes(path))


def iter_tubes(path: str) -> Iterator[FinalTube]:
    """Stream a tubes file a tube at a time, in file order."""
    for line_no, parts in _records(path, TUBES_HEADER):
        if len(parts) < 6:
            raise RecordError(path, line_no, f"expected at least 6 fields, got {len(parts)}")
        video_id = parts[0]
        class_id = _int_field(parts[1], path, line_no, "class_id")
        t_start = _frame_field(parts[2], path, line_no, "t_start")
        t_end = _frame_field(parts[3], path, line_no, "t_end")
        score = _unit_interval(parts[4], path, line_no, "score")
        count = _int_field(parts[5], path, line_no, "n")
        if count < 1:
            raise RecordError(path, line_no, f"field n must be >= 1: {count}")
        if len(parts) != 6 + count:
            raise RecordError(path, line_no, f"declared {count} entries, found {len(parts) - 6}")
        entries = tuple(_parse_entry(tok, path, line_no) for tok in parts[6:])
        if entries[0][0] != t_start or entries[-1][0] != t_end:
            raise RecordError(path, line_no, "entry frames do not span the declared range")
        if any(a[0] >= b[0] for a, b in zip(entries, entries[1:])):
            raise RecordError(path, line_no, "entry frames are not strictly increasing")
        yield FinalTube(video_id, class_id, t_start, t_end, score, entries)


# -- annotations ---------------------------------------------------------------


def write_annotations(path: str, tubes: Iterable[GroundTruthTube]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(ANNOTATIONS_HEADER + "\n")
        for t in tubes:
            fh.write(f"{t.video_id} {t.class_id} {t.t_start} {t.t_end}")
            _write_entries(fh, zip(range(t.t_start, t.t_end + 1), t.boxes))
            fh.write("\n")


def iter_annotations(path: str) -> Iterator[GroundTruthTube]:
    """Stream an annotations file a tube at a time, in file order."""
    for line_no, parts in _records(path, ANNOTATIONS_HEADER):
        if len(parts) < 5:
            raise RecordError(path, line_no, f"expected at least 5 fields, got {len(parts)}")
        video_id = parts[0]
        class_id = _int_field(parts[1], path, line_no, "class_id")
        t_start = _frame_field(parts[2], path, line_no, "t_start")
        t_end = _frame_field(parts[3], path, line_no, "t_end")
        span = t_end - t_start + 1
        if len(parts) != 4 + span:
            raise RecordError(path, line_no, f"range covers {span} frames, found {len(parts) - 4} boxes")
        boxes = []
        for k, tok in enumerate(parts[4:]):
            frame, box = _parse_entry(tok, path, line_no)
            if frame != t_start + k:
                raise RecordError(path, line_no, f"entry frame {frame} out of order, expected {t_start + k}")
            boxes.append(box)
        yield GroundTruthTube(video_id, class_id, t_start, t_end, tuple(boxes))


# -- raw grids -----------------------------------------------------------------


def write_rawgrids(
    path: str,
    anchors: AnchorSet,
    grids: Iterable[tuple[str, int, RawGrid]],
    dims: tuple[int, int, int],
) -> None:
    s, b, c = dims
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(RAWGRID_HEADER + "\n")
        fh.write(f"grid {s} {b} {c}\n")
        fh.write("anchors " + " ".join(f"{fnum(w)},{fnum(h)}" for w, h in anchors.sizes) + "\n")
        for video_id, frame, grid in grids:
            flat = np.asarray(grid.values, dtype=np.float64).reshape(-1)
            fh.write(f"frame {video_id} {frame} " + " ".join(fnum(v) for v in flat) + "\n")


def read_rawgrids(path: str) -> tuple[tuple[int, int, int], AnchorSet, Iterator[tuple[str, int, RawGrid]]]:
    """Returns the grid dims, anchors, and a frame generator, which reads
    the rest of the file and closes it when consumed or dropped."""
    lines = _records(path, RAWGRID_HEADER)
    line_no, grid_line = next(lines, (2, []))
    if len(grid_line) != 4 or grid_line[0] != "grid":
        raise RecordError(path, line_no, "expected 'grid S B C'")
    s, b, c = (_int_field(value, path, line_no, name) for value, name in zip(grid_line[1:], "SBC"))
    if min(s, b, c) < 1:
        raise RecordError(path, line_no, f"grid dimensions must be >= 1, got {s} {b} {c}")
    line_no, anchor_line = next(lines, (line_no + 1, []))
    if anchor_line[:1] != ["anchors"] or len(anchor_line) != 1 + b:
        raise RecordError(path, line_no, f"expected 'anchors' with {b} w,h pairs")
    for tok in anchor_line[1:]:
        if tok.count(",") != 1:
            raise RecordError(path, line_no, f"anchor must be w,h: {tok!r}")
    try:
        anchors = AnchorSet(tuple(tuple(map(float, tok.split(","))) for tok in anchor_line[1:]))
    except ValueError as exc:
        raise RecordError(path, line_no, f"bad anchors: {exc}") from None

    n_values = s * s * b * attr_width(c)

    def frames() -> Iterator[tuple[str, int, RawGrid]]:
        in_order = _file_order(path)
        for line_no, parts in lines:
            if parts[0] != "frame" or len(parts) != 3 + n_values:
                raise RecordError(path, line_no, f"expected 'frame video t' plus {n_values} values")
            video_id = parts[1]
            frame = _frame_field(parts[2], path, line_no, "frame")
            in_order(line_no, video_id, frame)
            try:
                grid = RawGrid(s, b, c, np.array(parts[3:], dtype=np.float64))
            except ValueError as exc:
                raise RecordError(path, line_no, f"bad grid values: {exc}") from None
            del parts  # its field strings would stay alive while the next frame is read
            yield video_id, frame, grid
            del grid  # and so would this frame's grid

    return (s, b, c), anchors, frames()
