"""Shared builders for the test suite."""

from __future__ import annotations

from collections import defaultdict

import numpy as np
from hypothesis import strategies as st

from tubestream.decode import CandidateBox, nms_boxes
from tubestream import records
from tubestream.linker import FRAME_MAX, FRAME_MIN, LinkerConfig, OnlineLinker, SequencingError, TubeEntry, TubeState
from tubestream.records import ANNOTATIONS_HEADER, DETECTIONS_HEADER, RAWGRID_HEADER, TUBES_HEADER
from tubestream.synthetic import LinkAudit
from tubestream.tubes import DetectionStream

HEADERS = {"det": DETECTIONS_HEADER, "tubes": TUBES_HEADER, "ann": ANNOTATIONS_HEADER, "grids": RAWGRID_HEADER}
# A raw-grid file's own header lines: records start at line 4.
GRID_PREAMBLE = "grid 1 1 1\nanchors 1,1\n"


def random_box(rng) -> tuple[float, float, float, float]:
    cx, cy = rng.uniform(0.1, 0.9, 2)
    w, h = rng.uniform(0.05, 0.5, 2)
    return (
        float(max(0.0, cx - w / 2)),
        float(max(0.0, cy - h / 2)),
        float(min(1.0, cx + w / 2)),
        float(min(1.0, cy + h / 2)),
    )


def random_stream(seed: int, max_frames: int = 30, max_boxes: int = 5) -> tuple[DetectionStream, int, LinkerConfig]:
    """A random detection stream plus a matching random linker config."""
    rng = np.random.default_rng(seed)
    n_frames = int(rng.integers(2, max_frames + 1))
    n_classes = int(rng.integers(1, 4))
    stream = DetectionStream(video_id=f"v{seed}", frames={t: [] for t in range(1, n_frames + 1)})
    for t in range(1, n_frames + 1):
        for _ in range(int(rng.integers(0, max_boxes + 1))):
            stream.add(
                t,
                CandidateBox(
                    int(rng.integers(0, n_classes)),
                    random_box(rng),
                    float(rng.uniform(0.0, 1.0)),
                    float(rng.uniform(0.0, 1.0)),
                ),
            )
    config = LinkerConfig(
        iou_gate=0.3,
        window=int(rng.integers(2, 7)),
        max_tubes=int(rng.choice([1, 2, 10])),
        alphas=float(rng.choice([0.0, 0.3, 0.7, 1.0])),
        score_floor=1e-3,
    )
    return stream, n_classes, config


class AuditedLinker(OnlineLinker):
    """An ``OnlineLinker`` that also logs a ``LinkAudit`` per finished tube, in
    the order tubes finish, and reads every entry of a live tube.  It only
    watches: after each step it keeps each live tube's window entries newer
    than those it holds.  They are the linker's own ``TubeEntry`` objects, so
    their labels are final by the time the tube finishes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.audit_log: list[LinkAudit] = []
        self._entries: dict[int, list[TubeEntry]] = {}

    def step(self, frame, boxes):
        done = super().step(frame, boxes)
        for tube in self.live_tubes():
            held = self._entries.setdefault(tube.seq, [])
            held += [e for e in tube.window if not held or e.frame > held[-1].frame]
        return done

    def entries(self, tube: TubeState) -> list[TubeEntry]:
        """Every entry of a live tube, committed ones first."""
        return self._entries[tube.seq]

    def _retire(self, tube: TubeState, outcome: str) -> None:
        self._log(tube, outcome)
        super()._retire(tube, outcome)

    def _emit(self, tube: TubeState) -> None:
        if any(e.label for e in self._entries[tube.seq]):
            self._log(tube, "emitted")
        super()._emit(tube)  # an empty tube goes on to ``_retire``

    def _log(self, tube: TubeState, outcome: str) -> None:
        entries = self._entries.pop(tube.seq)
        self.audit_log.append(
            LinkAudit(
                class_id=tube.class_id,
                seq=tube.seq,
                t_start=tube.t_start,
                frames=tuple(e.frame for e in entries),
                boxes=tuple(e.box for e in entries),
                scores=tuple(e.score for e in entries),
                rates=tuple(e.rate for e in entries),
                labels=tuple(e.label for e in entries),
                avg_score=tube.score_sum / tube.n_linked,
                outcome=outcome,
            )
        )


def built_audit(audits: list[LinkAudit], first_frame: int | None, max_tubes: int) -> list[LinkAudit]:
    """The reference linker's audit records minus the seeds that a linker
    never builds.  After the first frame a frame seeds at most ``max_tubes``
    tubes per class, the first by (-confidence, seed order), because the next
    keep-best prune ranks one frame's seeds that way and keeps at most
    ``max_tubes`` of them.  Each dropped record must be such a one-frame
    tube: pruned at the next step, or emptied at ``finalize``.
    ``first_frame`` is None for a stream with no frames."""
    seeds = defaultdict(list)
    for rec in audits:
        if rec.t_start > first_frame:
            seeds[rec.class_id, rec.t_start].append(rec)
    unbuilt = set()
    for group in seeds.values():
        for rec in sorted(group, key=lambda r: (-r.scores[0], r.seq))[max_tubes:]:
            assert rec.frames == (rec.t_start,) and rec.outcome in ("pruned", "empty"), rec
            unbuilt.add(rec.seq)
    return [rec for rec in audits if rec.seq not in unbuilt]


def chain_frames(n_frames: int, rates, scores=None, box=(0.2, 0.2, 0.6, 0.6), class_id: int = 0):
    """A single-box-per-frame chain with given rates (and optional scores)."""
    if scores is None:
        scores = [0.5] * n_frames
    return [
        (t, [CandidateBox(class_id, box, float(scores[t - 1]), float(rates[t - 1]))])
        for t in range(1, n_frames + 1)
    ]


def per_class_nms(boxes: list[CandidateBox], score_threshold: float, nms_iou: float) -> list[CandidateBox]:
    """The scalar oracle of ``nms_frame``: ``nms_boxes`` class by class."""
    classes = sorted({bx.class_id for bx in boxes})
    return [
        kept
        for c in classes
        for kept in nms_boxes([bx for bx in boxes if bx.class_id == c and bx.confidence > score_threshold], nms_iou)
    ]


def survivor_boxes(columns) -> list[CandidateBox]:
    """``select_candidates``' columns as one ``CandidateBox`` per survivor, in their order."""
    class_ids, slots, confidences, rates, geometry = columns
    fields = class_ids.tolist(), slots.tolist(), confidences.tolist(), rates.tolist()
    return [CandidateBox(c, geometry[s], p, r) for c, s, p, r in zip(*fields)]


def detection_line(video_id: str, frame: int, box: CandidateBox) -> str:
    """A detections row from one format string: the oracle of ``DetectionWriter``."""
    (x1, y1, x2, y2), conf, rate = box.geometry, box.confidence, box.rate
    return "%s %d %d %.9g %.9g %.9g %.9g %.9g %.9g" % (video_id, frame, box.class_id, x1, y1, x2, y2, conf, rate)


def valid_records(kind: str) -> list[str]:
    """A small valid file's records; the detections link into tubes."""
    if kind == "det":
        rows = [f"a {t} 0 0.1 0.1 0.5 0.5 0.9 {t / 10:.9g}" for t in range(1, 9)]
        rows += [f"a 8 {c} 0.1 0.1 0.5 0.5 0.{9 - c} 0.5" for c in (1, 2)]  # a box text repeated in a frame
        return rows + [f"b {FRAME_MAX - k} 1 0.2 0.2 0.6 0.7 0.8 0.{9 - k}" for k in (3, 2, 1, 0)]
    if kind == "grids":
        return [f"frame v {t} " + " ".join(["0.5"] * 8) for t in (1, 2)]
    if kind == "tubes":
        return ["v 0 1 3 0.5 2 1,0.1,0.1,0.2,0.2 3,0.2,0.2,0.3,0.3", "w 1 -2 -2 0.25 1 -2,0.1,0.1,0.2,0.2"]
    return ["v 0 1 2 1,0.1,0.1,0.2,0.2 2,0.2,0.2,0.3,0.3", "w 1 -2 -2 -2,0.1,0.1,0.2,0.2"]


def first_detections_error(path: str) -> str | None:
    """The message of a detections file's first bad row, each row checked field
    by field and then for file order, or None: the oracle of the reader's one-go
    checks and its per-frame box table."""
    in_order = records._file_order(path)
    try:
        for line_no, parts in records._records(path, DETECTIONS_HEADER):
            records._check_detection_fields(parts, path, line_no)
            in_order(line_no, parts[0], int(parts[1]))
    except (records.RecordError, SequencingError) as exc:
        return str(exc)
    return None


# What a mutation may splice into a file, or put in place of one field.
_BOUNDS = [str(f).encode() for f in (FRAME_MAX + 1, FRAME_MIN - 1, FRAME_MAX, FRAME_MIN)]
_HOSTILE = [b"\xff", "\u0661".encode(), b"\x00", b"\r\n", b"", b"-", b"nan", b"1e400"] + _BOUNDS
# The fields of a record that hold a frame number.
_FRAME_FIELDS = {"det": [1], "tubes": [2, 3], "ann": [2, 3], "grids": [2]}


@st.composite
def hostile_files(draw):
    """A valid file of one of the four formats, mutated by byte flips,
    truncation, splices, field replacements and frames at the domain's ends."""
    kind = draw(st.sampled_from(sorted(HEADERS)))
    preamble = GRID_PREAMBLE if kind == "grids" else ""
    records = [r.split(" ") for r in valid_records(kind)]
    if draw(st.booleans()):
        fields = draw(st.sampled_from(records))
        fields[draw(st.sampled_from(_FRAME_FIELDS[kind]))] = draw(st.sampled_from(_BOUNDS)).decode()
    data = f"{HEADERS[kind]}\n{preamble}" + "".join(" ".join(r) + "\n" for r in records)
    data = bytearray(data.encode())
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["flip", "truncate", "splice", "field"]))
        if op == "flip" and data:
            data[draw(st.integers(0, len(data) - 1))] ^= 1 << draw(st.integers(0, 7))
        elif op == "truncate":
            del data[draw(st.integers(0, len(data))) :]
        elif op == "splice":
            at = draw(st.integers(0, len(data)))
            data[at:at] = draw(st.sampled_from(_HOSTILE))
        elif op == "field":
            fields = bytes(data).split(b" ")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(_HOSTILE))
            data = bytearray(b" ".join(fields))
    return kind, bytes(data)
