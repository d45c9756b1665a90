"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from tubestream.decode import CandidateBox, nms_boxes
from tubestream.linker import FRAME_MAX, FRAME_MIN, LinkerConfig
from tubestream.records import ANNOTATIONS_HEADER, DETECTIONS_HEADER, RAWGRID_HEADER, TUBES_HEADER
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


def valid_records(kind: str) -> list[str]:
    """A small valid file's records; the detections link into tubes."""
    if kind == "det":
        rows = [f"a {t} 0 0.1 0.1 0.5 0.5 0.9 {t / 10:.9g}" for t in range(1, 9)]
        return rows + [f"b {FRAME_MAX - k} 1 0.2 0.2 0.6 0.7 0.8 0.{9 - k}" for k in (3, 2, 1, 0)]
    if kind == "grids":
        return [f"frame v {t} " + " ".join(["0.5"] * 8) for t in (1, 2)]
    if kind == "tubes":
        return ["v 0 1 3 0.5 2 1,0.1,0.1,0.2,0.2 3,0.2,0.2,0.3,0.3", "w 1 -2 -2 0.25 1 -2,0.1,0.1,0.2,0.2"]
    return ["v 0 1 2 1,0.1,0.1,0.2,0.2 2,0.2,0.2,0.3,0.3", "w 1 -2 -2 -2,0.1,0.1,0.2,0.2"]


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
