"""Shared data containers: annotated tubes, linked result tubes, detection streams."""

from __future__ import annotations

from dataclasses import dataclass, field

from .decode import CandidateBox
from .geometry import Box


@dataclass(frozen=True)
class GroundTruthTube:
    """An annotated action instance: one box per frame over an inclusive range."""

    video_id: str
    class_id: int
    t_start: int
    t_end: int
    boxes: tuple[Box, ...]

    def __post_init__(self):
        if self.t_start > self.t_end:
            raise ValueError(f"tube range [{self.t_start}, {self.t_end}] is empty")
        if len(self.boxes) != self.length:
            raise ValueError(f"tube spans {self.length} frames but has {len(self.boxes)} boxes")
        for bx in self.boxes:
            if bx[0] >= bx[2] or bx[1] >= bx[3]:
                raise ValueError(f"degenerate ground-truth box {bx}")

    @property
    def length(self) -> int:
        return self.t_end - self.t_start + 1

    def box_at(self, frame: int) -> Box:
        if not self.t_start <= frame <= self.t_end:
            raise KeyError(f"frame {frame} outside tube range [{self.t_start}, {self.t_end}]")
        return self.boxes[frame - self.t_start]


@dataclass(frozen=True)
class FinalTube:
    """A linked and temporally trimmed action tube.

    ``entries`` holds (frame, box) pairs for the frames the labeling kept,
    in chronological order; ``t_start``/``t_end`` is the tightest interval
    covering them and ``score`` is the mean confidence over those frames.
    Unlinked or dropped frames inside the interval appear as gaps.
    """

    video_id: str
    class_id: int
    t_start: int
    t_end: int
    score: float
    entries: tuple[tuple[int, Box], ...]


@dataclass
class DetectionStream:
    """Per-frame candidate boxes for one video, keyed by absolute frame index."""

    video_id: str
    frames: dict[int, list[CandidateBox]] = field(default_factory=dict)

    def add(self, frame: int, box: CandidateBox) -> None:
        self.frames.setdefault(frame, []).append(box)

    def ordered_frames(self) -> list[int]:
        return sorted(self.frames)

    def boxes_at(self, frame: int) -> list[CandidateBox]:
        return self.frames.get(frame, [])

    def n_boxes(self) -> int:
        return sum(len(v) for v in self.frames.values())
