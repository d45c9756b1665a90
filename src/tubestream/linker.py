"""Online action-tube generation with rate-driven temporal labeling.

Per class, candidate boxes are greedily linked frame by frame into tubes:
tubes are visited in order of decreasing average score, each consumes the
highest-scoring box whose IoU with the tube's last box exceeds the gate, and
leftover boxes seed new tubes.  A tube that goes unlinked for ``window``
consecutive frames is complete.

Every linked box also updates the tube's temporal labels.  Two saturating
counters track consecutive rate increases (``n_up``) and decreases
(``n_down``); when either saturates at ``window``, the trailing window of
frames is relabeled 1 (sustained rise: the action is underway) or 0
(sustained fall or plateau: it is not).  Otherwise the trailing window is
labeled 1 when its mean confidence exceeds ``alpha``, the per-class
trade-off between score-driven and rate-driven labeling: ``alpha = 1``
disables the score path entirely, ``alpha = 0`` makes any positive score
sufficient.

Labels are only ever edited inside the trailing ``window`` frames.  Older
entries are committed out of the mutable window, which is what guarantees
the online contract: the label of a frame more than ``window`` frames
behind the stream head never changes, and nothing ever depends on future
frames.

At stream end each tube is trimmed to the frames labeled 1: the emitted
tube covers the tightest interval around them, carries only those frames'
boxes, and is rescored as their mean confidence.  Tubes with no labeled
frame are dropped.  Because committed labels are final, a tube keeps of its
committed entries only a running summary of those labeled 1 and their
(frame, box) pairs, in a :class:`SpillStore` built at the first of them.
Every linker's stores hold one 8,000-byte chunk of pairs in memory and
write whole chunks to an anonymous temp file past that, which keeps memory
per tube bounded on arbitrarily long streams; trimming reads a store once,
and only for a tube that is emitted.
"""

from __future__ import annotations

import heapq
import math
import os
import struct
import tempfile
from dataclasses import dataclass, fields
from itertools import chain
from typing import Callable, Iterable, Iterator

from .decode import CandidateBox
from .geometry import Box, box_area
from .tubes import FinalTube


class SequencingError(ValueError):
    """Frames were presented out of order."""


def check_range(key: str, value, interval: str) -> None:
    """Raise unless ``value`` (or each value of a non-empty sequence; ``None`` is not set)
    is a number that lies in ``interval``: ``[lo, hi]``, ``(`` or ``)`` at an open end, ``inf`` unbounded."""
    if value is None:
        return
    values = value if isinstance(value, (tuple, list)) else (value,)
    if not values:
        raise ValueError(f"{key} must not be empty")
    lo, hi = (float(end) for end in interval[1:-1].split(", "))
    for v in values:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValueError(f"{key} must be a number, got {v!r}")
        above = lo < v if interval[0] == "(" else lo <= v
        below = v < hi if interval[-1] == ")" else v <= hi
        if not (above and below):
            raise ValueError(f"{key} must lie in {interval}, got {v!r}")


def check_settings(settings) -> None:
    """The one check of a settings dataclass, run when it is built: each value
    must lie in its class's ``RANGES`` interval (``check_range``), and a field
    annotated ``int`` must be an ``int`` (not a ``bool``)."""
    for key, interval in settings.RANGES.items():
        check_range(key, getattr(settings, key), interval)
    for f in fields(settings):
        if f.type == "int" and type(getattr(settings, f.name)) is not int:
            raise ValueError(f"{f.name} must be an integer, got {getattr(settings, f.name)!r}")


# The valid values of each per-class mean progress-rate training error.
RATE_ERROR_RANGE = "[0, inf)"


def alpha_from_training_error(rate_error: float) -> float:
    """Map a class's mean progress-rate training error to its labeling trade-off.

    ``exp(-err^2 / 1e-2)``: a perfectly learned rate gives 1 (labeling driven
    purely by rates); a large error - typical for periodic actions whose rate
    is unpredictable - gives ~0, routing labeling through confidence scores.
    """
    check_range("rate_errors", rate_error, RATE_ERROR_RANGE)
    return math.exp(-(rate_error**2) / 1e-2)


@dataclass(frozen=True)
class LinkerConfig:
    """Settings of the online linker, each checked when built by ``check_settings``.

    ``alphas`` may be a single float applied to every class or a sequence
    with one entry per class.
    """

    iou_gate: float = 0.3
    window: int = 6
    max_tubes: int = 10
    alphas: float | tuple[float, ...] = 0.5
    score_floor: float = 1e-3

    # Valid values of each setting, in the text ``check_range`` reads.
    RANGES = {
        "iou_gate": "(0, 1)",
        "window": "[1, inf)",
        "max_tubes": "[1, inf)",
        "alphas": "[0, 1]",
        "score_floor": "[0, 1)",
    }

    def __post_init__(self):
        check_settings(self)

    def alpha_for(self, class_id: int) -> float:
        if isinstance(self.alphas, (tuple, list)):
            return self.alphas[class_id]
        return self.alphas


@dataclass(slots=True, eq=False)
class TubeEntry:
    """One linked box inside a tube."""

    frame: int
    box: Box
    score: float
    rate: float
    label: int


_SPILL_RECORD = struct.Struct("<q4d")
FRAME_MIN, FRAME_MAX = -(2**63), 2**63 - 1  # the frames every reader accepts: what ``<q`` holds
# Records held in memory before the file is opened, and written at a time
# after: 8,000 bytes, about what a buffered writer holds.
_SPILL_CHUNK = _SPILL_RECORD.size * 200


class SpillStore:
    """Committed labeled ``(frame, box)`` pairs, spilled to a temp file.

    Keeps linker memory independent of stream length: committed pairs are
    immutable, so each full chunk of them is written out whole, unbuffered,
    and read back once when the tube is emitted.  The file is created only
    when the first chunk fills; a shorter store never opens one.  It is an
    anonymous ``tempfile.TemporaryFile`` in ``directory``, so it never
    outlives its store, not even when the store is dropped without
    ``discard`` or the process is killed.  A ``directory`` that is not one
    fails when the store is built, not when its first chunk fills.
    """

    def __init__(self, directory: str | None = None):
        if directory is not None and not os.path.isdir(directory):
            raise NotADirectoryError(f"spool directory {directory!r} is not a directory")
        self._dir = directory
        self._chunk = bytearray()
        self._file = None

    def append(self, entry: TubeEntry) -> None:
        x1, y1, x2, y2 = entry.box
        chunk = self._chunk
        chunk += _SPILL_RECORD.pack(entry.frame, x1, y1, x2, y2)
        if len(chunk) == _SPILL_CHUNK:
            if self._file is None:
                self._file = tempfile.TemporaryFile(dir=self._dir, buffering=0)
            if self._file.write(chunk) != _SPILL_CHUNK:
                raise OSError("short write to a spill file")
            chunk.clear()

    def __iter__(self) -> Iterator[tuple[int, Box]]:
        fd = None if self._file is None else self._file.fileno()
        spilled = () if fd is None else range(0, os.fstat(fd).st_size, _SPILL_CHUNK)
        chunks = chain((os.pread(fd, _SPILL_CHUNK, offset) for offset in spilled), (bytes(self._chunk),))
        for chunk in chunks:
            for frame, x1, y1, x2, y2 in _SPILL_RECORD.iter_unpack(chunk):
                yield frame, (x1, y1, x2, y2)

    def discard(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        self._chunk.clear()


class TubeState:
    """A live tube: a summary of its committed entries, the mutable trailing window, counters.

    ``first_labeled``, ``last_labeled``, ``labeled_sum`` and ``n_labeled``
    summarize the committed entries labeled 1, in commit order, and ``store``
    holds their (frame, box) pairs; it is ``None`` until the first of them.
    Committed labels never change, so the summary stays exact.
    """

    __slots__ = (
        "class_id",
        "seq",
        "t_start",
        "t_end",
        "store",
        "window",
        "n_up",
        "n_down",
        "score_sum",
        "n_linked",
        "last_geometry",
        "last_area",
        "first_labeled",
        "last_labeled",
        "labeled_sum",
        "n_labeled",
    )

    def __init__(
        self,
        class_id: int,
        frame: int,
        box: Box,
        score: float,
        rate: float,
        seq: int = 0,
    ):
        self.class_id = class_id
        self.seq = seq
        self.t_start = frame
        self.t_end = frame
        self.store: SpillStore | None = None
        self.window: list[TubeEntry] = [TubeEntry(frame, box, score, rate, 0)]
        self.n_up = 0
        self.n_down = 0
        self.score_sum = score
        self.n_linked = 1
        self.last_geometry = box
        self.last_area = box_area(box)
        self.first_labeled = 0
        self.last_labeled = 0
        self.labeled_sum = 0.0
        self.n_labeled = 0

    def commit_through(self, frame: int, new_store: Callable[[], SpillStore]) -> None:
        """Move entries at or before ``frame`` out of the mutable window; those
        labeled 1 go to the store, which ``new_store`` builds for the first."""
        window = self.window
        n = 0
        for e in window:
            if e.frame > frame:
                break
            n += 1
            if e.label:
                if not self.n_labeled:
                    self.first_labeled = e.frame
                    self.store = new_store()
                self.last_labeled = e.frame
                self.labeled_sum += e.score
                self.n_labeled += 1
                self.store.append(e)
        del window[:n]


def temporal_label_step(
    tube: TubeState,
    frame: int,
    box: Box,
    score: float,
    rate: float,
    alpha: float,
    window: int,
) -> None:
    """Link one more box into ``tube`` and refresh its temporal labels.

    The new frame's label starts as a copy of the previous one.  The rate
    comparison against the previous linked box bumps the saturating
    counters (a tie counts as a decrease); a saturated ``n_up`` relabels the
    trailing ``window`` frames 1, a saturated ``n_down`` relabels them 0,
    and otherwise a trailing mean confidence above ``alpha`` relabels them 1.
    Only entries with ``frame > new_frame - window`` are touched; near the
    tube start the window simply clips.
    """
    entries = tube.window
    if not entries:
        raise ValueError("temporal_label_step requires the previous box in the mutable window")
    prev = entries[-1]
    if frame <= prev.frame:
        raise SequencingError(f"frame {frame} not after previous linked frame {prev.frame}")

    entries.append(TubeEntry(frame, box, score, rate, prev.label))
    tube.score_sum += score
    tube.n_linked += 1
    tube.t_end = frame
    tube.last_geometry = box
    tube.last_area = box_area(box)

    # Saturating counters: min(window, n + 1) and max(0, n - 1), without the calls.
    up = tube.n_up
    down = tube.n_down
    if rate > prev.rate:
        up = up + 1 if up + 1 < window else window
        down = down - 1 if down > 1 else 0
    else:
        down = down + 1 if down + 1 < window else window
        up = up - 1 if up > 1 else 0
    tube.n_up = up
    tube.n_down = down

    # Trailing entries with frame in [frame - window + 1, frame]; the new
    # entry is one of them.
    lo = frame - window + 1
    k = 0
    while entries[k].frame < lo:
        k += 1
    tail = entries[k:] if k else entries

    if up == window:
        for e in tail:
            e.label = 1
    elif down == window:
        for e in tail:
            e.label = 0
    elif sum([e.score for e in tail]) / len(tail) > alpha:
        for e in tail:
            e.label = 1


TubeSink = Callable[[str, int, int, int, float, int, Iterator[tuple[int, Box]]], None]


_FINALIZED = "linker already finalized"


def _rank(tube: TubeState) -> tuple[float, int, int]:
    """Lane order: decreasing average score, then start frame, then seed order."""
    return (-(tube.score_sum / tube.n_linked), tube.t_start, tube.seq)


class OnlineLinker:
    """Streaming per-video tube builder over all classes.

    Feed frames in strictly increasing order via :meth:`step`; call
    :meth:`finalize` once the stream ends.  Frame indices may skip (a frame
    with no candidates can be presented as an empty list or simply omitted;
    presenting it lets completions and the keep-best pruning take effect on
    schedule rather than at the next populated frame).  Finished tubes go to
    one sink, ``on_tube``, which by default collects them as
    :class:`FinalTube` objects.  A given ``on_tube`` streams them out
    instead: the callback receives
    ``(video_id, class_id, t_start, t_end, score, n_entries, entries)``
    where ``entries`` is a single-use iterator of (frame, box) pairs that
    must be consumed inside the callback.

    A step costs time in the live tubes and the frame's boxes, not in the
    stream length: committed entries are only touched when they leave the
    window and, once, when their tube is emitted.  A frame seeds at most
    ``max_tubes`` tubes per class, from its most confident unmatched boxes:
    the next keep-best prune would drop any other seed before it could link.
    ``store_factory`` builds a tube's store at its first committed entry
    labeled 1; the default is a :class:`SpillStore` in the system temp
    directory, and a factory such as ``lambda: SpillStore(directory)``
    chooses another.  The linker keeps no record of finished tubes; the
    differential tests watch it through ``AuditedLinker`` (``tests/helpers.py``).
    """

    def __init__(
        self,
        n_classes: int | None = None,
        config: LinkerConfig | None = None,
        video_id: str = "video",
        store_factory: Callable[[], SpillStore] | None = None,
        on_tube: TubeSink | None = None,
    ):
        if n_classes is not None and (type(n_classes) is not int or n_classes < 1):
            raise ValueError(f"n_classes must be an integer >= 1, got {n_classes!r}")
        self.config = config if config is not None else LinkerConfig()
        self.video_id = video_id
        self.n_classes = n_classes
        self._store_factory = store_factory if store_factory is not None else SpillStore
        self._on_tube = on_tube if on_tube is not None else self._collect
        # Lanes appear as their classes first show up in the stream;
        # ``_order`` holds (class_id, alpha, lane) in ascending class order.
        self._lanes: dict[int, list[TubeState]] = {}
        self._order: list[tuple[int, float, list[TubeState]]] = []
        self._head: int | None = None
        self._seq = 0
        self._results: list[FinalTube] = []
        self._closed: str | None = None  # why a step is refused: finalized, or a failed step or finalize

    # -- lifecycle ---------------------------------------------------------

    def step(self, frame: int, boxes: Iterable[CandidateBox]) -> list[FinalTube]:
        """Process one frame's candidate boxes; returns tubes completed now
        (empty list when streaming through ``on_tube``).  A frame that is
        rejected leaves the linker unchanged.  A step that fails after its
        checks, say on a spill or sink error, leaves the linker failed: every
        later ``step`` or ``finalize`` raises a ``SequencingError`` naming the
        frame that failed and why."""
        if self._closed is not None:
            raise SequencingError(self._closed)
        if type(frame) is not int or not FRAME_MIN <= frame <= FRAME_MAX:
            raise ValueError(f"frame {frame!r} is not an integer in [{FRAME_MIN}, {FRAME_MAX}]")
        if self._head is not None and frame <= self._head:
            raise SequencingError(f"frame {frame} not after stream head {self._head}")

        by_class: dict[int, list[CandidateBox]] = {}
        for bx in boxes:
            group = by_class.get(bx.class_id)
            if group is None:
                by_class[bx.class_id] = [bx]
            else:
                group.append(bx)
        lanes = self._lanes
        new_classes = by_class.keys() - lanes.keys()
        for class_id in new_classes:
            self._check_class(class_id)

        try:
            first = self._head is None
            self._head = frame
            if new_classes:
                for class_id in new_classes:
                    lanes[class_id] = []
                self._order = sorted((c, self.config.alpha_for(c), lane) for c, lane in lanes.items())

            emitted_before = len(self._results)
            cfg = self.config
            window = cfg.window
            horizon = frame - window
            new_store = self._store_factory
            for class_id, alpha, lane in self._order:
                remaining = by_class.get(class_id)
                if first:
                    eligible = sorted(
                        (b for b in remaining if b.confidence > cfg.score_floor),
                        key=lambda b: -b.confidence,
                    )
                    for bx in eligible[: cfg.max_tubes]:
                        lane.append(TubeState(class_id, frame, bx.geometry, bx.confidence, bx.rate, self._seq))
                        self._seq += 1
                    continue

                if lane:
                    # Keep the best max_tubes live tubes, then let each take one box.
                    if len(lane) > 1:
                        lane.sort(key=_rank)
                        if len(lane) > cfg.max_tubes:
                            for tb in lane[cfg.max_tubes :]:
                                self._retire(tb, "pruned")
                            del lane[cfg.max_tubes :]
                    completed = False
                    for tb in lane:
                        best = self._best_match(tb, remaining) if remaining else -1
                        if best >= 0:
                            cand = remaining.pop(best)
                            temporal_label_step(
                                tb, frame, cand.geometry, cand.confidence, cand.rate, alpha, window
                            )
                        elif tb.t_end <= horizon:
                            self._emit(tb)
                            completed = True
                            continue
                        if tb.window[0].frame <= horizon:
                            tb.commit_through(horizon, new_store)
                    if completed:
                        lane[:] = [tb for tb in lane if tb.t_end > horizon]

                if remaining:
                    fresh = [bx for bx in remaining if bx.confidence > cfg.score_floor]
                    seq = self._seq
                    self._seq += len(fresh)
                    seeds = range(len(fresh))
                    if len(fresh) > cfg.max_tubes:
                        # The next prune ranks fresh tubes by (-confidence, seq) and
                        # keeps at most max_tubes of them: build only those.
                        seeds = sorted(heapq.nsmallest(cfg.max_tubes, seeds, key=lambda i: -fresh[i].confidence))
                    for i in seeds:
                        bx = fresh[i]
                        lane.append(TubeState(class_id, frame, bx.geometry, bx.confidence, bx.rate, seq + i))
        except BaseException as exc:
            self._closed = f"linker failed at frame {frame}: {type(exc).__name__}: {exc}"
            raise
        return self._results[emitted_before:]

    def finalize(self) -> list[FinalTube]:
        """Flush every live tube and return all finished tubes of the stream
        when collecting, or an empty list when streaming through ``on_tube``.
        A failed linker raises instead, and so does a retry of a failed finalize."""
        if self._closed is None:
            self._closed = _FINALIZED
            try:
                for _, _, lane in self._order:
                    for tb in sorted(lane, key=lambda tb: (tb.t_start, tb.seq)):
                        self._emit(tb)
                    lane.clear()
            except BaseException as exc:
                self._closed = f"linker failed to finalize: {type(exc).__name__}: {exc}"
                raise
        elif self._closed != _FINALIZED:
            raise SequencingError(self._closed)
        return list(self._results)

    def live_tubes(self) -> tuple[TubeState, ...]:
        """The tubes not yet finished, by class and then lane order: a snapshot
        to read, not to modify."""
        return tuple(tb for _, _, lane in self._order for tb in lane)

    # -- internals ---------------------------------------------------------

    def _check_class(self, class_id: int) -> None:
        if class_id < 0 or (self.n_classes is not None and class_id >= self.n_classes):
            raise ValueError(f"box class {class_id} out of range for {self.n_classes} classes")
        alphas = self.config.alphas
        if isinstance(alphas, (tuple, list)) and class_id >= len(alphas):
            raise ValueError(f"box class {class_id} has no alpha: alphas gives {len(alphas)} values")

    def _best_match(self, tube: TubeState, candidates: list[CandidateBox]) -> int:
        """Index of the most confident candidate whose ``box_iou`` with the
        tube's last box exceeds the gate, or -1.  The overlap is
        ``geometry.box_iou`` with the same operations in the same order, and
        the tube's area taken from the cache."""
        gate = self.config.iou_gate
        bx1, by1, bx2, by2 = tube.last_geometry
        b_area = tube.last_area
        best = -1
        best_score = -1.0
        for i, cand in enumerate(candidates):
            conf = cand.confidence
            if conf > best_score:
                ax1, ay1, ax2, ay2 = cand.geometry
                ix = (bx2 if bx2 < ax2 else ax2) - (bx1 if bx1 > ax1 else ax1)
                if ix > 0.0:
                    iy = (by2 if by2 < ay2 else ay2) - (by1 if by1 > ay1 else ay1)
                    if iy > 0.0:
                        inter = ix * iy
                        w = ax2 - ax1
                        h = ay2 - ay1
                        union = (w if w > 0.0 else 0.0) * (h if h > 0.0 else 0.0) + b_area - inter
                        if union > 0.0 and inter / union > gate:
                            best = i
                            best_score = conf
        return best

    # Tests audit the linker through ``_retire`` and ``_emit`` (``tests/helpers.py``).
    def _retire(self, tube: TubeState, outcome: str) -> None:
        if tube.store is not None:
            tube.store.discard()

    def _emit(self, tube: TubeState) -> None:
        first, last = tube.first_labeled, tube.last_labeled
        score_sum, count = tube.labeled_sum, tube.n_labeled
        for e in tube.window:
            if e.label:
                if not count:
                    first = e.frame
                last = e.frame
                score_sum += e.score
                count += 1
        if count == 0:
            self._retire(tube, "empty")
            return
        store = tube.store
        score = score_sum / count
        kept = ((e.frame, e.box) for e in tube.window if e.label)
        if store is not None:
            kept = chain(store, kept)
        self._on_tube(self.video_id, tube.class_id, first, last, score, count, kept)
        if store is not None:
            store.discard()

    def _collect(self, video_id, class_id, t_start, t_end, score, n_entries, entries) -> None:
        self._results.append(FinalTube(video_id, class_id, t_start, t_end, score, tuple(entries)))

