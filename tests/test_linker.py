"""Online linking: temporal labeling, lifecycle, trimming, online contract."""

import errno
import functools
import gc
import math
import operator
import os
import re
import tempfile
import tracemalloc
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import AuditedLinker, built_audit, chain_frames, per_class_nms, random_stream
from tubestream import linker as linker_module
from tubestream.config import RunConfig
from tubestream.decode import CandidateBox
from tubestream.linker import (
    FRAME_MIN,
    LinkerConfig,
    OnlineLinker,
    SequencingError,
    SpillStore,
    TubeEntry,
    TubeState,
    alpha_from_training_error,
    temporal_label_step,
)
from tubestream.pipeline import run_link
from tubestream.records import RecordError, TubeWriter, iter_detection_rows, write_detections
from tubestream.synthetic import chain_stream_frames, oracle_link, score_only_link
from tubestream.tubes import DetectionStream


class TestAlphaFromTrainingError:
    def test_zero_error_pure_rate_regime(self):
        assert alpha_from_training_error(0.0) == 1.0

    def test_closed_form_point(self):
        assert alpha_from_training_error(0.1) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_large_error_score_regime(self):
        assert alpha_from_training_error(1.0) == pytest.approx(math.exp(-100.0), abs=1e-40)
        assert alpha_from_training_error(1.0) < 1e-40

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            alpha_from_training_error(-0.1)


BOX = (0.2, 0.2, 0.6, 0.6)


def link(frames, config):
    """The tubes a one-class linker emits over in-memory (frame, boxes) pairs."""
    linker = OnlineLinker(1, config)
    for t, boxes in frames:
        linker.step(t, boxes)
    return linker.finalize()


def fresh_tube(score=0.1, rate=0.1, frame=1):
    return TubeState(0, frame, BOX, score, rate)


def labels(tube):
    return [e.label for e in tube.window]


class TestTemporalLabelStep:
    def test_rising_rates_backfill_window(self):
        tube = fresh_tube(rate=0.1)
        for frame, rate in [(2, 0.2), (3, 0.3), (4, 0.4)]:
            temporal_label_step(tube, frame, BOX, 0.1, rate, alpha=0.9, window=3)
        assert tube.n_up == 3 and tube.n_down == 0
        assert labels(tube) == [0, 1, 1, 1]

    def test_falling_rates_stay_unlabeled(self):
        tube = fresh_tube(rate=0.9)
        for frame, rate in [(2, 0.8), (3, 0.7), (4, 0.6)]:
            temporal_label_step(tube, frame, BOX, 0.1, rate, alpha=0.9, window=3)
        assert tube.n_up == 0 and tube.n_down == 3
        assert labels(tube) == [0, 0, 0, 0]

    def test_oscillating_rates_high_scores_label_by_score(self):
        tube = fresh_tube(score=0.9, rate=0.5)
        for frame, rate in [(2, 0.6), (3, 0.4), (4, 0.6)]:
            temporal_label_step(tube, frame, BOX, 0.9, rate, alpha=0.5, window=3)
        assert tube.n_up < 3 and tube.n_down < 3
        assert labels(tube) == [1, 1, 1, 1]

    def test_label_inherited_from_previous_frame(self):
        tube = fresh_tube(score=0.9, rate=0.5)
        for frame, rate in [(2, 0.6), (3, 0.4)]:
            temporal_label_step(tube, frame, BOX, 0.9, rate, alpha=0.5, window=3)
        assert labels(tube) == [1, 1, 1]
        # Frame 4: counters stay unsaturated and the trailing mean drops
        # below alpha, so no branch fires; the new label is a pure copy of
        # the previous one.
        temporal_label_step(tube, 4, BOX, 0.0, 0.3, alpha=0.99, window=3)
        assert labels(tube) == [1, 1, 1, 1]

    def test_tie_counts_as_decrease(self):
        tube = fresh_tube(rate=0.5)
        temporal_label_step(tube, 2, BOX, 0.1, 0.5, alpha=1.0, window=3)
        assert tube.n_down == 1 and tube.n_up == 0

    def test_average_score_invariant(self):
        tube = fresh_tube(score=0.4)
        scores = [0.4]
        for frame, score in [(2, 0.8), (3, 0.1), (4, 0.6)]:
            temporal_label_step(tube, frame, BOX, score, 0.5, alpha=1.0, window=3)
            scores.append(score)
            assert tube.score_sum / tube.n_linked == pytest.approx(sum(scores) / len(scores), abs=1e-9)

    def test_trailing_mean_sums_in_frame_order(self):
        # Summed oldest first the mean clears alpha; newest first it does not.
        assert (0.3 + 0.2 + 0.1) / 3 <= 0.2 < (0.1 + 0.2 + 0.3) / 3
        tube = fresh_tube(score=0.1, rate=0.5)
        temporal_label_step(tube, 2, BOX, 0.2, 0.6, alpha=0.2, window=3)
        temporal_label_step(tube, 3, BOX, 0.3, 0.4, alpha=0.2, window=3)
        assert labels(tube) == [1, 1, 1]

    def test_out_of_order_frame_rejected(self):
        tube = fresh_tube()
        with pytest.raises(SequencingError):
            temporal_label_step(tube, 1, BOX, 0.1, 0.5, alpha=1.0, window=3)

    @given(st.integers(0, 10_000), st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_accumulators_saturate_within_bounds(self, seed, window):
        rng = np.random.default_rng(seed)
        tube = fresh_tube(rate=float(rng.uniform(0, 1)))
        for k in range(40):
            temporal_label_step(
                tube, k + 2, BOX, float(rng.uniform(0, 1)), float(rng.uniform(0, 1)),
                alpha=float(rng.uniform(0, 1)), window=window,
            )
            assert 0 <= tube.n_up <= window
            assert 0 <= tube.n_down <= window


class TestLinkerStep:
    def test_single_chain_labels_from_second_frame(self):
        rates = [t / 10 for t in range(1, 11)]
        tubes = link(chain_frames(10, rates, scores=[0.05] * 10), LinkerConfig(window=3, alphas=1.0))
        assert len(tubes) == 1
        tube = tubes[0]
        assert (tube.t_start, tube.t_end) == (2, 10)
        assert [f for f, _ in tube.entries] == list(range(2, 11))

    def test_low_iou_box_starts_its_own_tube(self):
        from tubestream.geometry import box_iou

        cfg = LinkerConfig(iou_gate=0.3, window=3, alphas=1.0)
        a = (0.1, 0.1, 0.3, 0.3)
        b = (0.2333, 0.1, 0.4333, 0.3)  # IoU vs a = 0.2 < gate
        assert box_iou(a, b) == pytest.approx(0.2, abs=1e-3)
        assert box_iou(a, b) < cfg.iou_gate
        linker = AuditedLinker(1, cfg)
        linker.step(1, [CandidateBox(0, a, 0.9, 0.1)])
        linker.step(2, [CandidateBox(0, b, 0.8, 0.2)])
        linker.finalize()
        starts = sorted(rec.t_start for rec in linker.audit_log)
        assert starts == [1, 2]

    def test_keep_m_drops_weaker_live_tube(self):
        cfg = LinkerConfig(iou_gate=0.3, window=6, max_tubes=1, alphas=1.0)
        strong, weak = (0.1, 0.1, 0.3, 0.3), (0.6, 0.6, 0.9, 0.9)
        linker = AuditedLinker(1, cfg)
        linker.step(1, [CandidateBox(0, strong, 0.9, 0.1), CandidateBox(0, weak, 0.4, 0.1)])
        # Only the best box seeds at the first frame under max_tubes=1.
        assert len(linker.audit_log) == 0
        linker.step(2, [CandidateBox(0, weak, 0.4, 0.2)])
        # The weak box starts a new tube at frame 2; the keep step at frame 3
        # then prunes it (0.4 average against 0.9).
        linker.step(3, [])
        pruned = [rec for rec in linker.audit_log if rec.outcome == "pruned"]
        assert len(pruned) == 1 and pruned[0].t_start == 2

    def test_wide_frame_seeds_at_most_max_tubes_per_class(self):
        """24 classes of 300 disjoint boxes, then a frame whose boxes match
        none of them: a frame builds only the seeds the next prune keeps, and
        the audit log is the reference's without the seeds left unbuilt."""
        cfg = LinkerConfig(window=6, max_tubes=10, alphas=0.0)
        rng = np.random.default_rng(0)

        def wide_frame(x0, lo, hi):
            # A 20 x 15 grid of disjoint cells over [x0, x0 + 0.5] x [0, 1];
            # two-digit scores, so seeds tie and the seed order breaks the ties.
            cells = [(x0 + 0.025 * (i % 20), (i // 20) / 15) for i in range(300)]
            return [
                CandidateBox(c, (x + 0.002, y + 0.002, x + 0.023, y + 1 / 15 - 0.002), s, 0.5)
                for c in range(24)
                for (x, y), s in zip(cells, np.round(rng.uniform(lo, hi, 300), 2).tolist())
            ]

        frames = [(1, wide_frame(0.0, 0.1, 0.4)), (2, wide_frame(0.5, 0.5, 0.99))]
        frames.append((3, frames[1][1]))  # the kept frame-2 seeds link and emit
        calls = []
        linker = AuditedLinker(24, cfg, on_tube=lambda *args: calls.append(args[:-1] + (tuple(args[-1]),)))
        linker.step(*frames[0])
        linker.step(*frames[1])
        per_class = Counter(tb.class_id for tb in linker.live_tubes())
        linker.step(*frames[2])
        linker.finalize()

        want, want_audit = oracle_link(DetectionStream("video", dict(frames)), 24, cfg, collect_audit=True)
        built = built_audit(want_audit, 1, cfg.max_tubes)
        assert set(per_class.values()) == {2 * cfg.max_tubes}
        # Unbuilt per class: 290 seeds at frame 2, and at frame 3 all but 10 of
        # the 290 boxes the kept frame-2 tubes leave unmatched.
        assert len(want_audit) - len(built) == 24 * (290 + 280)
        assert linker.audit_log == built
        pruned = Counter((rec.class_id, rec.t_start) for rec in linker.audit_log if rec.outcome == "pruned")
        assert pruned == {(c, 1): cfg.max_tubes for c in range(24)}
        assert len(calls) == 24 * cfg.max_tubes
        assert [call[1:4] + call[-1:] for call in calls] == [(w.class_id, w.t_start, w.t_end, w.entries) for w in want]

    def test_tube_completes_after_window_unlinked_frames(self):
        cfg = LinkerConfig(window=3, alphas=0.0)
        linker = OnlineLinker(1, cfg)
        linker.step(1, [CandidateBox(0, (0.1, 0.1, 0.3, 0.3), 0.9, 0.1)])
        linker.step(2, [CandidateBox(0, (0.1, 0.1, 0.3, 0.3), 0.9, 0.2)])
        emitted = []
        for t in range(3, 6):
            emitted += linker.step(t, [])
        assert len(emitted) == 1  # completed at frame 5 = 2 + window
        assert emitted[0].t_start == 1 and emitted[0].t_end == 2

    def test_out_of_order_frames_rejected(self):
        linker = OnlineLinker(1)
        linker.step(3, [])
        with pytest.raises(SequencingError):
            linker.step(3, [])
        with pytest.raises(SequencingError):
            linker.step(2, [])

    def test_greedy_exclusivity_no_box_linked_twice(self):
        for seed in range(25):
            stream, n_classes, cfg = random_stream(seed)
            linker = AuditedLinker(n_classes, cfg)
            for t in stream.ordered_frames():
                linker.step(t, stream.boxes_at(t))
            linker.finalize()
            used = {}
            for rec in linker.audit_log:
                for frame, box in zip(rec.frames, rec.boxes):
                    if frame == rec.t_start:
                        continue  # seed boxes are never contested
                    key = (frame, box)
                    assert key not in used, f"box linked twice (seed {seed})"
                    used[key] = rec.seq

    @pytest.mark.parametrize("at", [1, 2])
    @pytest.mark.parametrize(
        "n_classes, alphas, bad_class, bad_frame",
        [(None, (0.5, 0.5), 3, None), (2, 0.5, 2, None), (None, 0.5, -1, None)]
        + [(None, 0.5, None, frame) for frame in (3.0, True, 2**63, FRAME_MIN - 1)],
    )
    def test_rejected_frame_leaves_linker_unchanged(self, n_classes, alphas, bad_class, bad_frame, at):
        cfg = LinkerConfig(window=2, alphas=alphas)
        frames = chain_frames(6, [0.1 * t for t in range(1, 7)], scores=[0.9] * 6)
        linker = AuditedLinker(n_classes, cfg)
        for t, boxes in frames:
            if t == at and bad_frame is None:
                with pytest.raises(ValueError, match=f"class {bad_class}"):
                    linker.step(t, boxes + [CandidateBox(bad_class, BOX, 0.9, 0.5)])
            elif t == at:
                with pytest.raises(ValueError, match=f"frame {bad_frame!r} is not an integer"):
                    linker.step(bad_frame, boxes)
            linker.step(t, boxes)
        clean = AuditedLinker(n_classes, cfg)
        for t, boxes in frames:
            clean.step(t, boxes)
        assert (linker.finalize(), linker.audit_log) == (clean.finalize(), clean.audit_log)

    @pytest.mark.parametrize("n_classes", [0, True, 1.5])
    def test_n_classes_must_be_a_positive_int(self, n_classes):
        with pytest.raises(ValueError, match=f"n_classes must be an integer >= 1, got {n_classes!r}"):
            OnlineLinker(n_classes)

    def test_determinism_including_tie_breaks(self):
        box = (0.1, 0.1, 0.3, 0.3)
        frames = [
            (1, [CandidateBox(0, box, 0.5, 0.1), CandidateBox(0, box, 0.5, 0.9)]),
            (2, [CandidateBox(0, box, 0.5, 0.5), CandidateBox(0, box, 0.5, 0.5)]),
            (3, [CandidateBox(0, box, 0.5, 0.7)]),
        ]
        runs = []
        for _ in range(2):
            linker = AuditedLinker(1, LinkerConfig(window=2, alphas=0.4))
            for t, boxes in frames:
                linker.step(t, boxes)
            runs.append((linker.finalize(), linker.audit_log))
        assert runs[0] == runs[1]


class TestFinalize:
    def run_pattern(self, labels_wanted_rates, alpha=1.0, window=3, scores=None):
        frames = chain_frames(len(labels_wanted_rates), labels_wanted_rates, scores=scores)
        return link(frames, LinkerConfig(window=window, alphas=alpha))

    def test_interior_segment_trimmed(self):
        # Rates rise over frames 2..5 and fall after; labels become
        # 0,0,1,1,1,0,0,0 and the tube trims to the tightest 1-interval.
        rates = [0.5, 0.1, 0.35, 0.6, 0.9, 0.6, 0.3, 0.1]
        tubes = self.run_pattern(rates, window=3, scores=[0.05] * 8)
        assert len(tubes) == 1
        assert (tubes[0].t_start, tubes[0].t_end) == (3, 5)
        assert [f for f, _ in tubes[0].entries] == [3, 4, 5]

    def test_all_zero_labels_discarded(self):
        rates = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
        assert self.run_pattern(rates, scores=[0.05] * 6) == []

    def test_all_one_labels_unchanged(self):
        scores = [0.9] * 6
        rates = [0.2, 0.6, 0.3, 0.7, 0.4, 0.8]
        tubes = self.run_pattern(rates, alpha=0.5, window=3, scores=scores)
        assert len(tubes) == 1
        assert (tubes[0].t_start, tubes[0].t_end) == (1, 6)
        assert len(tubes[0].entries) == 6

    def test_emitted_score_sums_retained_scores_in_frame_order(self):
        # Rising rates label every frame; window 2 commits all but the last
        # two entries before the tube is emitted.
        scores = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.15]
        forward = functools.reduce(operator.add, scores)
        assert forward != functools.reduce(operator.add, scores[::-1])
        tubes = self.run_pattern([0.05 * t for t in range(1, 11)], alpha=0.0, window=2, scores=scores)
        assert len(tubes) == 1 and (tubes[0].t_start, tubes[0].t_end) == (1, 10)
        assert tubes[0].score == forward / len(scores)

    def test_score_recomputed_over_retained_frames(self):
        scores = [0.2, 0.4, 0.6, 0.8, 1.0, 0.9, 0.1, 0.15]
        rates = [0.5, 0.1, 0.35, 0.6, 0.9, 0.6, 0.3, 0.1]
        tubes = self.run_pattern(rates, window=3, scores=scores)
        assert tubes[0].score == pytest.approx((0.6 + 0.8 + 1.0) / 3, abs=1e-9)


class TestAlphaRegimes:
    def test_alpha_one_disables_score_labeling(self):
        # Oscillating rates never saturate the counters; with alpha=1 even
        # perfect scores cannot label, so the tube dies empty.
        rates = [0.5, 0.6, 0.4, 0.6, 0.4, 0.6, 0.4]
        tubes = link(chain_frames(7, rates, scores=[1.0] * 7), LinkerConfig(window=3, alphas=1.0))
        assert tubes == []

    @given(st.integers(0, 2_000))
    @settings(max_examples=60, deadline=None)
    def test_alpha_zero_matches_score_only_reference(self, seed):
        # The saturated-rise branch labels 1 exactly like the score rule
        # would (any positive score clears alpha=0), so the two linkers can
        # only diverge when the fall counter saturates.  On rate sequences
        # that keep that counter below the window, alpha=0 labeling is
        # score-only labeling.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 25))
        window = int(rng.integers(2, 5))
        walk, n_down = [0.0], 0
        while len(walk) < n:
            down = rng.random() < 0.5 and n_down < window - 1
            n_down = n_down + 1 if down else max(0, n_down - 1)
            step = float(rng.uniform(0.01, 1.0))
            walk.append(walk[-1] - step if down else walk[-1] + step)
        # Squash into (0, 1) with a strictly monotone map: order relations,
        # and hence the counters, are exactly preserved and nothing can tie.
        rates = [1.0 / (1.0 + math.exp(-u)) for u in walk]
        scores = [float(rng.uniform(0.1, 1.0)) for _ in range(n)]
        frames = chain_frames(n, rates, scores=scores)
        cfg = LinkerConfig(window=window, alphas=0.0)
        got = link(frames, cfg)
        stream = DetectionStream(video_id="video", frames={t: list(b) for t, b in frames})
        want = score_only_link(stream, 1, cfg)
        assert got == want


# Labeled entries a ``SpillStore`` holds in memory before it opens its file.
CHUNK = linker_module._SPILL_CHUNK // linker_module._SPILL_RECORD.size


def count_temp_files(monkeypatch) -> list:
    """Record every ``tempfile.TemporaryFile`` call from here on, as its
    ``(dir, file)`` pair."""
    calls = []
    original = tempfile.TemporaryFile

    def counted(*args, **kwargs):
        calls.append((kwargs.get("dir"), original(*args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(tempfile, "TemporaryFile", counted)
    return calls


class TestStores:
    def test_stores_yield_identical_entries(self, tmp_path, monkeypatch):
        files = count_temp_files(monkeypatch)
        rng = np.random.default_rng(7)
        for n in (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK):
            entries = [
                TubeEntry(frame, tuple(float(x) for x in rng.uniform(0.0, 1.0, 4)), *rng.uniform(0.0, 1.0, 2), 1)
                for frame in range(1, n + 1)
            ]
            store = SpillStore(str(tmp_path))
            for e in entries:
                store.append(e)
            assert list(store) == [(e.frame, e.box) for e in entries], n
            # The file is opened only once a whole chunk is held, and closes with the store.
            assert [d for d, _ in files] == [str(tmp_path)] * (n >= CHUNK), n
            store.discard()
            assert all(f.closed for _, f in files) and list(store) == [], n
            files.clear()

    def test_spill_store_memory_does_not_grow_with_entries(self, tmp_path):
        box = (0.1, 0.2, 0.3, 0.4)

        def traced_peak(n: int) -> int:
            tracemalloc.start()
            store = SpillStore(str(tmp_path))
            for frame in range(n):
                store.append(TubeEntry(frame, box, 0.5, 0.5, 1))
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            store.discard()
            return peak

        traced_peak(1_000)  # first calls build the temp-name machinery
        short, long = traced_peak(1_000), traced_peak(10_000)
        assert long <= 1.2 * short, (short, long)

    def test_run_link_opens_no_spill_file_for_short_tubes(self, tmp_path, monkeypatch):
        det, tubes = tmp_path / "det.txt", tmp_path / "tubes.txt"
        write_detections(str(det), [random_stream(seed, max_frames=60)[0] for seed in range(12)])
        appended = Counter()
        original_append = SpillStore.append

        def append(store, entry):
            appended[store] += 1
            original_append(store, entry)

        monkeypatch.setattr(SpillStore, "append", append)
        files = count_temp_files(monkeypatch)
        n_tubes = run_link(RunConfig(alphas=0.3), str(det), str(tubes), str(tmp_path))
        assert n_tubes > 0 and len(appended) > 0 and max(appended.values()) < CHUNK
        assert files == []

    def test_store_built_once_per_tube_with_a_labeled_commit(self):
        for seed in range(40):
            stream, n_classes, cfg = random_stream(seed, max_frames=40)
            built = []

            def factory():
                built.append(SpillStore())
                return built[-1]

            linker = OnlineLinker(n_classes, cfg, store_factory=factory)
            with_store = {}
            for t in stream.ordered_frames():
                linker.step(t, stream.boxes_at(t))
                # A tube commits only in a step it survives, so every tube
                # that ever commits is seen here.
                for tube in linker.live_tubes():
                    assert (tube.store is None) == (tube.n_labeled == 0), f"seed {seed}"
                    if tube.store is not None:
                        assert with_store.setdefault(tube.seq, tube.store) is tube.store, f"seed {seed}"
            linker.finalize()
            assert len(built) == len(with_store), f"seed {seed}"
            assert {id(s) for s in built} == {id(s) for s in with_store.values()}, f"seed {seed}"

    @staticmethod
    def count_reads(monkeypatch) -> Counter:
        """Count ``SpillStore.__iter__`` calls per store, and under
        ``"entries"`` the pairs they yield."""
        reads: Counter = Counter()
        original = SpillStore.__iter__

        def counted(store):
            reads[store] += 1
            pairs = list(original(store))
            reads["entries"] += len(pairs)
            return iter(pairs)

        monkeypatch.setattr(SpillStore, "__iter__", counted)
        return reads

    def test_store_read_once_per_emitted_tube(self, tmp_path, monkeypatch):
        reads = self.count_reads(monkeypatch)
        emitted_stores = []
        original_emit = OnlineLinker._emit

        def emit(linker, tube):
            emitted_stores.append(tube.store)
            original_emit(linker, tube)

        monkeypatch.setattr(OnlineLinker, "_emit", emit)
        for seed in range(40):
            stream, n_classes, cfg = random_stream(seed)
            emitted = []
            linker = OnlineLinker(
                n_classes,
                cfg,
                store_factory=lambda: SpillStore(str(tmp_path)),
                on_tube=lambda *tube: emitted.append(len(list(tube[-1]))),
            )
            for t in stream.ordered_frames():
                linker.step(t, stream.boxes_at(t))
            linker.finalize()
            # Only a tube with a labeled commit has a store, and such a tube
            # is emitted or pruned: an emitted one reads its store once, a
            # pruned one never does.
            per_store = {key: n for key, n in reads.items() if key != "entries"}
            assert set(per_store.values()) <= {1}, f"seed {seed}"
            assert set(per_store) == {s for s in emitted_stores if s is not None}, f"seed {seed}"
            assert len(per_store) <= len(emitted), f"seed {seed}"
            reads.clear()
            emitted_stores.clear()

    def test_chain_tube_reads_its_spill_file_once(self, tmp_path, monkeypatch):
        reads = self.count_reads(monkeypatch)
        files = count_temp_files(monkeypatch)
        emitted = []

        def sink(video_id, class_id, t_start, t_end, score, count, entries):
            emitted.append((count, sum(1 for _ in entries)))

        linker = OnlineLinker(
            config=LinkerConfig(alphas=1.0), store_factory=lambda: SpillStore(str(tmp_path)), on_tube=sink
        )
        for t, boxes in chain_stream_frames(2_000):
            linker.step(t, boxes)
        assert not reads
        (tube,) = linker.live_tubes()
        committed_labeled = tube.n_labeled
        linker.finalize()
        window = linker.config.window
        assert len(emitted) == 1 and emitted[0][0] == emitted[0][1] == committed_labeled + window
        assert reads.pop("entries") == committed_labeled and list(reads.values()) == [1]
        # One tube past one chunk opens one file, closed once the tube is emitted.
        assert committed_labeled > CHUNK and [d for d, _ in files] == [str(tmp_path)] and files[0][1].closed

    def test_spill_store_cleans_up_files(self, monkeypatch):
        # The default store of a tube past one chunk closes its file when the tube is pruned.
        files = count_temp_files(monkeypatch)
        linker = AuditedLinker(config=LinkerConfig(alphas=1.0, max_tubes=1))
        for t, boxes in chain_stream_frames(2_000):
            linker.step(t, boxes)
        # A more confident tube away from the chain outranks it, so the chain is pruned.
        far = (0.8, 0.8, 0.95, 0.95)
        linker.step(2_001, [CandidateBox(0, far, 1.0, 0.5)])
        assert len(files) == 1 and not files[0][1].closed
        linker.step(2_002, [CandidateBox(0, far, 1.0, 0.6)])
        assert [a.outcome for a in linker.audit_log] == ["pruned"] and files[0][1].closed

    def test_default_linker_memory_does_not_grow_with_stream(self):
        def traced_peak(n_frames: int) -> int:
            tracemalloc.start()
            linker = OnlineLinker(config=LinkerConfig(alphas=1.0), on_tube=lambda *tube: sum(1 for _ in tube[-1]))
            for t, boxes in chain_stream_frames(n_frames):
                linker.step(t, boxes)
            linker.finalize()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        traced_peak(2_000)  # first calls build the temp-file machinery
        short, long = traced_peak(2_000), traced_peak(20_000)
        assert long <= 1.2 * short, (short, long)

    def test_linker_dropped_without_finalize_leaves_nothing_on_disk(self, tmp_path, monkeypatch):
        files = count_temp_files(monkeypatch)
        linker = OnlineLinker(config=LinkerConfig(alphas=1.0), store_factory=lambda: SpillStore(str(tmp_path)))
        for t, boxes in chain_stream_frames(2_000):
            linker.step(t, boxes)
        opened = [weakref.ref(f) for _, f in files]
        files.clear()
        del linker
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ResourceWarning)  # the file closes unclosed, as intended
            gc.collect()
        assert os.listdir(tmp_path) == []
        assert len(opened) == 1 and opened[0]() is None

    def test_missing_spool_dir_fails_at_the_first_labeled_commit(self, tmp_path):
        """A store checks its directory when built, so a linker fails at its
        tube's first labeled commit, naming the directory, not once a chunk fills."""
        first_store, last_step = {}, {}

        def run(directory: str) -> None:
            def factory():
                first_store.setdefault(directory, frame)
                return SpillStore(directory)

            linker = OnlineLinker(config=LinkerConfig(alphas=1.0), store_factory=factory)
            for frame, boxes in chain_stream_frames(2_000):
                last_step[directory] = frame
                linker.step(frame, boxes)

        run(str(tmp_path))
        missing = str(tmp_path / "nonexistent")
        with pytest.raises(NotADirectoryError, match=re.escape(f"spool directory {missing!r} is not a directory")):
            run(missing)
        assert last_step[missing] == first_store[str(tmp_path)] < CHUNK

    def test_failed_step_leaves_a_linker_that_says_so(self, tmp_path):
        """A step that fails after its checks, building a store in a removed spool
        directory or emitting into a full sink, leaves the linker failed: a retry of
        that frame, a later frame and ``finalize`` each name the frame that failed."""

        def full_sink(*tube):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        spool = tmp_path / "spool"
        spool.mkdir()
        spilling = OnlineLinker(config=LinkerConfig(alphas=1.0), store_factory=lambda: SpillStore(str(spool)))
        spool.rmdir()
        # Alpha 0 labels every frame; the tube completes a window after its last box.
        sinking = OnlineLinker(config=LinkerConfig(alphas=0.0), on_tube=full_sink)
        ended = chain_frames(4, [0.5] * 4) + [(t, []) for t in range(5, 12)]
        for linker, frames, error in (
            (spilling, chain_stream_frames(2_000), "NotADirectoryError"),
            (sinking, ended, "OSError"),
        ):
            for frame, boxes in frames:
                try:
                    linker.step(frame, boxes)
                except OSError as exc:
                    assert type(exc).__name__ == error
                    break
            else:
                pytest.fail(f"no {error} in the stream")
            message = re.escape(f"linker failed at frame {frame}: {error}: ")
            for retry in (lambda: linker.step(frame, boxes), lambda: linker.step(frame + 1, []), linker.finalize):
                with pytest.raises(SequencingError, match=message):
                    retry()
        # A finalize that fails does not pass for done on its retry.
        unfinished = OnlineLinker(config=LinkerConfig(alphas=0.0), on_tube=full_sink)
        for frame, boxes in chain_frames(4, [0.5] * 4):
            unfinished.step(frame, boxes)
        with pytest.raises(OSError):
            unfinished.finalize()
        with pytest.raises(SequencingError, match="linker failed to finalize: OSError: "):
            unfinished.finalize()

    def test_failed_run_link_leaves_spool_dir_empty(self, tmp_path, monkeypatch):
        det, tubes, spool = tmp_path / "det.txt", tmp_path / "tubes.txt", tmp_path / "spool"
        spool.mkdir()
        # One tube of rising rates, past one chunk of labeled pairs, then a zero-width box.
        rows = [f"a {t} 0 0.1 0.1 0.5 0.5 0.9 {t / 400:.6f}" for t in range(1, 401)]
        rows.append("a 401 0 0.5 0.1 0.5 0.5 0.9 0.5")
        det.write_text("#tubestream detections v1\n" + "\n".join(rows) + "\n")
        files = count_temp_files(monkeypatch)
        with pytest.raises(RecordError, match=r"det\.txt:402: "):
            run_link(RunConfig(alphas=1.0), str(det), str(tubes), str(spool))
        assert [d for d, _ in files] == [str(spool)] and os.listdir(spool) == []


class TestOnlineContract:
    def test_committed_labels_never_change(self):
        for seed in range(30):
            stream, n_classes, cfg = random_stream(seed)
            linker = AuditedLinker(n_classes, cfg, video_id=stream.video_id)
            committed: dict[tuple, int] = {}
            for t in stream.ordered_frames():
                linker.step(t, stream.boxes_at(t))
                for tube in linker.live_tubes():
                    for entry in linker.entries(tube):
                        if entry.frame <= t - cfg.window:
                            key = (tube.seq, entry.frame)
                            if key in committed:
                                assert committed[key] == entry.label, f"seed {seed}"
                            else:
                                committed[key] = entry.label
            linker.finalize()

    def test_prefix_run_reproduces_committed_labels(self):
        stream, n_classes, cfg = random_stream(11, max_frames=25)
        frames = stream.ordered_frames()
        full = AuditedLinker(n_classes, cfg, video_id=stream.video_id)
        snapshots = {}
        for t in frames:
            full.step(t, stream.boxes_at(t))
            snapshots[t] = {
                (tube.seq, e.frame): e.label
                for tube in full.live_tubes()
                for e in full.entries(tube)
                if e.frame <= t - cfg.window
            }
        for cut in frames[:: max(1, len(frames) // 5)]:
            prefix = AuditedLinker(n_classes, cfg, video_id=stream.video_id)
            for t in frames:
                if t > cut:
                    break
                prefix.step(t, stream.boxes_at(t))
            got = {
                (tube.seq, e.frame): e.label
                for tube in prefix.live_tubes()
                for e in prefix.entries(tube)
                if e.frame <= cut - cfg.window
            }
            assert got == snapshots[cut]


class TestRunLinkOracle:
    """``run_link`` on a file of several videos writes what the reference
    linker writes over each video's rows as read back, after per-class NMS."""

    @pytest.mark.parametrize("config", [RunConfig(alphas=0.3), RunConfig(alphas=0.0, window=3, max_tubes=2)])
    def test_tubes_file_is_the_oracles(self, tmp_path, config):
        det, tubes, want = tmp_path / "det.txt", tmp_path / "tubes.txt", tmp_path / "want.txt"
        write_detections(str(det), [random_stream(seed, max_frames=40)[0] for seed in range(10)])
        videos: dict[str, dict[int, list[CandidateBox]]] = {}
        for video_id, frame, box in iter_detection_rows(str(det)):
            videos.setdefault(video_id, {}).setdefault(frame, []).append(box)
        # Videos share frame numbers, skip frames and mix classes in a frame.
        assert sum(1 in frames for frames in videos.values()) > 1
        assert any(max(frames) - min(frames) >= len(frames) for frames in videos.values())
        assert any(len({bx.class_id for bx in boxes}) > 1 for frames in videos.values() for boxes in frames.values())
        with TubeWriter(str(want)) as writer:
            for video_id, frames in videos.items():
                kept = {t: per_class_nms(boxes, config.score_threshold, config.nms_iou) for t, boxes in frames.items()}
                for tube in oracle_link(DetectionStream(video_id, kept), 3, config)[0]:
                    writer.write_tube(tube)
        n_tubes = run_link(config, str(det), str(tubes), str(tmp_path))
        assert n_tubes > 0 and tubes.read_bytes() == want.read_bytes()
