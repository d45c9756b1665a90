"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import inspect
import json
import math
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np

import metrics_oracle
from helpers import AuditedLinker, built_audit, contested_stream, random_stream, with_unlinkable_confidences
from tubestream import linker as linker_module
from tubestream import synthetic
from tubestream.geometry import box_iou, temporal_iou
from tubestream.linker import (
    LinkerConfig,
    OnlineLinker,
    SpillStore,
    alpha_from_training_error,
)
from tubestream.config import RunConfig
from tubestream.decode import CandidateBox
from tubestream.losses import check_gradients, random_check_case
from tubestream.metrics import evaluate, tube_iou
from tubestream.pipeline import run_eval, run_link
from tubestream.records import DetectionWriter, iter_annotations, iter_detection_rows, parse_tubes, write_annotations
from tubestream.synthetic import ScenarioSpec, TrackSpec, chain_stream_frames, generate, oracle_link
from tubestream.tubes import FinalTube, GroundTruthTube

DATA = Path(__file__).parent / "data"
SCENARIOS = Path(__file__).parents[1] / "scenarios"

LINK_CFG = dict(iou_gate=0.3, window=6, max_tubes=10, score_floor=1e-3)
CONTESTED_STREAMS = 40
# The most run_eval's traced peak may grow per added detection row (README states it).
EVAL_BYTES_PER_ROW = 48


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_metric_hand_cases():
    t0 = time.perf_counter()
    checks = []

    checks.append(abs(box_iou((0, 0, 10, 10), (5, 0, 15, 10)) - 1 / 3) < 1e-9)
    checks.append(abs(temporal_iou((1, 10), (6, 15)) - 1 / 3) < 1e-9)

    # Mean spatial IoU 0.8 over the overlap x temporal IoU 0.5 = 0.4.
    gt = GroundTruthTube("v", 0, 1, 10, ((0.0, 0.0, 1.0, 1.0),) * 10)
    det = FinalTube("v", 0, 6, 10, 0.9, tuple((f, (0.0, 0.0, 1.0, 0.8)) for f in range(6, 11)))
    checks.append(abs(tube_iou(det, gt) - 0.8 * 0.5) < 1e-9)

    # Hand-enumerated PR curves on a 4-frame 2-class fixture:
    # class 0 flags (T, F, T) over 2 GT frames -> AP = (1 + 2/3) / 2 = 5/6;
    # class 1 flags (F, T) over 1 GT frame -> AP = 1/2; f-mAP = 2/3.
    g = (0.1, 0.1, 0.5, 0.5)
    far = (0.6, 0.6, 0.9, 0.9)
    gt_tubes = [
        GroundTruthTube("v", 0, 1, 2, (g, g)),
        GroundTruthTube("v", 1, 4, 4, (g,)),
    ]
    dets = [
        ("v", 1, 0, 0.9, g),
        ("v", 3, 0, 0.8, g),
        ("v", 2, 0, 0.7, g),
        ("v", 4, 1, 0.95, far),
        ("v", 4, 1, 0.5, g),
    ]
    frame_level = evaluate([], gt_tubes, dets, frame_threshold=0.5)
    checks.append(abs(frame_level.f_ap[0] - 5 / 6) < 1e-9)
    checks.append(abs(frame_level.f_ap[1] - 1 / 2) < 1e-9)
    checks.append(abs(frame_level.f_map - 2 / 3) < 1e-9)

    # Video level: the 0.4-overlap tube is a hit below 0.4 and a miss above;
    # v-mAP over one class equals the hand AP at every threshold.
    v_map = evaluate([det], [gt], tube_thresholds=(0.1, 0.2, 0.3, 0.5, 0.75)).v_map
    checks.append(v_map[0.1] == 1.0 and v_map[0.3] == 1.0)
    checks.append(v_map[0.5] == 0.0 and v_map[0.75] == 0.0)

    elapsed = time.perf_counter() - t0
    checks.append(elapsed < 1.0)
    verdict(
        "metric hand-cases",
        all(checks),
        f"exact to 1e-9 (box 1/3, t-IoU 1/3, tube 0.4, f-mAP 2/3) in {elapsed:.3f}s",
    )


def test_gradient_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        pred, target, weights = random_check_case(seed)
        worst = max(worst, check_gradients(pred, target, weights, eps=1e-5))
    elapsed = time.perf_counter() - t0
    verdict(
        "gradient suite",
        worst < 1e-4 and elapsed < 10.0,
        f"max relative error {worst:.3e} over 100 seeds in {elapsed:.2f}s",
    )


def differential_mismatches(n_streams: int, make_stream=random_stream) -> tuple[int, int, int]:
    """Over the first ``n_streams`` streams of ``make_stream``, how many an audited
    linker links differently from the reference in full pre-trim state and in final
    tubes, and how many of the reference's seeds the ``max_tubes`` cap leaves unbuilt.
    Some boxes of each stream carry a confidence no tube may take, or one at the floor."""
    states = tubes = capped = 0
    make_stream = with_unlinkable_confidences(make_stream)
    for seed in range(n_streams):
        stream, n_classes, cfg = make_stream(seed)
        linker = AuditedLinker(n_classes, cfg, video_id=stream.video_id)
        for t in stream.ordered_frames():
            linker.step(t, stream.boxes_at(t))
        got = linker.finalize()
        want, want_audit = oracle_link(stream, n_classes, cfg, collect_audit=True)
        built = built_audit(want_audit, min(stream.frames, default=None), cfg.max_tubes)
        capped += len(want_audit) - len(built)
        states += linker.audit_log != built
        tubes += not (
            len(got) == len(want)
            and all(
                (a.video_id, a.class_id, a.t_start, a.t_end, a.entries)
                == (b.video_id, b.class_id, b.t_start, b.t_end, b.entries)
                and abs(a.score - b.score) <= 1e-9
                for a, b in zip(got, want)
            )
        )
    return states, tubes, capped


def test_differential_linking():
    t0 = time.perf_counter()
    states, tubes, capped = differential_mismatches(1000)
    elapsed = time.perf_counter() - t0
    verdict(
        "differential linking",
        states == tubes == 0 and capped > 0 and elapsed < 30.0,
        f"{states} state and {tubes} tube mismatches over 1000 streams ({capped} capped seeds) in {elapsed:.2f}s",
    )


def plant_in_step(monkeypatch, old: str, new: str) -> None:
    """Plant a fault: ``OnlineLinker.step`` with its one ``old`` source text replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(OnlineLinker.step))
    assert source.count(old) == 1, old
    names = dict(vars(linker_module))
    exec(compile(source.replace(old, new), linker_module.__file__, "exec", dont_inherit=True), names)
    monkeypatch.setattr(OnlineLinker, "step", names["step"])


def test_differential_linking_catches_a_cap_on_the_least_confident_seeds(monkeypatch):
    plant_in_step(monkeypatch, "sorted(ranking[:max_tubes])", "sorted(ranking[-max_tubes:])")
    states, tubes, _ = differential_mismatches(200)
    assert states > 0 and tubes > 0


def test_differential_linking_of_wide_contested_frames():
    t0 = time.perf_counter()
    states, tubes, capped = differential_mismatches(CONTESTED_STREAMS, contested_stream)
    elapsed = time.perf_counter() - t0
    verdict(
        "differential linking, wide contested frames",
        states == tubes == 0 and capped > 0 and elapsed < 30.0,
        f"{states} state and {tubes} tube mismatches over {CONTESTED_STREAMS} streams"
        f" ({capped} capped seeds) in {elapsed:.2f}s",
    )


def test_contested_differential_catches_the_first_gated_box_in_input_order(monkeypatch):
    best_match = OnlineLinker._best_match

    def first_in_input_order(self, tube, candidates, ranking):
        by_input = sorted(ranking)
        k = best_match(self, tube, candidates, by_input)
        return k if k < 0 else ranking.index(by_input[k])

    monkeypatch.setattr(OnlineLinker, "_best_match", first_in_input_order)
    states, tubes, _ = differential_mismatches(CONTESTED_STREAMS, contested_stream)
    assert states > 0 and tubes > 0


def test_differential_linking_catches_a_reference_that_takes_any_confidence(monkeypatch):
    # The reference as it was: a tube took its most confident gated box, so the
    # first gated one whatever its confidence, NaN and -2.0 included.
    source = textwrap.dedent(inspect.getsource(synthetic._reference_link))
    rule = " and b.confidence > -1.0:"
    assert source.count(rule) == 1
    names = dict(vars(synthetic))
    exec(compile(source.replace(rule, ":"), synthetic.__file__, "exec", dont_inherit=True), names)
    monkeypatch.setattr(synthetic, "_reference_link", names["_reference_link"])
    for n_streams, make_stream in ((200, random_stream), (CONTESTED_STREAMS, contested_stream)):
        states, tubes, _ = differential_mismatches(n_streams, make_stream)
        assert states > 0 and tubes > 0


def test_differential_linking_reads_the_linkers_own_entries(monkeypatch):
    # Rates rounded to 12 digits as the linker stores them: the full-state
    # comparison sees it, the final tubes (which carry no rates) do not.
    entry = linker_module.TubeEntry

    def rounded(frame, box, score, rate, label):
        return entry(frame, box, score, round(rate, 12), label)

    monkeypatch.setattr(linker_module, "TubeEntry", rounded)
    states, tubes, _ = differential_mismatches(200)
    assert states > 0 and tubes == 0


def mechanism_tiou(spec: ScenarioSpec, alpha: float) -> float:
    stream, gt = generate(spec)
    cfg = LinkerConfig(alphas=alpha, **LINK_CFG)
    linker = OnlineLinker(spec.n_classes, cfg, video_id=spec.video_id)
    for t in stream.ordered_frames():
        linker.step(t, stream.boxes_at(t))
    tubes = linker.finalize()
    per_class = evaluate(tubes, gt).t_iou
    return sum(per_class.values()) / len(per_class)


def test_mechanism_reproduction():
    t0 = time.perf_counter()
    with open(SCENARIOS / "mechanism.json", encoding="utf-8") as fh:
        clean = ScenarioSpec.from_dict(json.load(fh))
    with open(SCENARIOS / "mechanism_noisy.json", encoding="utf-8") as fh:
        noisy = ScenarioSpec.from_dict(json.load(fh))
    assert noisy.rate_noise <= 0.05

    values = {
        "clean_alpha1": mechanism_tiou(clean, 1.0),
        "clean_alpha0": mechanism_tiou(clean, 0.0),
        "noisy_alpha1": mechanism_tiou(noisy, 1.0),
        "noisy_alpha0": mechanism_tiou(noisy, 0.0),
    }
    with open(DATA / "mechanism_golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)
    regression = all(abs(values[k] - golden[k]) < 1e-9 for k in golden)

    clean_gap = values["clean_alpha1"] - values["clean_alpha0"]
    noisy_gap = values["noisy_alpha1"] - values["noisy_alpha0"]
    elapsed = time.perf_counter() - t0
    verdict(
        "mechanism reproduction",
        values["clean_alpha1"] >= 0.85 and clean_gap >= 0.2 and noisy_gap >= 0.1 and regression and elapsed < 30.0,
        (
            f"clean t-IoU {values['clean_alpha1']:.3f} (gap {clean_gap:+.3f}), "
            f"noisy gap {noisy_gap:+.3f}, golden match={regression}, {elapsed:.2f}s"
        ),
    )


def test_alpha_formula():
    exact_one = alpha_from_training_error(0.0) == 1.0
    closed_form = abs(alpha_from_training_error(0.1) - math.exp(-1.0)) < 1e-12
    verdict(
        "alpha formula",
        exact_one and closed_form,
        f"alpha(0)={alpha_from_training_error(0.0)}, |alpha(0.1)-e^-1|={abs(alpha_from_training_error(0.1) - math.exp(-1.0)):.2e}",
    )


def test_online_contract_fuzz():
    violations = 0
    for seed in range(200):
        stream, n_classes, cfg = random_stream(seed + 5000)
        frames = stream.ordered_frames()

        # Full pass: committed labels (older than the window) must be frozen.
        linker = AuditedLinker(n_classes, cfg, video_id=stream.video_id)
        committed: dict[tuple, int] = {}
        snapshots = {}
        for t in frames:
            linker.step(t, stream.boxes_at(t))
            snap = {}
            for tube in linker.live_tubes():
                for e in linker.entries(tube):
                    if e.frame <= t - cfg.window:
                        key = (tube.seq, e.frame)
                        snap[key] = e.label
                        if key in committed and committed[key] != e.label:
                            violations += 1
                        committed.setdefault(key, e.label)
            snapshots[t] = snap
        linker.finalize()

        # Prefix pass: a run over a prefix commits exactly the same labels,
        # so nothing ever depended on future frames.
        cut = frames[len(frames) // 2]
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
        if got != snapshots[cut]:
            violations += 1
    verdict("online contract", violations == 0, f"{violations} violations over 200 seeds")


def run_chain(n_frames: int, spool_dir: str) -> None:
    consumed = 0

    def sink(video_id, class_id, t_start, t_end, score, count, entries):
        nonlocal consumed
        for _ in entries:
            consumed += 1

    linker = OnlineLinker(
        config=LinkerConfig(alphas=1.0), store_factory=lambda: SpillStore(spool_dir), on_tube=sink
    )
    for t, boxes in chain_stream_frames(n_frames):
        linker.step(t, boxes)
    linker.finalize()


def test_streaming_bound(tmp_path):
    spool = str(tmp_path)
    n_long = 1_000_000

    t0 = time.perf_counter()
    run_chain(n_long, spool)
    throughput = n_long / (time.perf_counter() - t0)

    peaks = {}
    for label, n in (("short", 1_000), ("long", n_long)):
        tracemalloc.start()
        run_chain(n, spool)
        _, peaks[label] = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    ratio = peaks["long"] / peaks["short"]
    verdict(
        "streaming bound",
        throughput >= 1e4 and ratio <= 2.0,
        (
            f"throughput {throughput:,.0f} frames/s, traced peak "
            f"{peaks['short'] / 1024:.0f} KiB -> {peaks['long'] / 1024:.0f} KiB (ratio {ratio:.2f})"
        ),
    )


def eval_shaped_set(work: Path, n_videos: int) -> tuple[str, str, str]:
    """Detections, annotations and linked tubes of ``n_videos`` videos of the
    benchmark's ``eval`` shape: 300 frames and 4 classes a video, six scripted
    actions of fixed lengths, confident context and distractors, class 3 periodic.
    Video ``v`` is the same in every set."""
    work.mkdir()
    det, ann, tubes = str(work / "det.txt"), str(work / "ann.txt"), str(work / "tubes.txt")
    gt = []
    with DetectionWriter(det) as writer:
        for v in range(n_videos):
            rng = np.random.default_rng([0, v])
            tracks = []
            for length in (30, 45, 60, 75, 90, 105):
                t_start = int(rng.integers(1, 300 - length + 2))
                w, h = rng.uniform(0.15, 0.35, 2)
                cx, cy = rng.uniform(0.3, 0.7, 2)
                dx, dy = rng.uniform(-0.1, 0.1, 2)
                start = (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
                end = (start[0] + dx, start[1] + dy, start[2] + dx, start[3] + dy)
                class_id, t_end = int(rng.integers(0, 4)), t_start + length - 1
                tracks.append(TrackSpec(class_id, t_start, t_end, tuple(map(float, start)), tuple(map(float, end))))
            spec = ScenarioSpec(
                n_frames=300, n_classes=4, tracks=tuple(tracks), geometry_jitter=0.01, rate_noise=0.03,
                in_score=(0.5, 1.0), context_score=(0.4, 0.9), context_fraction=0.25, distractor_rate=1.0,
                distractor_score=(0.0, 0.4), periodic=(False, False, False, True),
                seed=int(rng.integers(0, 2**31)), video_id=f"v{v:02d}",
            )
            stream, truth = generate(spec)
            gt += truth
            for t in stream.ordered_frames():
                for bx in stream.boxes_at(t):
                    writer.add(stream.video_id, t, bx)
    write_annotations(ann, gt)
    run_link(RunConfig(alphas=1.0), det, tubes)
    return det, ann, tubes


def test_eval_bound(tmp_path):
    t0 = time.perf_counter()
    peaks, rows, same = {}, {}, True
    config = RunConfig(alphas=1.0)
    for label, n_videos in (("short", 10), ("long", 40)):
        det, ann, tubes = eval_shaped_set(tmp_path / label, n_videos)
        tracemalloc.start()
        try:
            report = run_eval(config, tubes, ann, det)
            peaks[label] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        frame_rows = list(iter_detection_rows(det))
        rows[label] = len(frame_rows)
        want = metrics_oracle.evaluate(parse_tubes(tubes), list(iter_annotations(ann)), frame_rows, config.deltas)
        same = same and report.rows() == want.rows()
    growth = (peaks["long"] - peaks["short"]) / (rows["long"] - rows["short"])
    elapsed = time.perf_counter() - t0
    verdict(
        "eval bound",
        growth <= EVAL_BYTES_PER_ROW and same and elapsed < 30.0,
        (
            f"traced peak {peaks['short'] / 1024:.0f} KiB at {rows['short']} rows -> {peaks['long'] / 1024:.0f} KiB"
            f" at {rows['long']} rows ({growth:.1f} B per added row, bound {EVAL_BYTES_PER_ROW});"
            f" reports equal the oracle's: {same}; {elapsed:.2f}s"
        ),
    )
