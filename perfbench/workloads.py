"""Seeded inputs, stage drivers and output checks of the three workloads.

Every workload is a closed loop with one client in one thread: a pass calls
the product's public entry points one after the other, each only when the
previous one has returned, and checks the outputs after the timed calls.

* ``wide`` writes random-logit raw grids and drives ``pipeline.run_decode``
  then ``pipeline.run_link`` with the default ``RunConfig``.
* ``chain`` pushes ``synthetic.chain_stream_frames`` through
  ``OnlineLinker.step`` and ``finalize`` with a spill store and a streaming
  sink, as README "Library use" and the acceptance test do.  The stream is
  pure arithmetic, so the seed does not change it.
* ``eval`` renders seeded scenarios with ``synthetic.generate`` and drives
  ``pipeline.run_link`` then ``pipeline.run_eval``.

Import this module only after ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import array
import filecmp
import hashlib
import json
import os
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from tubestream import decode, metrics, pipeline, records
from tubestream.config import RunConfig
from tubestream.decode import AnchorSet, RawGrid, attr_width, nms_boxes
from tubestream.linker import OnlineLinker, SpillStore, TubeEntry
from tubestream.records import iter_detection_rows, parse_tubes
from tubestream.synthetic import ScenarioSpec, TrackSpec, chain_stream_frames, generate, oracle_link
from tubestream.tubes import DetectionStream

from tracing import Tracer

DEFAULT_SEED = 0
EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text(encoding="utf-8"))

# Wide: the UCF101-24 grid shape and five fixed anchor priors (cell units).
WIDE_DIMS = (13, 5, 24)
WIDE_FRAMES = 2  # the second frame links thousands of boxes against live tubes
WIDE_ANCHORS = AnchorSet(((1.3221, 1.73145), (3.19275, 4.00944), (5.05587, 8.09892), (9.47112, 4.84053), (11.2364, 10.0071)))

# Chain: frames per pass, and the short length of the memory ratio.
CHAIN_FRAMES = 100_000
CHAIN_SHORT = 1_000

# Eval: the ROADMAP evaluation set.
EVAL_VIDEOS = 40
EVAL_FRAMES = 300
EVAL_CLASSES = 4
EVAL_TRACK_LENGTHS = (30, 45, 60, 75, 90, 105)  # fixed, so every seed has the same amount of work


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for blob in iter(lambda: fh.read(1 << 20), b""):
            h.update(blob)
    return h.hexdigest()


@dataclass
class Pass:
    """One complete pass of a workload."""

    run_s: float = 0.0  # wall time of the stage calls
    frames: int = 0
    frame_s: float = 0.0  # time inside the frame-consuming calls
    latency_samples: int = 0  # OnlineLinker.step calls timed
    latency_p50_us: float = 0.0
    latency_p99_us: float = 0.0
    ops: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.ops += 1
        if not ok:
            self.failures.append(what)

    def take_latencies(self, samples_ns: array.array) -> None:
        """Keep the percentiles of this pass's step durations, not the
        samples, so the memory a run holds does not grow with its passes."""
        self.latency_samples = len(samples_ns)
        if samples_ns:
            p50, p99 = np.percentile(np.frombuffer(samples_ns, dtype=np.int64), [50, 99]) / 1e3
            self.latency_p50_us, self.latency_p99_us = float(p50), float(p99)


class StepTimer:
    """Times each ``OnlineLinker.step`` call: the per-frame latency of the
    online stage, whichever driver makes the call."""

    def __init__(self):
        self.samples = array.array("q")
        self._original = None

    def __enter__(self):
        original = self._original = OnlineLinker.step

        def step(linker_, frame, boxes):
            t0 = perf_counter_ns()
            out = original(linker_, frame, boxes)
            self.samples.append(perf_counter_ns() - t0)
            return out

        OnlineLinker.step = step
        return self

    def __exit__(self, *exc):
        OnlineLinker.step = self._original

    def take(self) -> array.array:
        out, self.samples = self.samples, array.array("q")
        return out


def _stage(p: Pass, fn, *args):
    """Call one stage; a raise counts as a failed operation."""
    p.ops += 1
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the benchmark reports it and goes on
        p.failures.append(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
        return None


class Workload:
    name = ""

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.digests: dict[str, str] = {}  # first pass's outputs, for the repeat check

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def same_as_first(self, p: Pass, key: str, digest: str) -> None:
        first = self.digests.setdefault(key, digest)
        p.check(digest == first, f"{key} differs from the first pass")
        if self.seed == DEFAULT_SEED:
            p.check(digest == EXPECTED[self.name][key], f"{key} digest differs from the recorded one")

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self, tracer: Tracer | None = None, timer: StepTimer | None = None) -> Pass:
        raise NotImplementedError

    def memory(self) -> dict[str, float]:
        raise NotImplementedError


def traced_peak_kib(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


class Wide(Workload):
    name = "wide"

    def prepare(self) -> None:
        s, b, c = WIDE_DIMS
        rng = np.random.default_rng(self.seed)
        n_values = s * s * b * attr_width(c)
        grids = (("wide", t, RawGrid(s, b, c, rng.standard_normal(n_values))) for t in range(1, WIDE_FRAMES + 1))
        records.write_rawgrids(self.path("grids.txt"), WIDE_ANCHORS, grids, WIDE_DIMS)
        self.config = RunConfig()

    def run_pass(self, tracer: Tracer | None = None, timer: StepTimer | None = None) -> Pass:
        p = Pass(frames=WIDE_FRAMES)
        det, tubes = self.path("det.txt"), self.path("tubes.txt")
        t0 = perf_counter()
        n_boxes = _stage(p, pipeline.run_decode, self.config, self.path("grids.txt"), det)
        n_tubes = _stage(p, pipeline.run_link, self.config, det, tubes, self.work)
        t2 = perf_counter()
        p.run_s = p.frame_s = t2 - t0
        if n_boxes is None or n_tubes is None:
            return p
        p.check(_count_or_none(iter_detection_rows, det) == n_boxes, "detections do not parse back")
        p.check(_count_or_none(parse_tubes, tubes) == n_tubes, "tubes do not parse back")
        self.same_as_first(p, "detections_sha256", sha256(det))
        self.same_as_first(p, "tubes_sha256", sha256(tubes))
        return p

    def memory(self) -> dict[str, float]:
        det, tubes = self.path("det_mem.txt"), self.path("tubes_mem.txt")
        return {
            "decode.peak_traced_kib": traced_peak_kib(pipeline.run_decode, self.config, self.path("grids.txt"), det),
            "link.peak_traced_kib": traced_peak_kib(pipeline.run_link, self.config, det, tubes, self.work),
        }


def _count_or_none(parse, path: str) -> int | None:
    try:
        return sum(1 for _ in parse(path))
    except ValueError:
        return None


class Chain(Workload):
    name = "chain"

    def prepare(self) -> None:
        self.config = RunConfig(alphas=1.0).linker_config()

    def link(self, n_frames: int, tracer: Tracer | None = None, p: Pass | None = None) -> list[tuple]:
        emitted = []

        def sink(video_id, class_id, t_start, t_end, score, count, entries):
            emitted.append((t_start, t_end, count, score, sum(1 for _ in entries)))

        if tracer is not None:
            sink = tracer.call("bench.sink", sink, after=_count_emitted(tracer))
        spool = self.work
        lk = OnlineLinker(config=self.config, store_factory=lambda: SpillStore(spool), on_tube=sink)
        t0 = perf_counter()
        for t, boxes in chain_stream_frames(n_frames):
            lk.step(t, boxes)
        t1 = perf_counter()
        lk.finalize()
        t2 = perf_counter()
        if p is not None:
            p.run_s, p.frame_s = t2 - t0, t2 - t1
        return emitted

    def run_pass(self, tracer: Tracer | None = None, timer: StepTimer | None = None) -> Pass:
        p = Pass(frames=CHAIN_FRAMES)
        emitted = _stage(p, self.link, CHAIN_FRAMES, tracer, p)
        # Time inside step + finalize; without the step timer, the whole loop.
        p.frame_s = p.frame_s + sum(timer.samples) / 1e9 if timer is not None else p.run_s
        if emitted is None:
            return p
        want = EXPECTED["chain"]
        p.check(want["frames"] == CHAIN_FRAMES, "recorded chain tube is for another length")
        got = [list(e) for e in emitted]
        p.check(
            got == [[want["t_start"], want["t_end"], want["count"], want["score"], want["count"]]],
            f"sink received {got}, expected one tube {want}",
        )
        return p

    def memory(self) -> dict[str, float]:
        short = traced_peak_kib(self.link, CHAIN_SHORT)
        long = traced_peak_kib(self.link, CHAIN_FRAMES)
        return {"link.peak_traced_kib": long, "linker.peak_ratio_long_short": long / short}


def _count_emitted(tracer: Tracer):
    def after(args, _result):
        tracer.counts["linker.tubes_emitted"] += 1
        tracer.counts["linker.entries_emitted"] += args[5]

    return after


def eval_specs(seed: int) -> list[ScenarioSpec]:
    """The evaluation set: per video, scripted actions with confident
    hard-negative context and Poisson distractors, all drawn from ``seed``."""
    specs = []
    for v in range(EVAL_VIDEOS):
        rng = np.random.default_rng([seed, v])
        tracks = []
        for length in EVAL_TRACK_LENGTHS:
            t_start = int(rng.integers(1, EVAL_FRAMES - length + 2))
            w, h = rng.uniform(0.15, 0.35, 2)
            cx, cy = rng.uniform(0.3, 0.7, 2)
            dx, dy = rng.uniform(-0.1, 0.1, 2)
            start = (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
            end = (start[0] + dx, start[1] + dy, start[2] + dx, start[3] + dy)
            tracks.append(
                TrackSpec(
                    class_id=int(rng.integers(0, EVAL_CLASSES)),
                    t_start=t_start,
                    t_end=t_start + length - 1,
                    start_box=tuple(float(x) for x in start),
                    end_box=tuple(float(x) for x in end),
                )
            )
        specs.append(
            ScenarioSpec(
                n_frames=EVAL_FRAMES,
                n_classes=EVAL_CLASSES,
                tracks=tuple(tracks),
                geometry_jitter=0.01,
                rate_noise=0.03,
                in_score=(0.5, 1.0),
                context_score=(0.4, 0.9),
                context_fraction=0.25,
                distractor_rate=1.0,
                distractor_score=(0.0, 0.4),
                periodic=(False, False, False, True),
                seed=int(rng.integers(0, 2**31)),
                video_id=f"v{v:02d}",
            )
        )
    return specs


def _nms_reference(boxes, score_threshold: float, nms_iou: float):
    """Threshold plus per-class NMS with the scalar ``nms_boxes``, class by class."""
    by_class: dict[int, list] = {}
    for bx in boxes:
        if bx.confidence > score_threshold:
            by_class.setdefault(bx.class_id, []).append(bx)
    return [kept for c in sorted(by_class) for kept in nms_boxes(by_class[c], nms_iou)]


class Eval(Workload):
    name = "eval"

    def prepare(self) -> None:
        self.config = RunConfig(alphas=1.0)
        self.eval_config = RunConfig(alphas=1.0, report=self.path("report.csv"))
        det = self.path("det.txt")
        gt = []
        with records.DetectionWriter(det) as writer:
            for spec in eval_specs(self.seed):
                stream, tubes = generate(spec)
                gt.extend(tubes)
                for t in stream.ordered_frames():
                    for bx in stream.boxes_at(t):
                        writer.add(stream.video_id, t, bx)
        records.write_annotations(self.path("ann.txt"), gt)
        # The oracle links the rows as the file holds them (9 significant
        # digits), one video at a time, so the benchmark never holds the set.
        with records.TubeWriter(self.path("tubes_oracle.txt")) as writer:
            for stream in _streams(det):
                post = DetectionStream(
                    stream.video_id,
                    {t: _nms_reference(stream.boxes_at(t), self.config.score_threshold, self.config.nms_iou)
                     for t in stream.ordered_frames()},
                )
                tubes, _ = oracle_link(post, EVAL_CLASSES, self.config.linker_config())
                for tube in tubes:
                    writer.write_tube(tube)

    def run_pass(self, tracer: Tracer | None = None, timer: StepTimer | None = None) -> Pass:
        p = Pass(frames=EVAL_VIDEOS * EVAL_FRAMES)
        det, ann, tubes = self.path("det.txt"), self.path("ann.txt"), self.path("tubes.txt")
        t0 = perf_counter()
        n_tubes = _stage(p, pipeline.run_link, self.config, det, tubes, self.work)
        t1 = perf_counter()
        report = _stage(p, pipeline.run_eval, self.eval_config, tubes, ann, det) if n_tubes is not None else None
        t2 = perf_counter()
        p.run_s, p.frame_s = t2 - t0, t1 - t0
        if n_tubes is not None:
            p.check(filecmp.cmp(tubes, self.path("tubes_oracle.txt"), shallow=False), "tubes differ from the oracle")
        if report is not None:
            self.same_as_first(p, "report_sha256", sha256(self.eval_config.report))
        return p

    def memory(self) -> dict[str, float]:
        tubes = self.path("tubes_mem.txt")
        link = traced_peak_kib(pipeline.run_link, self.config, self.path("det.txt"), tubes, self.work)
        cfg = RunConfig(alphas=1.0, report=self.path("report_mem.csv"))
        return {
            "link.peak_traced_kib": link,
            "eval.peak_traced_kib": traced_peak_kib(pipeline.run_eval, cfg, tubes, self.path("ann.txt"), self.path("det.txt")),
        }


def _streams(path: str):
    """Per-video streams of a detections file, one at a time."""
    stream = None
    for video_id, frame, box in iter_detection_rows(path):
        if stream is None or stream.video_id != video_id:
            if stream is not None:
                yield stream
            stream = DetectionStream(video_id)
        stream.add(frame, box)
    if stream is not None:
        yield stream


WORKLOADS = {w.name: w for w in (Wide, Chain, Eval)}


# -- traced run ------------------------------------------------------------------


def instrument(tr: Tracer, work: str) -> int:
    """Wrap every measured layer boundary; returns the spill record size."""
    record_size = spill_record_size(work)  # probed before SpillStore is wrapped
    c = tr.counts

    def counted(name):
        def after(args, kept):
            c[name + ".in"] += len(args[0])
            c[name + ".out"] += len(kept)

        return after

    def survivors(_args, per_class):
        c["decode.filter_and_nms.out"] += sum(len(v) for v in per_class.values())

    def rows(name):
        def after(_args, result):
            c[name + ".rows"] += len(result)

        return after

    def report_rows(args, _result):
        c["records.write_report.rows"] += len(args[1].rows())

    def step_boxes(args, _result):
        c["linker.step.boxes"] += len(args[2])

    pairs: set[tuple[int, int]] = set()

    def iou_pair(args, _result):
        pairs.add((id(args[0]), id(args[1])))

    def evaluated(_args, _result):
        c["metrics.tube_iou.pairs"] += len(pairs)
        pairs.clear()

    def read_rawgrids(fn):
        call = tr.call("records.read_rawgrids", fn)

        def traced(*args, **kwargs):
            dims, anchors, frames = call(*args, **kwargs)
            return dims, anchors, tr.iterate("records.read_rawgrids", frames)

        return traced

    def tube_write(fn):
        def after(args, _result):
            c["linker.tubes_emitted"] += 1
            c["linker.entries_emitted"] += args[6]

        return tr.call("records.write", fn, after)

    tr.patch(records, "read_rawgrids", read_rawgrids)
    tr.patch(records, "iter_detection_rows", lambda f: tr.generator("records.iter_detection_rows", f))
    tr.patch(records, "parse_tubes", lambda f: tr.call("records.parse_tubes", f, rows("records.parse_tubes")))
    tr.patch(records, "parse_annotations", lambda f: tr.call("records.parse_annotations", f, rows("records.parse_annotations")))
    tr.patch(records.DetectionWriter, "add", lambda f: tr.call("records.write", f))
    tr.patch(records.TubeWriter, "write", tube_write)
    tr.patch(pipeline, "write_report_csv", lambda f: tr.call("records.write_report", f, report_rows))
    tr.patch(pipeline, "decode_grid", lambda f: tr.call("decode.decode_grid", f))
    tr.patch(pipeline, "filter_and_nms", lambda f: tr.call("decode.filter_and_nms", f, survivors))
    for owner in (decode, pipeline):  # both modules call nms_boxes by their own global
        tr.patch(owner, "nms_boxes", lambda f: tr.call("decode.nms_boxes", f, counted("decode.nms_boxes")))
    for name in ("run_decode", "run_link", "run_eval"):
        tr.patch(pipeline, name, lambda f, name=name: tr.call(f"pipeline.{name}", f))
    tr.patch(pipeline, "nms_frame", lambda f: tr.call("pipeline.nms_frame", f, counted("pipeline.nms_frame")))
    tr.patch(pipeline, "iter_frames", lambda f: tr.generator("pipeline.iter_frames", f))
    tr.patch(OnlineLinker, "step", lambda f: tr.call("linker.step", f, step_boxes))
    tr.patch(OnlineLinker, "finalize", lambda f: tr.call("linker.finalize", f))
    tr.patch(SpillStore, "append", lambda f: tr.call("linker.spill.append", f))
    tr.patch(SpillStore, "__iter__", lambda f: tr.generator("linker.spill.read", f))
    tr.patch(pipeline, "evaluate", lambda f: tr.call("metrics.evaluate", f, evaluated))
    for name in ("frame_map", "video_map", "average_temporal_iou"):
        tr.patch(metrics, name, lambda f, name=name: tr.call(f"metrics.{name}", f))
    tr.patch(metrics, "tube_iou", lambda f: tr.call("metrics.tube_iou", f, iou_pair))
    return record_size


def spill_record_size(work: str) -> int:
    """Bytes one committed entry takes in a spill file, seen from outside."""
    probe = os.path.join(work, "spill_probe")
    os.makedirs(probe, exist_ok=True)
    store = SpillStore(probe)
    store.append(TubeEntry(1, (0.1, 0.1, 0.2, 0.2), 0.5, 0.5, 1))
    list(store)  # flushes the file
    size = sum(os.path.getsize(os.path.join(probe, f)) for f in os.listdir(probe))
    store.discard()
    return size


def layer_metrics(tr: Tracer, passes: int, record_size: int) -> dict[str, float]:
    """Per-layer numbers of the traced passes; counts are per pass."""
    c = tr.counts

    def per(num, den):
        return num / den if den else 0.0

    def us(name, den, self_time=False):
        return per((tr.self_s(name) if self_time else tr.total_s(name)) * 1e6, den)

    return {
        "records.read_rawgrids.us_per_frame": us("records.read_rawgrids", c["records.read_rawgrids"]),
        "records.iter_detection_rows.us_per_row": us("records.iter_detection_rows", c["records.iter_detection_rows"]),
        "records.parse_tubes.us_per_row": us("records.parse_tubes", c["records.parse_tubes.rows"]),
        "records.parse_annotations.us_per_row": us("records.parse_annotations", c["records.parse_annotations.rows"]),
        "records.write.us_per_row": per(
            (tr.self_s("records.write") + tr.self_s("records.write_report")) * 1e6,
            tr.calls("records.write") + c["records.write_report.rows"],
        ),
        "decode.decode_grid.us_per_frame": us("decode.decode_grid", tr.calls("decode.decode_grid")),
        "decode.filter_and_nms.us_per_frame": us("decode.filter_and_nms", tr.calls("decode.filter_and_nms")),
        "decode.survivors_per_frame": per(c["decode.filter_and_nms.out"], tr.calls("decode.filter_and_nms")),
        "decode.nms_boxes.calls": per(tr.calls("decode.nms_boxes"), passes),
        "decode.nms_boxes.boxes_in": per(c["decode.nms_boxes.in"], passes),
        "decode.nms_boxes.keep_ratio": per(c["decode.nms_boxes.out"], c["decode.nms_boxes.in"]),
        "pipeline.nms_frame.us_per_frame": us("pipeline.nms_frame", tr.calls("pipeline.nms_frame")),
        "pipeline.nms_frame.keep_ratio": per(c["pipeline.nms_frame.out"], c["pipeline.nms_frame.in"]),
        "pipeline.iter_frames.us_per_frame": us("pipeline.iter_frames", c["pipeline.iter_frames"], self_time=True),
        "pipeline.run_decode.self_s": per(tr.self_s("pipeline.run_decode"), passes),
        "pipeline.run_link.self_s": per(tr.self_s("pipeline.run_link"), passes),
        "pipeline.run_eval.self_s": per(tr.self_s("pipeline.run_eval"), passes),
        "linker.step.us_per_frame": us("linker.step", tr.calls("linker.step"), self_time=True),
        "linker.step.us_per_box": us("linker.step", c["linker.step.boxes"], self_time=True),
        "linker.finalize_s": per(tr.total_s("linker.finalize"), passes),
        "linker.spill.append_us_per_entry": us("linker.spill.append", tr.calls("linker.spill.append")),
        "linker.spill.read_us_per_entry": us("linker.spill.read", c["linker.spill.read"]),
        "linker.spill.bytes": per(tr.calls("linker.spill.append") * record_size, passes),
        "linker.tubes_emitted": per(c["linker.tubes_emitted"], passes),
        "linker.entries_emitted": per(c["linker.entries_emitted"], passes),
        "metrics.evaluate_s": per(tr.total_s("metrics.evaluate"), passes),
        "metrics.frame_map_s": per(tr.total_s("metrics.frame_map"), passes),
        "metrics.video_map_s": per(tr.total_s("metrics.video_map"), passes),
        "metrics.average_temporal_iou_s": per(tr.total_s("metrics.average_temporal_iou"), passes),
        "metrics.tube_iou.calls": per(tr.calls("metrics.tube_iou"), passes),
        "metrics.tube_iou.calls_per_pair": per(tr.calls("metrics.tube_iou"), c["metrics.tube_iou.pairs"]),
    }
