"""The benchmark's own tests: ``python3 -m pytest -q perfbench`` from the repository root."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402
from tubestream import decode, metrics, pipeline, records  # noqa: E402
from tubestream.linker import OnlineLinker, SpillStore  # noqa: E402


def test_benchmark_json_matches_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    want = catalog.benchmark_spec()
    for key in ("workloads", "end_to_end", "per_layer"):
        assert spec[key] == want[key], key
    assert sorted(wl.WORKLOADS) == sorted(catalog.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_tracer_restores_originals_and_reports_absent_names(tmp_path):
    before = {
        "nms_frame": pipeline.nms_frame,
        "run_link": pipeline.run_link,
        "nms_boxes": decode.nms_boxes,
        "tube_iou": metrics.tube_iou,
        "read_rawgrids": records.read_rawgrids,
        "step": OnlineLinker.__dict__["step"],
        "spill_iter": SpillStore.__dict__["__iter__"],
        "add": records.DetectionWriter.__dict__["add"],
    }
    with Tracer("t") as tr:
        wl.instrument(tr, str(tmp_path))
        assert pipeline.nms_frame is not before["nms_frame"]
        assert tr.patch(pipeline, "no_such_function", lambda f: f) is False
    assert tr.absent == ["tubestream.pipeline.no_such_function"]
    after = {
        "nms_frame": pipeline.nms_frame,
        "run_link": pipeline.run_link,
        "nms_boxes": decode.nms_boxes,
        "tube_iou": metrics.tube_iou,
        "read_rawgrids": records.read_rawgrids,
        "step": OnlineLinker.__dict__["step"],
        "spill_iter": SpillStore.__dict__["__iter__"],
        "add": records.DetectionWriter.__dict__["add"],
    }
    assert after == before


def test_self_time_excludes_children():
    tr = Tracer("t")
    inner = tr.call("inner", lambda: sum(range(20_000)))
    outer = tr.call("outer", lambda: inner() + sum(range(20_000)))
    outer()
    assert tr.calls("outer") == tr.calls("inner") == 1
    assert tr.self_s("outer") == pytest.approx(tr.total_s("outer") - tr.total_s("inner"))
    (span_inner, span_outer) = tr.spans
    assert span_inner[4] == span_outer[0]  # the inner span's parent is the outer one


@pytest.fixture()
def two_videos(monkeypatch):
    monkeypatch.setattr(wl, "EVAL_VIDEOS", 2)


@pytest.fixture()
def small_eval(two_videos, tmp_path):
    w = wl.Eval(seed=5, work=str(tmp_path))
    w.prepare()
    return w


def test_eval_pass_matches_oracle(small_eval):
    p = small_eval.run_pass()
    assert p.failures == [] and p.ops == 4


def test_corrupted_tubes_count_as_failed(small_eval, monkeypatch):
    original = pipeline.run_link

    def corrupting(config, det, tubes, spool=None):
        n = original(config, det, tubes, spool)
        data = bytearray(Path(tubes).read_bytes())
        data[-5] ^= 0x01  # a digit of the last box coordinate
        Path(tubes).write_bytes(bytes(data))
        return n

    monkeypatch.setattr(pipeline, "run_link", corrupting)
    p = small_eval.run_pass()
    assert p.failures and any("oracle" in f for f in p.failures)


def test_raising_stage_counts_as_failed(small_eval, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(pipeline, "run_eval", broken)
    p = small_eval.run_pass()
    assert p.ops == 3 and len(p.failures) == 1 and "boom" in p.failures[0]


def test_chain_pass_delivers_the_recorded_tube(tmp_path):
    original = OnlineLinker.step
    w = wl.Chain(seed=0, work=str(tmp_path))
    w.prepare()
    with wl.StepTimer() as timer:
        p = w.run_pass(timer=timer)
        assert p.failures == [] and len(timer.samples) == wl.CHAIN_FRAMES
        p.take_latencies(timer.take())
    assert OnlineLinker.step is original
    assert len(timer.samples) == 0  # the pass keeps percentiles, not samples
    assert p.latency_samples == wl.CHAIN_FRAMES and 0 < p.latency_p50_us <= p.latency_p99_us


def test_times_are_scaled_to_the_reference_speed():
    p = wl.Pass(run_s=2.0, frames=100, frame_s=1.0, latency_samples=10, latency_p50_us=10.0, latency_p99_us=20.0)
    slow_host = run.end_to_end([p], [2 * run.REFERENCE_S, 2 * run.REFERENCE_S], [0.3, 0.4, 0.5])
    assert slow_host["run_s"] == pytest.approx(1.0)
    assert slow_host["frames_per_s"] == pytest.approx(200.0)
    assert slow_host["frame_latency_p50_us"] == pytest.approx(5.0)
    assert slow_host["frame_latency_p99_us"] == pytest.approx(10.0)
    assert slow_host["setup_s"] == 0.4  # fresh processes, not scaled


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(two_videos, monkeypatch, tmp_path, capsys, trace):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    record = tmp_path / "runs.jsonl"
    argv = ["--workload", "eval", "--seed", "5", "--seconds", "0.01", "--trace", trace, "--record", str(record)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = catalog.PER_LAYER if trace == "1" else catalog.END_TO_END
    assert list(result["metrics"]) == list(names)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["metrics.tube_iou.calls"]["value"] > 0
        assert (ROOT / ".perfbench" / "spans-eval-5.json").is_file()
    assert compare.main([str(record)]) == 0


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "chain", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def _records(path: Path, runs: list[float]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in runs:
            result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {"run_s": {"value": v, "unit": "s"}}}
            fh.write(json.dumps({"workload": "chain", "seed": 0, "trace": 0, "result": result}) + "\n")


def test_compare_verdicts(tmp_path):
    base, same, slow = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "c.jsonl"
    _records(base, [1.0, 1.01, 0.99, 1.0, 1.02])
    _records(same, [1.01, 1.0, 1.0, 0.99, 1.0])
    _records(slow, [v * 1.5 for v in (1.0, 1.01, 0.99, 1.0, 1.02)])
    assert compare.verdict("run_s", [1.0, 1.01, 0.99, 1.0, 1.02], [1.01, 1.0, 1.0, 0.99, 1.0]) == "same"
    assert compare.verdict("run_s", [1.0, 1.01, 0.99, 1.0, 1.02], [0.5, 0.51, 0.5, 0.49, 0.5]) == "better"
    assert compare.main([str(base), str(same)]) == 0
    assert compare.main([str(base), str(slow)]) == 1
