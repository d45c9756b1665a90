"""End-to-end pipeline stages and the command-line surface."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import HEADERS, first_detections_error, hostile_files, valid_records
from tubestream.cli import build_parser, main
from tubestream.config import RunConfig, load_config
from tubestream.decode import AnchorSet, CandidateBox, RawGrid, attr_width, nms_frame
from tubestream.linker import LinkerConfig, alpha_from_training_error
from tubestream.losses import LossWeights
from tubestream.pipeline import run_decode, run_eval, run_link
from tubestream.records import RecordError, iter_detection_rows, parse_annotations, parse_tubes, write_rawgrids
from tubestream.synthetic import ScenarioSpec, TrackSpec
DATA = Path(__file__).parent / "data"
SCENARIOS = Path(__file__).parents[1] / "scenarios"


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def run_python(*argv) -> subprocess.CompletedProcess:
    """``python *argv`` in a child process that imports this checkout's
    ``tubestream``, outside pytest's warning capture."""
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    command = [sys.executable, *map(str, argv)]
    return subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)


def run_module(*argv) -> subprocess.CompletedProcess:
    return run_python("-m", "tubestream", *argv)


def test_numpy_is_the_only_runtime_dependency():
    """Of the modules that importing the package and its CLI adds, only numpy's
    come from site-packages."""
    code = """
        import sys, sysconfig
        before = set(sys.modules)
        import tubestream.cli
        site = (sysconfig.get_path("purelib"), sysconfig.get_path("platlib"))
        added = [(m, getattr(sys.modules[m], "__file__", None) or "") for m in set(sys.modules) - before]
        print(sorted({m.split(".")[0] for m, path in added if path.startswith(site)}))
    """
    done = run_python("-c", textwrap.dedent(code))
    assert (done.returncode, done.stdout, done.stderr) == (0, "['numpy']\n", "")


@pytest.fixture()
def mech_paths(tmp_path):
    det = tmp_path / "det.txt"
    ann = tmp_path / "ann.txt"
    assert run_cli("synth", "--scenario", SCENARIOS / "mechanism.json", "--detections", det, "--annotations", ann) == 0
    return det, ann


class TestGoldenPipeline:
    def test_synth_link_eval_reproduces_golden_report(self, mech_paths, tmp_path, capsys):
        det, ann = mech_paths
        tubes = tmp_path / "tubes.txt"
        report = tmp_path / "report.csv"
        assert run_cli("link", "--detections", det, "--tubes", tubes, "--alphas", "1") == 0
        assert (
            run_cli(
                "eval", "--tubes", tubes, "--annotations", ann, "--detections", det, "--report", report
            )
            == 0
        )
        assert report.read_bytes() == (DATA / "golden_report.csv").read_bytes()

    def test_pipeline_deterministic_bytes(self, mech_paths, tmp_path):
        det, ann = mech_paths
        outputs = []
        for run in range(2):
            tubes = tmp_path / f"tubes{run}.txt"
            report = tmp_path / f"report{run}.csv"
            assert run_cli("link", "--detections", det, "--tubes", tubes, "--alphas", "1") == 0
            assert run_cli("eval", "--tubes", tubes, "--annotations", ann, "--report", report) == 0
            outputs.append((tubes.read_bytes(), report.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_mechanism_contrast_through_pipeline(self, mech_paths, tmp_path):
        # Same detections linked under both labeling regimes: rate-driven
        # recovery is exact at tube-IoU 0.5 while score-only drags the
        # context along and loses it.
        det, ann = mech_paths
        reports = {}
        for alpha in (1.0, 0.0):
            config = RunConfig(alphas=alpha)
            tubes = tmp_path / f"tubes{alpha}.txt"
            run_link(config, str(det), str(tubes))
            reports[alpha] = run_eval(config, str(tubes), str(ann), detections_path=str(det))
        assert reports[1.0].v_map[0.5] == 1.0
        assert reports[0.0].v_map[0.5] < reports[1.0].v_map[0.5]


class TestLinkCli:
    def test_empty_detection_file_clean_exit(self, tmp_path, capsys):
        det = tmp_path / "d.txt"
        det.write_text("#tubestream detections v1\n")
        tubes = tmp_path / "t.txt"
        assert run_cli("link", "--detections", det, "--tubes", tubes) == 0
        assert parse_tubes(str(tubes)) == []
        ann = tmp_path / "a.txt"
        from tubestream.records import write_annotations
        from tubestream.tubes import GroundTruthTube

        write_annotations(str(ann), [GroundTruthTube("v", 0, 1, 2, ((0.1, 0.1, 0.4, 0.4),) * 2)])
        report = tmp_path / "r.csv"
        assert run_cli("eval", "--tubes", tubes, "--annotations", ann, "--report", report) == 0
        rows = report.read_text().splitlines()
        assert all(line.endswith(",0") for line in rows[1:])

    def test_malformed_input_nonzero_exit(self, tmp_path, capsys):
        det = tmp_path / "d.txt"
        det.write_text("#tubestream detections v1\nv 1 0 0.1 0.1 0.5 0.5 1.2 0.5\n")
        assert run_cli("link", "--detections", det, "--tubes", tmp_path / "t.txt") == 1
        err = capsys.readouterr().err
        assert "confidence" in err and "2" in err

    def test_class_without_alpha_is_an_error_line(self, tmp_path, capsys):
        det = tmp_path / "d.txt"
        det.write_text("#tubestream detections v1\nv 1 3 0.1 0.1 0.5 0.5 0.9 0.5\nv 2 3 0.1 0.1 0.5 0.5 0.9 0.6\n")
        tubes = tmp_path / "t.txt"
        assert run_cli("link", "--detections", det, "--tubes", tubes, "--alphas", "0.5,0.5") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "class 3" in err[0]
        assert not tubes.exists()

    @pytest.mark.parametrize("spool", ["missing", "file"])
    def test_spool_dir_that_is_not_a_directory_is_an_error_line(self, tmp_path, capsys, spool):
        det, tubes, spool_dir = tmp_path / "d.txt", tmp_path / "t.txt", tmp_path / spool
        det.write_text(HEADERS["det"] + "\n" + "\n".join(valid_records("det")) + "\n")
        if spool == "file":
            spool_dir.write_text("")
        assert run_cli("link", "--detections", det, "--tubes", tubes, "--spool-dir", spool_dir) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and str(spool_dir) in err[0]
        assert not tubes.exists()

    def test_missing_required_paths(self, capsys):
        assert run_cli("link") == 2

    def test_env_var_supplies_paths(self, tmp_path, monkeypatch, capsys):
        det = tmp_path / "d.txt"
        det.write_text("#tubestream detections v1\n")
        tubes = tmp_path / "t.txt"
        monkeypatch.setenv("TUBESTREAM_DETECTIONS", str(det))
        monkeypatch.setenv("TUBESTREAM_TUBES", str(tubes))
        assert run_cli("link") == 0
        assert tubes.exists()


class TestDecodeCli:
    def make_grid_file(self, path, seed=0, frames=3):
        rng = np.random.default_rng(seed)
        anchors = AnchorSet(((1.0, 1.0), (2.0, 1.5)))
        grids = [
            ("vid", t, RawGrid(3, 2, 2, rng.normal(0, 2, size=(3, 3, 2, attr_width(2)))))
            for t in range(1, frames + 1)
        ]
        write_rawgrids(str(path), anchors, grids, (3, 2, 2))
        return anchors, grids

    def test_decode_writes_valid_detections(self, tmp_path, capsys):
        grid_file = tmp_path / "g.txt"
        self.make_grid_file(grid_file)
        out = tmp_path / "d.txt"
        assert run_cli("decode", "--grids", grid_file, "--out", out) == 0
        rows = list(iter_detection_rows(str(out)))
        assert rows and {video_id for video_id, _, _ in rows} == {"vid"}

    def test_decode_respects_threshold(self, tmp_path, capsys):
        grid_file = tmp_path / "g.txt"
        self.make_grid_file(grid_file)
        lo, hi = tmp_path / "lo.txt", tmp_path / "hi.txt"
        assert run_cli("decode", "--grids", grid_file, "--out", lo, "--score-threshold", "1e-3") == 0
        assert run_cli("decode", "--grids", grid_file, "--out", hi, "--score-threshold", "0.5") == 0
        assert len(list(iter_detection_rows(str(hi)))) <= len(list(iter_detection_rows(str(lo))))

    def test_overflowing_size_logit_writes_no_warning(self, tmp_path):
        values = np.zeros(attr_width(1))
        values[2] = 1000.0  # exp overflows; the box clips to the full width
        grid_file, out = tmp_path / "g.txt", tmp_path / "d.txt"
        write_rawgrids(str(grid_file), AnchorSet(((1.0, 1.0),)), [("v", 1, RawGrid(1, 1, 1, values))], (1, 1, 1))
        done = run_module("decode", "--grids", grid_file, "--out", out)
        assert (done.returncode, done.stderr) == (0, "")
        [(_, _, box)] = iter_detection_rows(str(out))
        assert box.geometry == (0.0, 0.0, 1.0, 1.0)

    def test_overflowing_class_logits_write_no_warning(self, tmp_path):
        values = np.zeros(attr_width(2))
        values[5:7] = -1.7e308, 1.7e308  # x - max(x) overflows; the low class scores 0.0
        grid_file, out = tmp_path / "g.txt", tmp_path / "d.txt"
        write_rawgrids(str(grid_file), AnchorSet(((1.0, 1.0),)), [("v", 1, RawGrid(1, 1, 2, values))], (1, 1, 2))
        done = run_module("decode", "--grids", grid_file, "--out", out)
        assert (done.returncode, done.stderr) == (0, "")
        assert out.read_text().splitlines()[-1] == "v 1 1 0 0 1 1 0.25 0.5"


class TestFailedStageLeavesNoOutput:
    """A stage writes its output beside the target and moves it into place
    only on success, so a later stage never reads a partial file."""

    def check(self, tmp_path, run, out, error=RecordError):
        inputs = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(error):
            run()
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs
        out.write_text("earlier output\n")
        with pytest.raises(error):
            run()
        assert out.read_text() == "earlier output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs + [out.name])

    def test_decode_with_non_finite_second_frame(self, tmp_path):
        grids, det = tmp_path / "g.txt", tmp_path / "det.txt"
        good, bad = " ".join(["0"] * 8), " ".join(["0.5"] * 7 + ["nan"])
        grids.write_text(f"#tubestream rawgrid v1\ngrid 1 1 1\nanchors 1,1\nframe v 1 {good}\nframe v 2 {bad}\n")
        self.check(tmp_path, lambda: run_decode(RunConfig(), str(grids), str(det)), det)

    def test_link_with_bad_row_after_a_finished_video(self, tmp_path):
        det, tubes = tmp_path / "det.txt", tmp_path / "tubes.txt"
        # Video a ends in one emitted tube before b's third row fails.
        rows = [f"a {t} 0 0.1 0.1 0.5 0.5 0.9 {t / 13:.3f}" for t in range(1, 13)]
        rows += ["b 1 0 0.1 0.1 0.5 0.5 0.9 0.5", "b 2 0 0.1 0.1 0.5 0.5 0.9 0.5", "b 3 0 0.5 0.1 0.5 0.5 0.9 0.5"]
        det.write_text("#tubestream detections v1\n" + "\n".join(rows) + "\n")
        spool = tmp_path / "spool"
        spool.mkdir()
        self.check(tmp_path, lambda: run_link(RunConfig(alphas=1.0), str(det), str(tubes), str(spool)), tubes)

    def test_output_path_naming_a_directory_leaves_no_temp_file(self, mech_paths, tmp_path):
        det, ann = mech_paths
        tubes, taken = tmp_path / "tubes.txt", tmp_path / "taken"
        run_link(RunConfig(alphas=1.0), str(det), str(tubes))
        taken.mkdir()
        inputs = sorted(p.name for p in tmp_path.iterdir())
        with pytest.raises(IsADirectoryError):
            run_link(RunConfig(alphas=1.0), str(det), str(taken))
        with pytest.raises(IsADirectoryError):
            run_eval(RunConfig(report=str(taken)), str(tubes), str(ann))
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    def test_synth_with_annotations_in_a_missing_directory(self, tmp_path):
        # The detections are whole before the annotations fail.
        det, ann = tmp_path / "det.txt", tmp_path / "missing" / "ann.txt"
        argv = ["synth", "--scenario", SCENARIOS / "mechanism.json", "--detections", det, "--annotations", ann]
        args = build_parser().parse_args([str(a) for a in argv])
        self.check(tmp_path, lambda: args.func(args), det, FileNotFoundError)


    @pytest.mark.parametrize("stage", ["decode", "link", "synth", "eval_report"])
    def test_unwritable_output_names_the_target(self, mech_paths, tmp_path, capsys, stage):
        det, ann = mech_paths
        grids, tubes, target = tmp_path / "g.txt", tmp_path / "tubes.txt", tmp_path / "missing" / "out.txt"
        TestDecodeCli().make_grid_file(grids)
        run_link(RunConfig(alphas=1.0), str(det), str(tubes))
        argv = {
            "decode": ["decode", "--grids", grids, "--out", target],
            "link": ["link", "--detections", det, "--tubes", target],
            "synth": ["synth", "--scenario", SCENARIOS / "mechanism.json", "--detections", tmp_path / "d2.txt",
                      "--annotations", target],
            "eval_report": ["eval", "--tubes", tubes, "--annotations", ann, "--report", target],
        }[stage]
        inputs = sorted(p.name for p in tmp_path.iterdir())
        capsys.readouterr()
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: [Errno 2] No such file or directory: '{target}'"]
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs


class TestHostileCliInput:
    """Any bytes in through the command line: ``decode``, ``link`` and
    ``eval`` exit 0, or exit 1 with exactly one ``error: <path>:<line>:`` line
    and no output file; an exception that escapes ``main`` fails the test."""

    @given(hostile_files())
    @settings(max_examples=200, deadline=None)
    def test_exit_zero_or_one_located_error_line(self, case):
        kind, data = case
        with tempfile.TemporaryDirectory() as work:
            path, out = os.path.join(work, "in.txt"), os.path.join(work, "out.txt")
            with open(path, "wb") as fh:
                fh.write(data)
            if kind == "grids":
                argv = ["decode", "--grids", path, "--out", out]
            elif kind == "det":
                argv = ["link", "--detections", path, "--tubes", out]
            else:  # eval, its other input valid
                other = "ann" if kind == "tubes" else "tubes"
                paths = {kind: path, other: os.path.join(work, f"{other}.txt")}
                with open(paths[other], "w", encoding="ascii") as fh:
                    fh.write(HEADERS[other] + "\n" + "".join(r + "\n" for r in valid_records(other)))
                argv = ["eval", "--tubes", paths["tubes"], "--annotations", paths["ann"], "--report", out]
            inputs = sorted(os.listdir(work))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            lines = err.getvalue().splitlines()
            if kind == "det":  # link names the row that a field-by-field check fails first
                oracle = first_detections_error(path)
                assert lines == ([] if oracle is None else [f"error: {oracle}"])
            if code == 0:
                assert lines == [] and sorted(os.listdir(work)) == sorted(inputs + ["out.txt"])
            else:
                assert code == 1 and len(lines) == 1, lines
                assert re.match(re.escape(f"error: {path}:") + r"[1-9][0-9]*: ", lines[0]), lines[0]
                assert sorted(os.listdir(work)) == inputs


class TestEvalCli:
    def test_threshold_band_prints_ten_rows_plus_average(self, mech_paths, tmp_path, capsys):
        det, ann = mech_paths
        tubes = tmp_path / "tubes.txt"
        run_cli("link", "--detections", det, "--tubes", tubes, "--alphas", "1")
        capsys.readouterr()
        assert run_cli("eval", "--tubes", tubes, "--annotations", ann, "--deltas", "0.5:0.95") == 0
        out = capsys.readouterr().out
        v_map_rows = [line for line in out.splitlines() if line.startswith("v_map ")]
        assert len(v_map_rows) == 10
        assert any(line.startswith("v_map_avg") and "0.5:0.95" in line for line in out.splitlines())

    @pytest.mark.parametrize(
        "deltas, message",
        [
            ("0.5:0.95:0", "step > 0"),
            ("0.5:0.95:-0.05", "step > 0"),
            ("0.5:0.95:nan", "finite"),
            ("0.5:inf", "finite"),
            ("0:1:1e-9", "more than 10000 steps"),
        ],
    )
    def test_range_that_never_ends_is_a_usage_error(self, tmp_path, capsys, deltas, message):
        # Each of these made the range loop run until memory ran out.
        with pytest.raises(SystemExit) as exc:
            run_cli("eval", "--tubes", tmp_path / "t.txt", "--annotations", tmp_path / "a.txt", "--deltas", deltas)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_threshold_flags_are_not_eval_flags(self, mech_paths, tmp_path, capsys):
        # eval scores its files as written; only decode and link threshold and deduplicate.
        _, ann = mech_paths
        with pytest.raises(SystemExit) as exc:
            run_cli("eval", "--tubes", tmp_path / "t.txt", "--annotations", ann, "--nms-iou", "0.5")
        assert exc.value.code == 2
        assert "unrecognized arguments: --nms-iou" in capsys.readouterr().err


class TestLosscheckCli:
    def test_passes_at_default_tolerance(self, capsys):
        assert run_cli("losscheck", "--seeds", "10") == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_fails_at_absurd_tolerance(self, capsys):
        assert run_cli("losscheck", "--seeds", "3", "--tolerance", "1e-18") == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--seeds", "0", "--seeds must be >= 1, got 0"),
            ("--grid", "0", "--grid must be >= 1, got 0"),
            ("--anchors", "-1", "--anchors must be >= 1, got -1"),
            ("--classes", "0", "--classes must be >= 1, got 0"),
            ("--tolerance", "0", "--tolerance must be finite and > 0, got 0.0"),
            ("--tolerance", "-1e-4", "--tolerance must be finite and > 0, got -0.0001"),
            ("--tolerance", "nan", "--tolerance must be finite and > 0, got nan"),
            ("--tolerance", "inf", "--tolerance must be finite and > 0, got inf"),
        ],
    )
    def test_check_that_checks_nothing_is_one_error_line(self, capsys, flag, value, message):
        assert run_cli("losscheck", "--seeds", "1", f"{flag}={value}") == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [f"error: {message}"]

    def test_package_runs_as_a_module(self, tmp_path):
        det, ann = tmp_path / "det.txt", tmp_path / "ann.txt"
        done = run_module("synth", "--scenario", SCENARIOS / "mechanism.json", "--detections", det, "--annotations", ann)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("synthesized ") and det.exists() and ann.exists()


class TestConfigPrecedence:
    def test_file_env_flag_precedence(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"window": 4, "detections": "from_file.txt", "report": "file.csv"}))
        monkeypatch.setenv("TUBESTREAM_DETECTIONS", "from_env.txt")
        config = load_config(str(cfg_path), {"report": "from_flag.csv"})
        assert config.window == 4
        assert config.detections == "from_env.txt"
        assert config.report == "from_flag.csv"

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"widnow": 4}))
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(str(cfg_path), {})

    def test_jobs_is_no_longer_a_key(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"jobs": 2}))
        with pytest.raises(ValueError, match="unknown config key 'jobs'"):
            load_config(str(cfg_path), {})

    @pytest.mark.parametrize(
        "command, setting",
        [("link", {"window": "6"}), ("link", {"alphas": "0.5"}), ("eval", {"deltas": 0.5})],
    )
    def test_value_of_wrong_type_is_one_error_line(self, mech_paths, tmp_path, capsys, command, setting):
        det, ann = mech_paths
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(setting))
        paths = ["--detections", det] if command == "link" else ["--annotations", ann]
        assert run_cli(command, "--config", cfg_path, *paths, "--tubes", tmp_path / "t.txt") == 1
        err = capsys.readouterr().err.splitlines()
        key = next(iter(setting))
        assert len(err) == 1 and err[0].startswith(f"error: {cfg_path}: config key {key!r}")

    def test_values_of_each_kind_accepted(self, tmp_path):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"max_tubes": 3, "nms_iou": 0.5, "deltas": [0.2, 1], "tubes": "t.txt"}))
        config = load_config(str(cfg_path), {}, env={})
        assert (config.max_tubes, config.nms_iou, config.deltas, config.tubes) == (3, 0.5, (0.2, 1.0), "t.txt")

    @pytest.mark.parametrize(
        "key, inside, outside",
        [
            ("score_threshold", (0.0, 0.999), (-1e-9, 1.0)),
            ("nms_iou", (1e-9, 0.999), (0.0, 1.0)),
            ("score_floor", (0.0, 0.999), (-1e-9, 1.0)),
            ("frame_threshold", (0.0, 1.0), (-1e-9, 1.0 + 1e-9)),
            ("deltas", ((0.0,), (1.0,)), ((0.5, -1e-9), (1.0 + 1e-9,), ())),
        ],
    )
    def test_each_range_checked_at_both_ends(self, key, inside, outside):
        for value in inside:
            assert getattr(RunConfig(**{key: value}), key) == value
        for value in outside:
            with pytest.raises(ValueError, match=out_of_range(key, RunConfig.RANGES[key], value)):
                RunConfig(**{key: value})

    @pytest.mark.parametrize(
        "command, flags, key",
        [
            ("link", ["--score-floor", "2"], "score_floor"),
            ("link", ["--score-threshold", "1.5"], "score_threshold"),
            ("decode", ["--nms-iou", "0"], "nms_iou"),
            ("eval", ["--frame-threshold", "5"], "frame_threshold"),
            ("eval", ["--frame-threshold", "-1"], "frame_threshold"),
            ("eval", ["--deltas", "0.5,7"], "deltas"),
            ("link", ["--alphas", ","], "alphas"),  # linking would fail only at the first box
        ],
    )
    def test_out_of_range_setting_is_one_error_line(self, mech_paths, tmp_path, capsys, command, flags, key):
        det, ann = mech_paths
        paths = {
            "decode": ["--grids", tmp_path / "g.txt", "--out", tmp_path / "d.txt"],
            "link": ["--detections", det, "--tubes", tmp_path / "t.txt"],
            "eval": ["--tubes", tmp_path / "t.txt", "--annotations", ann],
        }[command]
        assert run_cli(command, *paths, *flags) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.match(f"error: {key} must (lie in |not be empty$)", err[0])
        assert not (tmp_path / "t.txt").exists() and not (tmp_path / "d.txt").exists()

    def test_out_of_range_config_file_value_is_one_error_line(self, mech_paths, tmp_path, capsys):
        det, _ = mech_paths
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"score_floor": 2}))
        assert run_cli("link", "--config", cfg_path, "--detections", det, "--tubes", tmp_path / "t.txt") == 1
        assert capsys.readouterr().err.splitlines() == ["error: score_floor must lie in [0, 1), got 2"]

    def test_rate_errors_convert_to_alphas(self):
        config = RunConfig(rate_errors=(0.0, 0.1, 1.0))
        alphas = config.alphas
        assert alphas[0] == 1.0
        assert alphas[1] == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert alphas[2] < 1e-40
        linker_cfg = config.linker_config()
        assert linker_cfg.alpha_for(1) == alphas[1]


# Each linking setting's interval, values inside it at both ends and values
# outside it at both ends; NaN lies in no interval.
LINKING_RANGES = [
    ("iou_gate", "(0, 1)", (1e-9, 1 - 1e-9), (0.0, 1.0)),
    ("window", "[1, inf)", (1, 10**9), (0, math.inf)),
    ("max_tubes", "[1, inf)", (1, 10**9), (0, math.inf)),
    ("alphas", "[0, 1]", (0.0, 1.0, (0.0, 1.0)), (-1e-9, 1 + 1e-9, (0.5, 1.5), ())),
    ("score_floor", "[0, 1)", (0.0, 1 - 1e-9), (-1e-9, 1.0, 2)),  # 2 used to link nothing, silently
]
RATE_ERRORS = ("rate_errors", "[0, inf)", (0.0, 1e6, (0.0, 2.0)), (-1e-9, math.inf, (0.1, -1.0), ()))
# What each settings class needs besides the setting under test.
BOX = (0.2, 0.2, 0.5, 0.6)
REQUIRED = {
    ScenarioSpec: {"n_frames": 10, "n_classes": 1, "tracks": ()},
    TrackSpec: {"class_id": 0, "t_start": 1, "t_end": 5, "start_box": BOX, "end_box": BOX},
}
# Every range-checked setting of the run's settings, of a track's and of the
# loss weights, and one of a scenario's.
CHECKED_SETTINGS = [(cls, key) for cls in (LinkerConfig, RunConfig, LossWeights, TrackSpec) for key in cls.RANGES]
CHECKED_SETTINGS.append((ScenarioSpec, "rate_noise"))
# The fields of a scenario and of a track annotated ``int``.
INT_FIELDS = [(ScenarioSpec, key) for key in ("n_frames", "n_classes", "sawtooth_period", "seed")]
INT_FIELDS += [(TrackSpec, key) for key in ("class_id", "t_start", "t_end")]


def out_of_range(key: str, interval: str, value) -> str:
    """The message pattern for ``value`` outside ``key``'s interval; an empty
    per-class list has no value to place in it."""
    if value == ():
        return "^" + re.escape(f"{key} must not be empty") + "$"
    return "^" + re.escape(f"{key} must lie in {interval}, got ")


class TestSettingsContract:
    """Every setting is checked once, when the settings are built, against
    the one range its class declares, with one message form."""

    @pytest.mark.parametrize("cls", [LinkerConfig, RunConfig])
    @pytest.mark.parametrize("key, interval, inside, outside", LINKING_RANGES, ids=[c[0] for c in LINKING_RANGES])
    def test_linking_range_checked_at_both_ends(self, cls, key, interval, inside, outside):
        for value in inside:
            assert getattr(cls(**{key: value}), key) == value
        for value in outside + (math.nan,):
            with pytest.raises(ValueError, match=out_of_range(key, interval, value)):
                cls(**{key: value})

    def test_rate_errors_checked_at_both_ends(self):
        key, interval, inside, outside = RATE_ERRORS
        for value in inside:
            assert RunConfig(rate_errors=value).rate_errors == value
        for value in outside + (math.nan,):
            # checked even where ``alphas`` wins and the errors are not used
            for extra in ({}, {"alphas": 0.5}):
                with pytest.raises(ValueError, match=out_of_range(key, interval, value)):
                    RunConfig(rate_errors=value, **extra)
            if not isinstance(value, tuple):
                with pytest.raises(ValueError, match=out_of_range(key, interval, value)):
                    alpha_from_training_error(value)

    @pytest.mark.parametrize("cls", [LinkerConfig, RunConfig])
    @pytest.mark.parametrize(
        "key, value",
        [("window", 2.5), ("max_tubes", 1.5), ("window", 2.0), ("max_tubes", 2.0)],
    )
    def test_integer_setting_must_be_an_int(self, cls, key, value):
        # Each value lies in [1, inf); the linker would compare frame gaps against it.
        with pytest.raises(ValueError, match="^" + re.escape(f"{key} must be an integer, got {value!r}") + "$"):
            cls(**{key: value})

    @pytest.mark.parametrize("cls, key", INT_FIELDS, ids=[f"{c.__name__}-{k}" for c, k in INT_FIELDS])
    def test_integer_field_must_be_an_int(self, cls, key):
        # Each value lies in the field's range; a range-checked field rejects a bool as no number.
        for value in (3.5, 1.0, True):
            kind = "a number" if value is True and key in cls.RANGES else "an integer"
            with pytest.raises(ValueError, match="^" + re.escape(f"{key} must be {kind}, got {value!r}") + "$"):
                cls(**{**REQUIRED[cls], key: value})

    @pytest.mark.parametrize("cls, key", CHECKED_SETTINGS, ids=[f"{c.__name__}-{k}" for c, k in CHECKED_SETTINGS])
    def test_boolean_setting_is_not_a_number(self, cls, key):
        # isinstance(True, int) holds, but a JSON config rejects booleans, and so does the library.
        for value in (True, False, (True,)):
            got = value[0] if isinstance(value, tuple) else value
            with pytest.raises(ValueError, match="^" + re.escape(f"{key} must be a number, got {got!r}") + "$"):
                cls(**{**REQUIRED.get(cls, {}), key: value})

    @pytest.mark.parametrize(
        "cls", [LinkerConfig, RunConfig, ScenarioSpec, TrackSpec, LossWeights], ids=lambda c: c.__name__
    )
    def test_non_number_setting_names_its_key(self, cls):
        for key in cls.RANGES:
            for value in ("0.5", ("0.5",)):
                with pytest.raises(ValueError, match="^" + re.escape(f"{key} must be a number, got '0.5'") + "$"):
                    cls(**{**REQUIRED.get(cls, {}), key: value})

    @pytest.mark.parametrize("key", list(LossWeights.RANGES))
    def test_loss_weight_range_checked_at_both_ends(self, key):
        interval = LossWeights.RANGES[key]
        inside, outside = ((0.0, 1.0), (-1e-9, 1 + 1e-9)) if key == "neg_gate" else ((0.0, 1e6), (-1, math.inf))
        for value in inside:
            assert getattr(LossWeights(**{key: value}), key) == value
        for value in outside + (math.nan,):
            with pytest.raises(ValueError, match=out_of_range(key, interval, value)):
                LossWeights(**{key: value})

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ScenarioSpec(n_frames=3.5, n_classes=1, tracks=()), "n_frames must be an integer, got 3.5"),
            (lambda: ScenarioSpec(n_frames=10, n_classes=1, tracks=(), seed=0.5), "seed must be an integer, got 0.5"),
            (lambda: TrackSpec(0.5, 1, 5, BOX, BOX), "class_id must be an integer, got 0.5"),
            (lambda: TrackSpec(0, 1.0, 5, BOX, BOX), "t_start must be an integer, got 1.0"),
            (lambda: TrackSpec(0, 1, 5, BOX[:3], BOX), "start_box must be four numbers, got (0.2, 0.2, 0.5)"),
            (lambda: TrackSpec(0, 1, 5, BOX, BOX + (0.7,)), "end_box must be four numbers, got (0.2, 0.2, 0.5, 0.6, 0.7)"),
            (lambda: LossWeights(coord=math.nan), "coord must lie in [0, inf), got nan"),
            (lambda: LossWeights(neg_gate=True), "neg_gate must be a number, got True"),
            (lambda: LossWeights(coord="1"), "coord must be a number, got '1'"),
        ],
        ids=[
            "scenario-frames", "scenario-seed", "track-class", "track-start", "track-box-3", "track-box-5",
            "weight-nan", "gate-bool", "weight-str",
        ],
    )
    def test_defect_is_rejected_when_built(self, build, message):
        # Each of these used to be accepted, or to fail later as a TypeError
        # (or, for a three-number box, as an IndexError in ScenarioSpec).
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            build()

    def test_replace_resolves_the_new_rate_errors(self):
        resolved = RunConfig(rate_errors=0.0)
        assert replace(resolved, rate_errors=1.0).alphas == alpha_from_training_error(1.0)
        assert replace(RunConfig(), rate_errors=(0.0, 0.1)).alphas == (1.0, alpha_from_training_error(0.1))
        assert replace(resolved, rate_errors=None).alphas == LinkerConfig.alphas
        # Given alphas still win over rate_errors, before and after replace.
        assert replace(RunConfig(alphas=0.3), rate_errors=1.0).alphas == 0.3
        assert replace(resolved, alphas=0.3, rate_errors=1.0).alphas == 0.3
        assert replace(RunConfig(alphas=(0.2, 0.4)), iou_gate=0.5).alphas == (0.2, 0.4)

    def test_linker_config_copies_the_linking_settings(self):
        config = RunConfig(iou_gate=0.4, window=3, max_tubes=2, score_floor=0.1, rate_errors=0.1, nms_iou=0.3)
        assert config.linker_config() == LinkerConfig(
            iou_gate=0.4, window=3, max_tubes=2, alphas=alpha_from_training_error(0.1), score_floor=0.1
        )
        assert type(config.linker_config()) is LinkerConfig
        assert RunConfig().alphas == LinkerConfig().alphas

    @pytest.mark.parametrize(
        "command, setting",
        [
            ("eval", {"iou_gate": 5}),
            ("decode", {"window": 0}),
            ("eval", {"rate_errors": [-1]}),
            ("link", {"max_tubes": 0}),
            ("eval", {"iou_gate": 5, "rate_errors": [-1]}),
            ("eval", {"deltas": []}),  # the report would have no v_map rows
        ],
    )
    def test_out_of_range_config_value_fails_before_any_file(self, mech_paths, tmp_path, capsys, command, setting):
        # The inputs are valid, so without the check each command would write its output.
        det, ann = mech_paths
        grids, tubes, out = tmp_path / "g.txt", tmp_path / "tubes.txt", tmp_path / "out.txt"
        grid = RawGrid(2, 1, 1, np.zeros(2 * 2 * attr_width(1)))
        write_rawgrids(str(grids), AnchorSet(((1.0, 1.0),)), [("v", 1, grid)], (2, 1, 1))
        run_link(RunConfig(alphas=1.0), str(det), str(tubes))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(setting))
        paths = {
            "decode": ["--grids", grids, "--out", out],
            "link": ["--detections", det, "--tubes", out],
            "eval": ["--tubes", tubes, "--annotations", ann, "--report", out],
        }[command]
        assert run_cli(command, "--config", cfg_path, *paths) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and re.match(r"error: (\w+) must (lie in |not be empty$)", err[0])[1] in setting
        assert not out.exists()
        assert run_cli(command, *paths) == 0 and out.exists()


SYNTH_FAULTS = {
    "video_id_with_space": ({"video_id": "my clip"}, "video_id must be printable, without whitespace"),
    "score_above_one": ({"in_score": [0.7, 2.0]}, "in_score must lie in [0, 1], got 2.0"),
    "box_beyond_square": ({"tracks": [{"class_id": 0, "t_start": 1, "t_end": 2, "start_box": [0.5, 0.2, 1.4, 0.6]}]},
                          "start_box must lie in [0, 1], got 1.4"),
    "misspelled_key": ({"sed": 3}, "unknown scenario key 'sed'"),
    "misspelled_track_key": (
        {"tracks": [{"class_id": 0, "t_start": 1, "t_end": 2, "start_box": [0.1, 0.1, 0.5, 0.5], "endbox": [0] * 4}]},
        "unknown track key 'endbox'",
    ),
    "periodic_string": ({"periodic": ["false"]}, "scenario key 'periodic' must be a list of booleans"),
    "fractional_seed": ({"seed": 1.9}, "scenario key 'seed' must be an integer, got 1.9"),
}


class TestSynthCli:
    @pytest.mark.parametrize("patch, message", SYNTH_FAULTS.values(), ids=SYNTH_FAULTS.keys())
    def test_bad_scenario_is_one_error_line_and_no_file(self, tmp_path, capsys, patch, message):
        scenario = json.loads((SCENARIOS / "mechanism.json").read_text())
        scenario.update(patch)
        path, det, ann = tmp_path / "s.json", tmp_path / "det.txt", tmp_path / "ann.txt"
        path.write_text(json.dumps(scenario))
        assert run_cli("synth", "--scenario", path, "--detections", det, "--annotations", ann) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not det.exists() and not ann.exists()


@st.composite
def damaged_scenarios(draw):
    """``scenarios/mechanism.json`` with at most one byte replaced (``\\xff``
    and NUL among the bytes) and cut short or not; no number grows past
    three digits, so no run grows large."""
    data = bytearray((SCENARIOS / "mechanism.json").read_bytes())
    if draw(st.booleans()):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.sampled_from([0xFF, 0x00]) | st.integers(0, 255))
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))) :]
    return bytes(data)


class TestSynthHostileScenario:
    """Any damaged scenario through ``synth``: exit 0 with files that ``link``
    and ``eval`` accept, or exit 1 with one ``error: <scenario>: `` line and no file."""

    @given(damaged_scenarios())
    @settings(max_examples=60, deadline=None)
    def test_exit_zero_or_one_error_line_naming_the_scenario(self, data):
        with tempfile.TemporaryDirectory() as work:
            path, det, ann, tubes = (os.path.join(work, n) for n in ("s.json", "det.txt", "ann.txt", "tubes.txt"))
            with open(path, "wb") as fh:
                fh.write(data)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["synth", "--scenario", path, "--detections", det, "--annotations", ann])
            lines = err.getvalue().splitlines()
            if code == 0:
                assert lines == []
                run_link(RunConfig(), det, tubes, work)
                run_eval(RunConfig(), tubes, ann, det)
            else:
                assert code == 1 and len(lines) == 1 and lines[0].startswith(f"error: {path}: "), lines
                assert sorted(os.listdir(work)) == ["s.json"]


_fraction = st.floats(0.0, 1.0)


@st.composite
def scenario_dicts(draw):
    """Scenario JSON objects, most of which build; an edge box and a large
    geometry jitter clip both ends of a side to the same border."""
    n_frames, n_classes = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    side = st.lists(st.sampled_from([0.0, 1.0]) | _fraction, min_size=2, max_size=2, unique=True).map(sorted)
    score_range = st.lists(_fraction, min_size=2, max_size=2).map(sorted)
    tracks = []
    for _ in range(draw(st.integers(0, 3))):
        t_start = draw(st.integers(1, n_frames))
        (x1, x2), (y1, y2) = draw(side), draw(side)
        track = {
            "class_id": draw(st.integers(0, n_classes - 1)),
            "t_start": t_start,
            "t_end": draw(st.integers(t_start, n_frames)),
            "start_box": [x1, y1, x2, y2],
        }
        if draw(st.booleans()):
            dx, dy = draw(st.floats(-0.05, 0.05)), draw(st.floats(-0.05, 0.05))
            track["end_box"] = [x1 + dx, y1 + dy, x2 + dx, y2 + dy]
        tracks.append(track)
    return {
        "n_frames": n_frames,
        "n_classes": n_classes,
        "tracks": tracks,
        "geometry_jitter": draw(st.sampled_from([0.0, 1e6]) | st.floats(0.0, 2.0)),
        "rate_noise": draw(st.floats(0.0, 1e6)),
        "in_score": draw(score_range),
        "context_score": draw(score_range),
        "context_fraction": draw(st.floats(0.0, 1e6)),
        "context_rate": draw(_fraction),
        "distractor_rate": draw(st.floats(0.0, 3.0)),
        "distractor_score": draw(score_range),
        "periodic": draw(st.just([]) | st.lists(st.booleans(), min_size=n_classes, max_size=n_classes)),
        "sawtooth_period": draw(st.integers(1, 10)),
        "seed": draw(st.integers(0, 2**63)),
        "video_id": draw(st.text(min_size=1, max_size=6)),
    }


class TestSynthOutputContract:
    @given(scenario_dicts())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_any_scenario_that_builds_synthesizes_valid_link_and_eval_input(self, scenario):
        try:
            ScenarioSpec.from_dict(scenario)
        except ValueError:
            assume(False)
        with tempfile.TemporaryDirectory() as work:
            path, det, ann, tubes = (os.path.join(work, n) for n in ("s.json", "det.txt", "ann.txt", "tubes.txt"))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(scenario, fh)
            assert main(["synth", "--scenario", path, "--detections", det, "--annotations", ann]) == 0
            assert len(parse_annotations(ann)) == len(scenario["tracks"])
            n_tubes = run_link(RunConfig(), det, tubes, work)
            assert len(parse_tubes(tubes)) == n_tubes
            run_eval(RunConfig(), tubes, ann, det)


class TestNmsFrame:
    def test_applies_per_class(self):
        box = (0.1, 0.1, 0.5, 0.5)
        boxes = [
            CandidateBox(0, box, 0.9, 0.5),
            CandidateBox(0, box, 0.8, 0.5),
            CandidateBox(1, box, 0.7, 0.5),
        ]
        kept = nms_frame(boxes, 1e-3, 0.45)
        assert len(kept) == 2
        assert {b.class_id for b in kept} == {0, 1}

    @pytest.mark.parametrize(
        "setting", [{"nms_iou": 1.5}, {"nms_iou": 0.0}, {"score_threshold": -1.0}, {"score_threshold": 1.0}]
    )
    def test_link_rejects_bad_settings(self, tmp_path, setting):
        det = tmp_path / "d.txt"
        det.write_text("#tubestream detections v1\nv 1 0 0.1 0.1 0.5 0.5 0.9 0.5\n")
        with pytest.raises(ValueError, match=next(iter(setting))):
            run_link(RunConfig(**setting), str(det), str(tmp_path / "t.txt"), str(tmp_path))
