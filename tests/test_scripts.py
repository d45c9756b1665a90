"""Runnable scripts still import and reproduce their committed numbers."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def test_mechanism_study_prints_golden_numbers():
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "mechanism_study.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    printed = {}
    for line in done.stdout.splitlines()[1:]:
        name, alpha1, alpha0, _gap = line.split()
        printed[f"{name}_alpha1"] = float(alpha1)
        printed[f"{name}_alpha0"] = float(alpha0)
    golden = json.loads((ROOT / "tests" / "data" / "mechanism_golden.json").read_text())
    assert printed == pytest.approx(golden, abs=5e-5)


def load_study():
    spec = importlib.util.spec_from_file_location("mechanism_study", ROOT / "scripts" / "mechanism_study.py")
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    return study


def test_mechanism_study_reproduces_golden_numbers_exactly():
    # The printed numbers are rounded to 4 decimals; the values the script computes are pinned bit for bit.
    study = load_study()
    golden = json.loads((ROOT / "tests" / "data" / "mechanism_golden.json").read_text())
    scenarios = {"clean": "mechanism.json", "noisy": "mechanism_noisy.json"}
    for key, value in golden.items():
        name, alpha = key.split("_alpha")
        assert study.mean_tiou(study.load_spec(scenarios[name]), float(alpha)) == value, key


def test_write_golden_report_reproduces_the_committed_csv(tmp_path):
    # The report half of ``mechanism_study.py --write-golden``, written aside.
    study = load_study()
    study.golden_report(study.load_spec("mechanism.json"), 1.0, tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_bytes() == (ROOT / "tests" / "data" / "golden_report.csv").read_bytes()


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_of_canned_runs():
    bench = load_bench_pairs()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    # setup_s spreads over 67% of its median in the parent's runs, past its bound of 25%.
    parent = [
        {**dict.fromkeys(names, 100.0), "frames_per_s": v, "run_s": 1.0 / v, "setup_s": s}
        for v, s in ((100.0, 1.0), (110.0, 2.0), (90.0, 1.0), (105.0, 2.0))
    ]
    change = [
        {**dict.fromkeys(names, 100.0), "frames_per_s": v, "run_s": 1.0 / v, "setup_s": 1.5}
        for v in (120.0, 100.0, 118.0, 121.0)
    ]
    summary = bench.summarize(list(zip(parent, change)))
    rows = {row[0]: row[1:] for row in summary}
    assert list(rows) == names
    fps, run_s, setup_s = rows["frames_per_s"], rows["run_s"], rows["setup_s"]
    assert fps[0] == 102.5 and fps[2] == 119.0
    assert fps[1] == pytest.approx(108.75 - 92.5)  # the parent's interquartile range, exclusive method
    assert fps[3] == pytest.approx(119.0 / 102.5) and fps[4] == 3
    # 16.1% faster, past the parent's spread of 15.9%; run_s gains 14.0%, inside its spread of 16.7%.
    assert fps[5] == "better" and run_s[4] == 3 and run_s[5] == "same"
    assert setup_s[5] == "unresolved" and rows["peak_rss_mib"][5] == "same"
    table = bench.format_table(summary, 4).splitlines()
    assert len(table) == len(names) + 1
    assert [row.split()[0] for row in table[1:]] == names
    assert table[names.index("frames_per_s") + 1].split()[-2:] == ["3/4", "better"]


def test_bench_pairs_refuses_a_run_that_is_not_correct():
    bench = load_bench_pairs()
    good = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"run_s": {"value": 0.5, "unit": "s"}}}
    assert bench.read_result("# a comment\n" + json.dumps(good) + "\n", "x") == {"run_s": 0.5}
    for bad in ({**good, "correct": False}, {**good, "failed": 1}):
        with pytest.raises(RuntimeError, match="operations failed"):
            bench.read_result(json.dumps(bad), "x")


def test_bench_pairs_fails_on_a_metric_worse_than_its_bound(monkeypatch, capsys):
    """Over canned runs, 10 pairs by default, ``main`` exits 1 and names each
    end-to-end metric that ``perfbench/compare.py`` reads as worse: its change
    median is worse than the parent's by more than its bound; within every bound
    it exits 0."""
    bench = load_bench_pairs()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    parent = dict.fromkeys(names, 100.0)
    # frames_per_s is 26% lower and peak_rss_mib 11% higher, past their bounds of
    # 25% and 10%; run_s is 24% higher, inside its bound of 25%.
    over = {**parent, "frames_per_s": 74.0, "peak_rss_mib": 111.0, "run_s": 124.0}
    inside = {**parent, "frames_per_s": 76.0, "peak_rss_mib": 109.0, "run_s": 124.0}
    for change, code in ((over, 1), (inside, 0)):
        calls = []

        def run_once(checkout, workload, seconds, seed):
            calls.append(checkout)
            return parent if checkout == Path("parent") else change

        monkeypatch.setattr(bench, "run_once", run_once)
        assert bench.main(["parent", "change", "--workload", "chain"]) == code
        assert len(calls) == 20
        err = capsys.readouterr().err
        assert ("worse than the parent by more than the bound: frames_per_s, peak_rss_mib" in err) == (code == 1)


def test_bench_pairs_reports_a_spread_parent_as_unresolved(monkeypatch, capsys):
    """A metric whose parent runs spread past its bound reads ``unresolved``
    and does not fail the comparison, however far its median moved."""
    bench = load_bench_pairs()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    setups = iter([1.0, 2.0] * 10)

    def run_once(checkout, workload, seconds, seed):
        if checkout == Path("parent"):
            return {**dict.fromkeys(names, 100.0), "setup_s": next(setups)}
        return {**dict.fromkeys(names, 100.0), "setup_s": 3.0}

    monkeypatch.setattr(bench, "run_once", run_once)
    assert bench.main(["parent", "change", "--workload", "eval"]) == 0
    out = capsys.readouterr().out.splitlines()
    verdicts = {line.split()[0]: line.split()[-1] for line in out[2:]}
    assert verdicts == {**dict.fromkeys(names, "same"), "setup_s": "unresolved"}


def test_bench_pairs_prints_a_table_per_workload(monkeypatch, capsys):
    """``--workload wide,chain,eval`` runs each workload's pairs in the order given and
    prints one table each; a metric worse on one workload fails the comparison, naming
    that workload, and the other workloads still run.  Unknown or repeated names are refused."""
    bench = load_bench_pairs()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    parent = dict.fromkeys(names, 100.0)
    calls = []

    def run_once(checkout, workload, seconds, seed):
        calls.append(workload)
        # run_s is 30% higher on chain alone, past its bound of 25%.
        return {**parent, "run_s": 130.0} if (workload, checkout) == ("chain", Path("change")) else parent

    monkeypatch.setattr(bench, "run_once", run_once)
    assert bench.main(["parent", "change", "--workload", "wide,chain,eval", "--pairs", "2"]) == 1
    assert calls == ["wide"] * 4 + ["chain"] * 4 + ["eval"] * 4
    out, err = capsys.readouterr()
    tables = [table.splitlines() for table in out.rstrip("\n").split("\n\n")]
    assert [table[0].split(",")[0] for table in tables] == ["workload wide", "workload chain", "workload eval"]
    verdicts = [{line.split()[0]: line.split()[-1] for line in table[2:]} for table in tables]
    assert verdicts == [dict.fromkeys(names, "same"), {**dict.fromkeys(names, "same"), "run_s": "worse"}, verdicts[0]]
    assert [line for line in err.splitlines() if not line.startswith("#")] == [
        "bench_pairs: chain: worse than the parent by more than the bound: run_s"
    ]
    for bad in ("wide,bogus", "wide,wide", ""):
        with pytest.raises(SystemExit):
            bench.main(["parent", "change", "--workload", bad])
    assert "expected distinct names among wide, chain, eval" in capsys.readouterr().err
