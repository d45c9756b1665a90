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


def test_write_golden_report_reproduces_the_committed_csv(tmp_path):
    # The report half of ``mechanism_study.py --write-golden``, written aside.
    spec = importlib.util.spec_from_file_location("mechanism_study", ROOT / "scripts" / "mechanism_study.py")
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    study.golden_report(study.load_spec("mechanism.json"), 1.0, tmp_path / "r.csv")
    assert (tmp_path / "r.csv").read_bytes() == (ROOT / "tests" / "data" / "golden_report.csv").read_bytes()
