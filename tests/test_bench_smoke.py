"""The benchmark still runs on the library: one short pass of each workload.

``perfbench/run.py`` drives the library through its public names, so a
library change that breaks it fails here before the benchmark runs, and so
does a run that no longer reports each end-to-end metric ``BENCHMARK.json``
declares as a finite positive value."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
END_TO_END = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


@pytest.mark.parametrize("workload", ["wide", "chain", "eval"])
def test_workload_runs_correct(workload):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0.3", "--trace", "0"]
    out = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0, result
    for name in END_TO_END:
        assert name in result["metrics"], (name, sorted(result["metrics"]))
        value = result["metrics"][name]["value"]
        assert math.isfinite(value) and value > 0, (name, value)
