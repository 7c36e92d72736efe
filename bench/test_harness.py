"""Smoke test of the benchmark harness: every workload at tiny scale.

Run from the repository root with ``python3 -m pytest bench/test_harness.py``.
It checks the result line's shape and that every metric BENCHMARK.json names
appears with its unit; it does not judge the numbers.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert any(line.startswith("failed_ops_frac ") for line in lines)
    assert any(line.startswith("env ") for line in lines)


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
