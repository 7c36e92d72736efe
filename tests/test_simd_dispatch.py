"""Reports under another SIMD dispatch of numpy.

numpy picks its ufunc loops by the CPU at run time, and ``np.log``, ``np.exp``
and others give other bits on the loops above its baseline.  So a report is
byte-identical only for a seed, a numpy build and a dispatch target.  Across
targets each campaign must still give the same exit code and verdicts, and
every statistic and p-value within 1e-12 relative.  The second run turns off,
through ``NPY_DISABLE_CPU_FEATURES``, every dispatch target numpy found on
this machine above its baseline; with none, the two runs are the same run.
"""

import json
import os
import subprocess
import sys

import pytest

import stablesums

CAMPAIGNS = {
    "verify-fclt": ["--family", "exponential", "--n", "1000", "--grid", "8",
                    "--times", "0.5,1.0", "--reps", "200", "--seed", "41"],
    "verify-product": ["--family", "pareto", "--tail-index", "1.5", "--n", "1000",
                       "--reps", "200", "--seed", "404"],
    "verify-remark": ["--alpha", "1.5", "--beta", "1", "--reps", "200", "--grid", "256",
                      "--seed", "202"],
    "verify-sampler": ["--alpha", "1.2", "--beta", "0.5", "--n", "20000", "--seed", "101"],
}


def _dispatched_above_baseline() -> str:
    """The dispatch targets numpy found on this CPU, space-separated."""
    from numpy._core import _multiarray_umath as umath
    return " ".join(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f))


def _run(campaign: str, out_dir, disabled: str):
    src = os.path.dirname(os.path.dirname(stablesums.__file__))
    env = {key: value for key, value in os.environ.items()
           if key != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    proc = subprocess.run([sys.executable, "-m", "stablesums.cli", campaign,
                           *CAMPAIGNS[campaign], "--out-dir", str(out_dir)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.stderr == ""
    report = json.loads((out_dir / "report.json").read_text())
    del report["config"]["invocation"]["out_dir"]
    return proc.returncode, report


def _assert_close(a, b, where="report"):
    """Equal trees, but for floats, which may differ by 1e-12 relative."""
    if isinstance(a, dict):
        assert sorted(a) == sorted(b), where
        for key in a:
            _assert_close(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_close(x, y, f"{where}[{i}]")
    elif isinstance(a, float):
        assert b == pytest.approx(a, rel=1e-12, abs=0.0), where
    else:
        assert a == b, where


@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
def test_reports_agree_across_simd_dispatch(tmp_path, campaign):
    code, report = _run(campaign, tmp_path / "native", "")
    other_code, other = _run(campaign, tmp_path / "baseline", _dispatched_above_baseline())
    assert other_code == code
    assert (other["passed"], other["negative_control"]["passed"]) == \
        (report["passed"], report["negative_control"]["passed"])
    _assert_close(report, other)
