"""The benchmark's workloads: stablesums command lines and their output checks.

Each workload is a list of operations, each one ``stablesums.cli.main(argv)``
call.  Campaign seeds are the acceptance seeds plus the workload seed, so
workload seed 0 reproduces the acceptance runs, whose statistics are pinned
in :data:`REFERENCE`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("ecf-sampler", "replicate-cdf", "path-replicates", "artifacts")

MAX_SEED = 2**64 - 1

# Problem sizes.  "full" is acceptance scale; "tiny" only exercises the
# harness (see test_harness.py).
SCALES = {
    "full": {"sampler_n": 10**6, "n": 10**4, "reps": 5000, "grid": 4096,
             "lemma_ns": "100,1000,10000", "lemma_reps": 400,
             "sample_n": 10**5, "path_reps": 64},
    "tiny": {"sampler_n": 2 * 10**4, "n": 1000, "reps": 40, "grid": 256,
             "lemma_ns": "100,1000", "lemma_reps": 20,
             "sample_n": 2000, "path_reps": 2},
}

# statistic and negative-control statistic of each campaign at workload seed 0
# and full scale, measured on the package as first benchmarked.
REFERENCE = {
    "verify-sampler alpha=2 beta=0": (0.0025202665405884925, 0.25077678180995766),
    "verify-sampler alpha=1.5 beta=0": (0.0021648176395737957, 0.24931497681133222),
    "verify-sampler alpha=1.5 beta=1": (0.002830573130183834, 0.34625691786540813),
    "verify-sampler alpha=1.2 beta=0.5": (0.0021699007022069907, 0.43913146501051176),
    "verify-fclt exponential": (0.025152446850161214, 0.09704717120912179),
    "verify-product pareto 1.5": (0.03675237437037471, 0.21422130705335085),
    "verify-remark alpha=1.5 beta=1": (0.01940000000000003, 0.18660000000000002),
    "verify-remark alpha=2 beta=0": (0.0232, 0.09320000000000006),
    "verify-lemma exponential": (0.8312626749810079, 1.1096491445734133),
    "verify-lemma pareto 1.5": (0.8133697158436528, 1.0844929544582038),
}
# Admits re-associated floating-point sums (moves of order 1e-12) and rejects
# any change in the draws, which moves a statistic by 1e-4 or more.
REFERENCE_ABS_TOL = 1e-9


@dataclass
class Operation:
    label: str
    kind: str            # "verify", "data" or "plotdata"
    argv: list
    out_dir: str         # directory the operation writes into
    fresh: bool          # out_dir is emptied before the operation
    expected_overlays: int = 0


def _seed(base: int, offset: int) -> str:
    return str((base + offset) % (MAX_SEED + 1))


def operations(workload: str, offset: int, scale: str, work_dir: str) -> list:
    """The workload's operations in the order they run, one client, back to back."""
    s = SCALES[scale]
    ops = []

    def add(label, kind, argv, seed=None):
        out = os.path.join(work_dir, f"op{len(ops)}")
        full = list(argv) + ["--out-dir", out]
        if seed is not None:
            full += ["--seed", _seed(seed, offset)]
        ops.append(Operation(label, kind, full, out, fresh=True))

    def add_plotdata(label):
        source = ops[-1].out_dir
        ops.append(Operation(label, "plotdata",
                             ["plotdata", "--report", os.path.join(source, "report.json")],
                             source, fresh=False, expected_overlays=1))

    if workload == "ecf-sampler":
        for alpha, beta in (("2", "0"), ("1.5", "0"), ("1.5", "1"), ("1.2", "0.5")):
            add(f"verify-sampler alpha={alpha} beta={beta}", "verify",
                ["verify-sampler", "--alpha", alpha, "--beta", beta,
                 "--n", str(s["sampler_n"])], seed=101)
    elif workload == "replicate-cdf":
        add("verify-fclt exponential", "verify",
            ["verify-fclt", "--family", "exponential", "--n", str(s["n"]),
             "--grid", str(s["grid"]), "--times", "0.25,0.5,0.75,1.0",
             "--reps", str(s["reps"])], seed=41)
        add("verify-product pareto 1.5", "verify",
            ["verify-product", "--family", "pareto", "--tail-index", "1.5",
             "--n", str(s["n"]), "--reps", str(s["reps"])], seed=404)
    elif workload == "path-replicates":
        for alpha, beta in (("1.5", "1"), ("2", "0")):
            add(f"verify-remark alpha={alpha} beta={beta}", "verify",
                ["verify-remark", "--alpha", alpha, "--beta", beta,
                 "--reps", str(s["reps"]), "--grid", str(s["grid"])], seed=202)
        add("verify-lemma exponential", "verify",
            ["verify-lemma", "--family", "exponential", "--ns", s["lemma_ns"],
             "--reps", str(s["lemma_reps"])], seed=606)
        add("verify-lemma pareto 1.5", "verify",
            ["verify-lemma", "--family", "pareto", "--tail-index", "1.5",
             "--ns", s["lemma_ns"], "--reps", str(s["lemma_reps"])], seed=606)
    elif workload == "artifacts":
        # plotdata of an alpha=1.5 sample is left out: it raises
        # QuadratureError at some seeds (see KNOWN_DEFECTS), and a timed
        # operation must not fail.
        add("sample alpha=1.5 beta=1", "data",
            ["sample", "--alpha", "1.5", "--beta", "1", "--n", str(s["sample_n"])], seed=1)
        add("sample alpha=2 beta=0", "data",
            ["sample", "--alpha", "2", "--beta", "0", "--n", str(s["sample_n"])], seed=1)
        add_plotdata("plotdata of sample alpha=2 beta=0")
        add("paths alpha=1.5 beta=1", "data",
            ["paths", "--alpha", "1.5", "--beta", "1", "--grid", str(s["grid"]),
             "--reps", str(s["path_reps"])], seed=2)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


# Command lines that fail on the package as first benchmarked.  They run once
# per run, untimed and outside attempted/failed, with fixed arguments, so the
# defect shows on every run until it is fixed.
KNOWN_DEFECTS = {
    "artifacts": [
        ("README pipeline", ["sample", "--alpha", "1.5", "--beta", "1", "--n", "100000",
                             "--seed", "1"]),
    ],
}


def defect_operations(workload: str, work_dir: str) -> list:
    """Each known defect of the workload as a (sample, plotdata) operation pair."""
    ops = []
    for i, (label, argv) in enumerate(KNOWN_DEFECTS.get(workload, [])):
        out = os.path.join(work_dir, f"defect{i}")
        ops.append(Operation(f"{label}, step 1: {' '.join(argv)}", "data",
                             argv + ["--out-dir", out], out, fresh=True))
        ops.append(Operation(f"{label}, step 2: plotdata of that sample", "plotdata",
                             ["plotdata", "--report", os.path.join(out, "report.json")],
                             out, fresh=False, expected_overlays=1))
    return ops


@dataclass
class Verdict:
    failed: bool = False      # counts in failed_ops_frac
    wrong: bool = False       # a completed operation produced a wrong output
    miss: bool = False        # a campaign that consistently reported "not passed"
    note: str = "ok"


def check(op: Operation, rc: Optional[int], written: dict, acceptance: bool) -> Verdict:
    """Judge one operation from its exit code and the files it wrote.

    ``written`` maps file names to bytes.  At acceptance scale and workload
    seed 0 every campaign must pass and match :data:`REFERENCE`; at other
    seeds a campaign may legitimately not pass (each KS test has a small
    false-rejection rate), so there the exit code and the report must agree
    with each other and with the report's own statistics.
    """
    if rc not in (0, 1) or (rc == 1 and op.kind != "verify"):
        return Verdict(failed=True, note=f"exit code {rc}")
    if op.kind == "plotdata":
        overlays = [n for n in written if n.startswith("overlay")]
        if len(overlays) != op.expected_overlays:
            return Verdict(failed=True, wrong=True,
                           note=f"{len(overlays)} overlays, expected {op.expected_overlays}")
        return Verdict()
    if "report.json" not in written:
        return Verdict(failed=True, wrong=True, note="no report.json")
    report = json.loads(written["report.json"])
    missing = [a for a in report.get("artifacts", []) if a not in written]
    if missing:
        return Verdict(failed=True, wrong=True, note=f"artifacts not written: {missing}")
    if op.kind == "data":
        return Verdict()

    stat, threshold = report["statistic"], report["threshold"]
    control = report["negative_control"]
    consistent = (report["passed"] == (stat <= threshold)
                  and control["passed"] == (control["statistic"] <= control["threshold"]))
    passed = report["passed"] and not control["passed"]
    if not consistent or rc != (0 if passed else 1):
        return Verdict(failed=True, wrong=True,
                       note=f"exit code {rc} disagrees with the report's verdict")
    if acceptance:
        if not passed:
            return Verdict(failed=True, wrong=True, note="campaign did not pass at its acceptance seed")
        ref_stat, ref_control = REFERENCE[op.label]
        if (abs(stat - ref_stat) > REFERENCE_ABS_TOL
                or abs(control["statistic"] - ref_control) > REFERENCE_ABS_TOL):
            return Verdict(failed=True, wrong=True,
                           note=f"statistics {stat!r}, {control['statistic']!r} differ from "
                                f"reference {ref_stat!r}, {ref_control!r}")
        return Verdict()
    if not passed:
        return Verdict(miss=True, note=f"campaign not passed (statistic {stat:.4g}, "
                                       f"control {control['statistic']:.4g})")
    return Verdict()
