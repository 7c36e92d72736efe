"""stablesums benchmark: one workload of campaigns, timed end to end.

Run from the root of a source checkout:

    python3 bench/run.py --workload ecf-sampler [--seed 0] [--seconds 15] [--trace 0]

The benchmark drives ``stablesums.cli.main(argv)`` in this process as a closed
loop: one client, operations back to back, each writing into a freshly
emptied output directory under ``.bench_work/``.  It repeats whole passes of
the workload until ``--seconds`` have been measured (at least one pass).

``--trace 0`` reports the end-to-end metrics (wall_norm_s,
variates_per_norm_s, peak_rss_mb, setup_s) and prints the raw wall_s and
variates_per_s beside them.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics from the spans that ``spans.py``
records.
Either way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, the environment and each operation's
outcome.  After the measured passes, a workload's known defects (see
``workloads.KNOWN_DEFECTS``) are run once, untimed, and reported on their own
lines; they count in neither ``attempted`` nor ``failed``.  Full results go
to ``.bench_out/``.  See README.md in this directory for the metrics and
workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = {"full": 5, "tiny": 2}
_IMPORT_CHECK = ("import time, stablesums, stablesums.cli; "
                 "print(time.clock_gettime(time.CLOCK_MONOTONIC))")


# The host's speed swings by 20-40% within seconds, and a slow spell can
# cover a whole run, so raw pass times spread by up to 30% across runs.  A
# fixed reference computation (the probe) samples the machine's speed: it runs
# EDGE_PROBES times before the first operation and after each one, and, in
# untraced passes, once inside an operation whenever PROBE_INTERVAL_S have
# gone by since the last probe (checked after each call of a draw or of
# ``cdf``).  Probe time is left out of the operation's time.  The probes cut
# the operation into segments; the normalized time of a segment is its wall
# time times PROBE_REF_S over the median of the probes next to it, two on
# each side: the time it takes when the probe takes PROBE_REF_S, the probe's
# typical time on a 2-core x86_64 box.
PROBE_REF_S = 0.01
PROBE_INTERVAL_S = 0.25
EDGE_PROBES = 4


def make_probe():
    """Half a pure-Python loop, half complex exponentials over the ECF
    frequency grid, in blocks small enough to stay in cache."""
    import numpy as np
    blocks = np.linspace(-3.0, 3.0, 1024).reshape(2, 512)
    freqs = np.arange(-50, 51) / 10.0

    def probe() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i
        for x in blocks:
            np.exp(1j * np.outer(freqs, x)).sum(axis=1)
        return time.perf_counter() - start
    return probe


class Pacer:
    """Runs the probe inside an operation, at most once per PROBE_INTERVAL_S."""

    def __init__(self, probe):
        self.probe = probe
        self.begin()

    def begin(self):
        self.segments, self.probes = [], []
        self.last = time.perf_counter()

    def tick(self):
        now = time.perf_counter()
        if now - self.last >= PROBE_INTERVAL_S:
            self.segments.append(now - self.last)
            self.probes.append(self.probe())
            self.last = time.perf_counter()

    def end(self):
        self.segments.append(time.perf_counter() - self.last)


def pin_threads() -> dict:
    """Cap native thread pools at min(2, nproc) before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    value = str(min(2, nproc))
    for var in THREAD_VARS:
        os.environ[var] = value
    return {var: value for var in THREAD_VARS}


def environment(pinned: dict, args) -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "threads": pinned,
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
    }


def measure_setup() -> float:
    """Seconds from launching a fresh interpreter to stablesums.cli imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", _IMPORT_CHECK], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.strip().splitlines()[-1]) - start


def _snapshot(directory: str) -> dict:
    if not os.path.isdir(directory):
        return {}
    return {name: os.stat(os.path.join(directory, name)).st_mtime_ns
            for name in os.listdir(directory)}


def run_op(cli, op, tracer, acceptance: bool, pacer=None) -> dict:
    """One operation: call the CLI, then read back and judge what it wrote.

    With a pacer, the operation's time leaves out the probes run inside it.
    """
    if op.fresh:
        shutil.rmtree(op.out_dir, ignore_errors=True)
    before = _snapshot(op.out_dir)
    error = None
    if pacer is not None:
        pacer.begin()
    start = time.perf_counter()
    try:
        if tracer is None:
            rc = cli.main(op.argv)
        else:
            rc = tracer.call("cli.main", cli.main, op.argv)
    except Exception as exc:  # the pass goes on; the operation counts as failed
        rc, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    segments, inner_probes = [seconds], []
    if pacer is not None:
        pacer.end()
        segments, inner_probes = pacer.segments, pacer.probes
        seconds = sum(segments)

    after = _snapshot(op.out_dir)
    written = {}
    for name in sorted(after):
        if before.get(name) != after[name]:
            with open(os.path.join(op.out_dir, name), "rb") as fh:
                written[name] = fh.read()
    digest = hashlib.sha256()
    rows = 0
    for name, data in written.items():
        digest.update(name.encode() + b"\0" + data)
        if name.endswith(".csv"):
            rows += max(data.count(b"\n") - 1, 0)
    if error is not None:
        verdict = workloads.Verdict(failed=True, note=error.splitlines()[0][:200])
    else:
        verdict = workloads.check(op, rc, written, acceptance)
    return {"label": op.label, "rc": rc, "seconds": seconds, "segments": segments,
            "inner_probes": inner_probes, "failed": verdict.failed,
            "wrong": verdict.wrong, "miss": verdict.miss, "note": verdict.note,
            "digest": digest.hexdigest(), "files": len(written), "rows": rows,
            "bytes": sum(len(d) for d in written.values())}


def normalized_seconds(result, before, after) -> float:
    """An operation's time at the speed where the probe takes PROBE_REF_S."""
    edge = [statistics.median(before)] + result["inner_probes"] + [statistics.median(after)]
    return sum(seg * PROBE_REF_S / statistics.median(edge[max(0, j - 1):j + 3])
               for j, seg in enumerate(result["segments"]))


def run_pass(cli, ops, instrument, tracer, probe, acceptance: bool) -> dict:
    """One pass; untraced passes (no tracer) also probe inside operations."""
    pacer = Pacer(probe) if tracer is None else None
    if pacer is not None:
        instrument.set_tick(pacer.tick)
    results, probes = [], [[probe() for _ in range(EDGE_PROBES)]]
    with instrument:
        for op in ops:
            results.append(run_op(cli, op, tracer, acceptance, pacer))
            probes.append([probe() for _ in range(EDGE_PROBES)])
    norm = sum(normalized_seconds(r, before, after)
               for r, before, after in zip(results, probes, probes[1:]))
    return {"wall_s": sum(r["seconds"] for r in results), "norm_s": norm,
            "probes": probes, "ops": results, "variates": instrument.variates,
            "rows": sum(r["rows"] for r in results),
            "bytes": sum(r["bytes"] for r in results)}


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        cut = sorted(samples)[min(len(samples) - 1, int(len(samples) * pct / 100.0))]
        if sum(1 for v in samples if v > cut) >= 10:
            return pct, cut
    return None


def describe_timing(samples, what: str) -> str:
    tail = tail_percentile(samples)
    if tail is None:
        return f"median of {len(samples)} {what}; no tail percentile (needs >= 20 samples)"
    return f"median of {len(samples)} {what}; p{tail[0]:g} = {tail[1]:.4f}"


def repeat_problems(passes) -> list:
    """Counts that differ between passes at one seed.

    An operation whose output bytes differ from the first pass is marked
    failed and wrong in place.
    """
    problems = []
    first = passes[0]
    for p in passes[1:]:
        for key in ("variates", "rows", "bytes"):
            if p[key] != first[key]:
                problems.append(f"{key} differ between passes: {first[key]} vs {p[key]}")
        for a, b in zip(first["ops"], p["ops"]):
            if not (a["failed"] or b["failed"]) and a["digest"] != b["digest"]:
                b.update(failed=True, wrong=True, note="output bytes differ from the first pass")
    return problems


def per_layer_metrics(traced, untraced) -> tuple:
    """Per-layer metrics from the traced passes, plus count mismatches."""
    layers = [t["layers"] for t in traced]
    exact = [dict(t["counts"], **{k: v for k, v in t["layers"].items() if k.endswith(".calls")})
             for t in traced]
    problems = [f"exact counts differ between traced passes: {exact[0]} vs {other}"
                for other in exact[1:] if other != exact[0]]
    metrics = {}
    for key in layers[0]:
        if key.endswith(".self_s"):
            metrics[key] = (statistics.median(l[key] for l in layers), "s")
        else:
            metrics[key] = (layers[0][key], "count")
    c = Counter(traced[0]["counts"])
    cdf_calls = layers[0]["stable.cdf.calls"]
    metrics["stable.cdf.failed"] = (c["stable.cdf.failed"], "count")
    metrics["stable.cdf.ok_frac"] = (
        (cdf_calls - c["stable.cdf.raised"]) / cdf_calls if cdf_calls else 0.0, "ratio")
    metrics["stable.sample.variates"] = (c["stable.sample.variates"], "count")
    metrics["paths.sample_doa.variates"] = (c["paths.sample_doa.variates"], "count")
    metrics["verification.ecf.cexp_computed"] = (c["verification.ecf.cexp_computed"], "count")
    metrics["cli.output.rows"] = (traced[0]["rows"], "count")
    metrics["cli.output.bytes"] = (traced[0]["bytes"], "bytes")
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (
        traced_wall - statistics.median(u["wall_s"] for u in untraced), "s")
    self_sum = statistics.median(
        sum(v for k, v in l.items() if k.endswith(".self_s")) for l in layers)
    return metrics, problems, self_sum


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed, added to every campaign seed; "
                             "0 (default) runs the acceptance seeds")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure whole passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="'tiny' only exercises the harness")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    pinned = pin_threads()
    if not (SRC / "stablesums" / "cli.py").is_file():
        print(f"error: no stablesums source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stablesums
    from stablesums import cli, paths, stable, verification
    if Path(stablesums.__file__).resolve().parent != SRC / "stablesums":
        print(f"error: imported stablesums from {stablesums.__file__}", file=sys.stderr)
        return 2
    import spans

    os.chdir(ROOT)
    modules = {"cli": cli, "verification": verification, "paths": paths}
    env = environment(pinned, args)
    acceptance = args.seed == 0 and args.scale == "full"
    ops = workloads.operations(args.workload, args.seed, args.scale, WORK_DIR)
    print(f"stablesums benchmark: workload={args.workload} seed={args.seed} "
          f"scale={args.scale} trace={args.trace} operations={len(ops)}")
    print("env " + json.dumps(env, sort_keys=True))

    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        setup = []
        if args.trace == 0:
            setup = [measure_setup() for _ in range(SETUP_SAMPLES[args.scale])]
        probe = make_probe()
        untraced, traced, tracers = [], [], []
        start = time.perf_counter()
        while True:
            untraced.append(run_pass(cli, ops, spans.VariateCounter(modules), None, probe,
                                     acceptance))
            if args.trace:
                tracer = spans.Tracer(modules, stable.QuadratureError)
                result = run_pass(cli, ops, tracer, tracer, probe, acceptance)
                result["layers"], result["counts"] = tracer.layer_totals(), dict(tracer.counts)
                traced.append(result)
                tracers.append(tracer)
            if time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        defects = [run_op(cli, op, None, False)
                   for op in workloads.defect_operations(args.workload, WORK_DIR)]
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    passes = untraced + traced
    problems = repeat_problems(passes)
    results = [r for p in passes for r in p["ops"]]
    attempted = len(results)
    failed = sum(r["failed"] for r in results)
    wrong = [r for r in results if r["wrong"]]
    misses = sum(r["miss"] for r in results)

    for i, op in enumerate(ops):
        rs = [p["ops"][i] for p in passes]
        times = ", ".join(f"{r['seconds']:.3f}" for r in rs)
        print(f"op {i} {op.label}: rc={rs[0]['rc']} {rs[0]['note']}; "
              f"files={rs[0]['files']} rows={rs[0]['rows']} bytes={rs[0]['bytes']}; "
              f"seconds per pass: {times}")

    walls = [p["wall_s"] for p in untraced]
    wall = statistics.median(walls)
    metrics = {}
    if args.trace == 0:
        variates = untraced[0]["variates"]
        norms = [p["norm_s"] for p in untraced]
        norm = statistics.median(norms)
        metrics["wall_norm_s"] = (norm, "s")
        metrics["variates_per_norm_s"] = (variates / norm, "1/s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        metrics["setup_s"] = (statistics.median(setup), "s")
        print(f"wall_s {wall:.4f} s ({describe_timing(walls, 'passes')})")
        print(f"variates_per_s {variates / wall:.6g} 1/s ({variates} variates per pass)")
        print(f"wall_norm_s {norm:.4f} s ({describe_timing(norms, 'passes')}; probe reference "
              f"{PROBE_REF_S} s)")
        print(f"variates_per_norm_s {variates / norm:.6g} 1/s")
        print(f"peak_rss_mb {peak_rss_mb:.2f} MB")
        print(f"setup_s {metrics['setup_s'][0]:.4f} s "
              f"({describe_timing(setup, 'fresh-interpreter imports')})")
    else:
        layer_metrics, count_problems, self_sum = per_layer_metrics(traced, untraced)
        problems += count_problems
        metrics.update(layer_metrics)
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        print(f"self times add up to {self_sum:.4f} s of the traced wall "
              f"{metrics['trace.wall_s'][0]:.4f} s; untraced wall {wall:.4f} s")
        spans_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.csv")
        with open(spans_path, "w") as fh:
            fh.write("pass,index,name,start,end,parent\n")
            for k, tracer in enumerate(tracers):
                for i, (name, s, e, parent) in enumerate(tracer.spans):
                    fh.write(f"{k},{i},{name},{s!r},{e!r},{parent}\n")
    print(f"failed_ops_frac {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for r in defects:
        print(f"known defect, untimed and not counted: {r['label']}: "
              f"{'fails' if r['failed'] else 'passes'} ({r['note']})")
    if misses:
        print(f"campaigns not passed at this non-acceptance seed: {misses} of {attempted}")
    for problem in problems + [f"{r['label']}: {r['note']}" for r in wrong]:
        print(f"WRONG {problem}")

    correct = not problems and not wrong
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(summary, env=env, failed_ops_frac=failed / attempted, misses=misses,
                  problems=problems, setup_samples=setup, known_defects=defects,
                  passes=[{k: v for k, v in p.items() if k != "layers"} for p in passes])
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
