"""Byte manifest of what the benchmark's command lines write.

A manifest maps ``<workload>/op<i>/exit`` to an operation's exit code and
``<workload>/op<i>/<file>`` to the SHA-256 of each file it writes, for every
operation that ``bench/workloads.py`` lists, at workload seed 0.  The
operations run in this process through ``stablesums.cli.main``, each into an
output directory of its own; the directory's path is written as ``OUT`` in
the bytes hashed, so ``report.json`` does not depend on where it ran.

    python tests/bytes_manifest.py write OUT.json [--tree DIR] [--scale full|tiny]
                                                  [--threads 1|2]
    python tests/bytes_manifest.py diff A.json B.json
    python tests/bytes_manifest.py golden

``write`` runs the source tree DIR (default: this checkout), its ``src/``
and its ``bench/workloads.py``, with the replicate loop inline (``--threads
1``) or with its worker (2) as :func:`loop_patches` fakes the CPU mask that
``rng._pipeline`` reads (default: this process's own mask).  ``diff``
prints every name whose value differs between two manifests, or that only
one of them has, and exits 1 if there is any.  ``golden`` writes this
checkout's tiny-scale manifest into ``tests/bytes_tiny.json`` under this
machine's SIMD key, keeping the other keys.

Report bytes depend on numpy's SIMD dispatch (``tests/test_simd_dispatch.py``),
so ``tests/bytes_tiny.json`` holds the tiny-scale manifest per SIMD key, the
dispatch targets numpy found.  The BLAS kernel set can move the ECF's last
bits too (``OPENBLAS_CORETYPE``), and is not in the key.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "bytes_tiny.json"


def simd_key() -> str:
    """The dispatch targets above its baseline that numpy found on this CPU,
    space-separated."""
    from numpy._core import _multiarray_umath as umath
    return " ".join(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f))


def loop_patches(threads: int) -> list:
    """The (object, name, value) replacements under which ``rng._pipeline``
    runs inline (``threads`` 1) or with its worker (2), by the rule it
    applies to the mask it reads: a mask of one CPU; for the worker, this
    process's own mask where it holds two CPUs, else no mask on two cores."""
    from stablesums import rng
    if threads == 1:
        return [(rng, "_affinity", lambda: {0})]
    if hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2:
        return [(rng, "_affinity", lambda: os.sched_getaffinity(0))]
    return [(rng, "_affinity", set), (os, "cpu_count", lambda: 2)]


def _workloads(tree: Path):
    """``tree``'s ``bench/workloads.py``, loaded as a module of its own."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  tree / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)   # for its dataclasses
    spec.loader.exec_module(module)
    return module


def manifest(scale: str, tree: Path = ROOT) -> dict:
    """The manifest of every operation of ``tree``'s bench workloads at
    ``scale``, run by the ``stablesums`` that this process imports."""
    from stablesums.cli import main

    workloads = _workloads(tree)
    entries = {}
    with tempfile.TemporaryDirectory() as work:
        for workload in workloads.WORKLOADS:
            where = os.path.join(work, workload)
            for i, op in enumerate(workloads.operations(workload, 0, scale, where)):
                with contextlib.redirect_stdout(io.StringIO()):
                    entries[f"{workload}/op{i}/exit"] = main(op.argv)
                for path in sorted(Path(op.out_dir).iterdir()):
                    data = path.read_bytes().replace(where.encode(), b"OUT")
                    entries[f"{workload}/op{i}/{path.name}"] = hashlib.sha256(data).hexdigest()
    return entries


def differences(a: dict, b: dict) -> list:
    """The names whose values differ between manifests ``a`` and ``b``, or
    that only one of them has, sorted."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    write = commands.add_parser("write")
    write.add_argument("out")
    write.add_argument("--tree", type=Path, default=ROOT)
    write.add_argument("--scale", choices=("full", "tiny"), default="full")
    write.add_argument("--threads", type=int, choices=(1, 2))
    diff = commands.add_parser("diff")
    diff.add_argument("a")
    diff.add_argument("b")
    commands.add_parser("golden")
    args = parser.parse_args(argv)
    if args.command == "diff":
        a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
        moved = differences(a, b)
        for name in moved:
            print(f"{name}: {a.get(name)} -> {b.get(name)}")
        print(f"{len(moved)} of {len(a.keys() | b.keys())} entries differ")
        return 1 if moved else 0
    if args.command == "golden":
        sys.path.insert(0, str(ROOT / "src"))
        table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        table[simd_key()] = manifest("tiny")
        GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return 0
    sys.path.insert(0, str(args.tree.resolve() / "src"))
    if args.threads is not None:
        for obj, name, value in loop_patches(args.threads):
            setattr(obj, name, value)
    entries = manifest(args.scale, args.tree.resolve())
    Path(args.out).write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(_main())
