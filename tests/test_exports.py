"""Every ``__all__`` of the package names something that exists, once, and
every binding the benchmark wraps exists."""

import importlib
import pkgutil
import runpy
from pathlib import Path

import pytest

import stablesums

MODULES = ["stablesums"] + [f"stablesums.{m.name}"
                            for m in pkgutil.iter_modules(stablesums.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves_without_repeats(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), sorted(
        e for e in set(exported) if exported.count(e) > 1)
    assert [e for e in exported if not hasattr(module, e)] == []


def test_benchmark_sites_resolve():
    # bench/spans.py wraps each (module, attribute) of SITES where the module
    # binds it, so a refactor that unbinds one must fail here, not in a
    # benchmark run.  run_path reads the file and writes nothing.
    spans = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    sites = runpy.run_path(str(spans))["SITES"]
    assert sites
    unbound = [(module, attr) for module, attr, _ in sites
               if not callable(getattr(importlib.import_module(f"stablesums.{module}"),
                                       attr, None))]
    assert unbound == []
