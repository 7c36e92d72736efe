"""Every ``__all__`` of the package names something that exists, once, the
package publishes its modules' lists, every binding the benchmark wraps
exists, and the package imports nothing beyond its declared dependencies."""

import ast
import importlib
import pkgutil
import runpy
import sys
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


def test_package_publishes_its_modules_export_lists():
    # each public name is declared once, in its module's __all__
    owners = {"stream": importlib.import_module("stablesums.rng")}
    for name in ["functionals", "paths", "stable", "verification"]:
        module = importlib.import_module(f"stablesums.{name}")
        owners.update(dict.fromkeys(module.__all__, module))
    assert sorted(stablesums.__all__) == sorted(owners)
    assert [name for name, module in owners.items()
            if getattr(stablesums, name) is not getattr(module, name)] == []


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


# What the modules of the package may import: the standard library, the one
# runtime dependency of pyproject.toml, and the package itself.
_ALLOWED = set(sys.stdlib_module_names) | {"numpy", "stablesums"}


@pytest.mark.parametrize("path", sorted(Path(stablesums.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_modules_import_only_the_declared_dependencies(path):
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("stablesums" if node.level else node.module.split(".")[0])
    assert imported and sorted(imported - _ALLOWED) == []


def test_pyproject_declares_numpy_alone():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    names = [spec.split(">")[0].split("=")[0].strip() for spec in project["dependencies"]]
    assert names == ["numpy"]
    assert "scipy>=1.10" in project["optional-dependencies"]["test"]
