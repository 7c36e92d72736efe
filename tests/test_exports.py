"""Every ``__all__`` of the package names something that exists, once."""

import importlib
import pkgutil

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
