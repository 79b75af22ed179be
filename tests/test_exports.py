"""Every name a module lists in ``__all__`` resolves, and lives there.

A stale entry fails only on ``from module import *``, which nothing
else in the suite does.  Each public class or function has one home, the
module that defines it, and is imported from there; the package root
exports nothing and imports none of its modules."""

import importlib
import inspect
import pkgutil
import subprocess
import sys

import pytest

import sikorski

MODULES = sorted(info.name for info in pkgutil.iter_modules(sikorski.__path__, "sikorski."))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_class_or_function_is_defined_in_its_module(name):
    module = importlib.import_module(name)
    listed = {n: getattr(module, n) for n in module.__all__}
    assert {
        n: obj.__module__
        for n, obj in listed.items()
        if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ != name
    } == {}


def loaded_after(statement):
    """The module names a fresh interpreter holds after `statement`."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", f"import sys\n{statement}\nprint(*sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
    )
    return set(proc.stdout.split())


def test_the_package_root_imports_nothing():
    loaded = loaded_after("import sikorski")
    assert "sikorski" in loaded
    assert sorted(m for m in loaded if m == "numpy" or m.startswith("sikorski.")) == []


def test_the_filter_verifier_loads_without_numpy():
    """Nor does running the size-5 sweep load it."""
    loaded = loaded_after("import sikorski.filters\nassert sikorski.filters.verify_filter_laws(5).passed")
    assert "sikorski.filters" in loaded
    assert "numpy" not in loaded


def test_the_expression_layer_loads_no_space():
    """`sikorski.expr` owns every sweep's walk, and stays the bottom layer."""
    loaded = loaded_after("import sikorski.expr")
    assert "sikorski.expr" in loaded
    assert "sikorski.space" not in loaded
