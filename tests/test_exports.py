"""Every name a module lists in ``__all__`` resolves.

A stale entry fails only on ``from module import *``, which nothing
else in the suite does."""

import importlib
import pkgutil

import pytest

import sikorski

MODULES = sorted(info.name for info in pkgutil.iter_modules(sikorski.__path__, "sikorski."))


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
