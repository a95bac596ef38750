"""Run the usage examples embedded in module docstrings."""

import doctest
import importlib
import pkgutil

import pytest

import twobridge

# every module of the package, so a new one cannot be missed
MODULES = sorted(f"twobridge.{m.name}" for m in pkgutil.iter_modules(twobridge.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name), verbose=False)
    assert failures == 0
