"""Run the usage examples embedded in module docstrings and in README's
Library section."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import twobridge

# every module of the package, so a new one cannot be missed
MODULES = sorted(f"twobridge.{m.name}" for m in pkgutil.iter_modules(twobridge.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name), verbose=False)
    assert failures == 0


def test_readme_library_example():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    failures, tried = doctest.testfile(str(readme), module_relative=False, verbose=False)
    assert failures == 0 and tried == 16
