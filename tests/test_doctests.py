"""The examples in the package's docstrings are tests too."""

import doctest
import importlib
import pkgutil

import pytest

import kahlercheck

MODULES = sorted(m.name for m in pkgutil.iter_modules(kahlercheck.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module("kahlercheck." + name)
    assert doctest.testmod(module).failed == 0


def test_doctests_run():
    # free_reduce, the Smith form and magnus_expansion carry examples
    for name in ("intlinalg", "lieranks", "presentation"):
        module = importlib.import_module("kahlercheck." + name)
        assert doctest.testmod(module).attempted > 0, name
