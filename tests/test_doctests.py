"""The examples in the package's docstrings are tests too."""

import doctest
import importlib
import pkgutil

import pytest

import schubert_git

MODULES = ["schubert_git"] + [
    f"schubert_git.{info.name}" for info in pkgutil.iter_modules(schubert_git.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0


def test_doctests_are_found():
    # An empty collection would pass vacuously.
    finder = doctest.DocTestFinder()
    docstrings = sum(
        bool(test.examples)
        for name in MODULES
        for test in finder.find(importlib.import_module(name))
    )
    assert docstrings >= 22
