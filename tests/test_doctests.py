"""Run the library's docstring examples as tests (API documentation must
not rot)."""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import repro

# every module of the package that holds at least one example, found by
# walking it, so a new or deleted module needs no edit here.
# ``repro.__main__`` is skipped: importing it runs the CLI.  Modules are
# resolved via importlib, not attribute access: several submodule names
# (debruijn, shuffle_exchange, ...) are shadowed by same-named functions
# re-exported from repro.core.
_FINDER = doctest.DocTestFinder()
MODULES = [
    module
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.name != "repro.__main__"
    for module in [importlib.import_module(info.name)]
    if any(test.examples for test in _FINDER.find(module))
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failures in {module.__name__}"


def test_package_doctest():
    result = doctest.testmod(repro, verbose=False)
    assert result.failed == 0
