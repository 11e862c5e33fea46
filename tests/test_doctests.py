"""Run the library's docstring examples as tests (API documentation must
not rot)."""

from __future__ import annotations

import doctest
import importlib

import pytest

# note: several submodule names (debruijn, shuffle_exchange, ...) are
# shadowed by same-named functions re-exported from repro.core, so the
# modules must be resolved via importlib, not attribute access.
MODULE_NAMES = [
    "repro.core.labels",
    "repro.core.xfunc",
    "repro.core.debruijn",
    "repro.core.fault_tolerant",
    "repro.core.reconfiguration",
    "repro.core.shuffle_exchange",
    "repro.core.buses",
    "repro.core.sequences",
    "repro.core.edge_faults",
    "repro.graphs.static_graph",
    "repro.routing.shift_register",
    "repro.routing.tables",
    "repro.simulator.events",
    "repro.simulator.grid",
    "repro.experiments.spec",
    "repro.registry",
    "repro.analysis.reliability",
]
MODULES = [importlib.import_module(name) for name in MODULE_NAMES]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failures in {module.__name__}"


def test_package_doctest():
    import repro

    result = doctest.testmod(repro, verbose=False)
    assert result.failed == 0
