"""Shared benchmark fixtures.

The benches time the constructions, checks and simulations behind the
paper's artifacts and assert what they compute.  The artifacts
themselves are the ``paper-figures`` report (``repro report
paper-figures``), whose facts tier-1 asserts.
"""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xFEED)


def once(benchmark, fn, *args, **kwargs):
    """Run a heavy experiment exactly once under the benchmark clock."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
