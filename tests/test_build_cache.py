"""The builders' per-process machine cache.

:func:`~repro.core.debruijn.debruijn` and
:func:`~repro.core.fault_tolerant.ft_debruijn` stay plain functions and
hand out one immutable :class:`StaticGraph` per construction parameters,
so a pool worker builds each machine (and the views engines build
lazily on it) once.
"""

from __future__ import annotations

import doctest
import importlib

import numpy as np
import pytest

from repro.core import debruijn, ft_debruijn
from repro.errors import ParameterError

DEBRUIJN = importlib.import_module("repro.core.debruijn")
FAULT_TOLERANT = importlib.import_module("repro.core.fault_tolerant")


@pytest.fixture(autouse=True)
def _empty_caches():
    DEBRUIJN._build.cache_clear()
    FAULT_TOLERANT._build.cache_clear()
    yield
    DEBRUIJN._build.cache_clear()
    FAULT_TOLERANT._build.cache_clear()


class TestSharing:
    def test_equal_parameters_share_one_machine(self):
        assert debruijn(2, 5) is debruijn(2, 5)
        assert debruijn(np.int64(2), np.int64(5)) is debruijn(2, 5)
        assert ft_debruijn(2, 5, 3) is ft_debruijn(2, 5, 3)
        assert ft_debruijn(np.int64(2), 5, np.int64(3)) is ft_debruijn(2, 5, 3)

    def test_different_parameters_build_different_machines(self):
        assert debruijn(2, 5) is not debruijn(2, 6)
        assert debruijn(2, 5) is not debruijn(3, 5)
        assert ft_debruijn(2, 5, 3) is not ft_debruijn(2, 5, 4)
        assert ft_debruijn(2, 5, 3) is not ft_debruijn(2, 6, 3)

    def test_lazy_views_are_built_once(self):
        g = ft_debruijn(2, 4, 2)
        keys = g.directed_edge_keys
        assert ft_debruijn(2, 4, 2).directed_edge_keys.base is keys.base


class TestBound:
    @pytest.mark.parametrize("module, build", [
        (DEBRUIJN, lambda i: debruijn(2, 3 + i)),
        (FAULT_TOLERANT, lambda i: ft_debruijn(2, 4, i)),
    ], ids=["debruijn", "ft_debruijn"])
    def test_least_recently_used_is_evicted(self, module, build):
        bound = module._CACHE_SIZE
        first, second = build(0), build(1)
        for i in range(2, bound):
            build(i)
        assert build(0) is first          # touched: now most recent
        build(bound)                      # one past the bound
        assert module._build.cache_info().currsize == bound
        assert build(0) is first
        assert build(1) is not second     # the least recently used went


class TestImmutability:
    def test_shared_machine_arrays_are_read_only(self):
        for g in (debruijn(2, 4), ft_debruijn(2, 4, 1)):
            for arr in (g.row_offsets, g.col_indices, g.directed_edge_keys,
                        g.edge_ids):
                with pytest.raises(ValueError):
                    arr[0] = 1
                assert not arr.base.flags.writeable


class TestErrors:
    @pytest.mark.parametrize("call", [
        lambda: debruijn(1, 4),
        lambda: debruijn(2, 0),
        lambda: ft_debruijn(2, 2, 1),
        lambda: ft_debruijn(2, 4, -1),
        lambda: ft_debruijn(1, 4, 1),
    ], ids=["m=1", "h=0", "ft-h=2", "ft-k=-1", "ft-m=1"])
    def test_invalid_parameters_raise_every_time(self, call):
        for _ in range(3):
            with pytest.raises(ParameterError):
                call()
        assert DEBRUIJN._build.cache_info().currsize == 0
        assert FAULT_TOLERANT._build.cache_info().currsize == 0


@pytest.mark.parametrize("module", [DEBRUIJN, FAULT_TOLERANT],
                         ids=lambda m: m.__name__)
def test_builder_doctests_still_collected(module):
    """The builders are plain functions, so doctest still finds their
    examples: two in each module."""
    result = doctest.testmod(module, verbose=False)
    assert (result.failed, result.attempted) == (0, 2)
