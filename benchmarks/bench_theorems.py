"""Benches THM1/THM2/COR14: exhaustive tolerance verification.

These time the full ``C(N+k, k)``-fault-set sweeps that make Theorems 1
and 2 executable, and check the corollaries' node/degree numbers.  The
small-parameter batteries are ``thm1``, ``thm2`` and ``cor14`` of the
``paper-figures`` report.
"""

from __future__ import annotations


from repro.core import (
    debruijn,
    exhaustive_tolerance_check,
    ft_debruijn,
    ft_degree_bound,
    random_tolerance_check,
)

from benchmarks.conftest import once


def test_thm1_largest_exhaustive_case(benchmark):
    """THM1 (cost probe): h=4, k=3 — C(19,3) = 969 fault sets."""
    ft = ft_debruijn(2, 4, 3)
    g = debruijn(2, 4)
    rep = benchmark(exhaustive_tolerance_check, ft, g, 3)
    assert rep.ok and rep.total == 969


def test_thm1_randomized_large(benchmark, rng):
    """THM1 at h=8 (256 nodes), k=4: adversarial + 200 random fault sets."""
    ft = ft_debruijn(2, 8, 4)
    g = debruijn(2, 8)
    rep = once(benchmark, random_tolerance_check, ft, g, 4, 200, rng)
    assert rep.ok


def test_thm2_base3_k2(benchmark):
    """THM2 (cost probe): m=3, h=3, k=2 — C(29,2) = 406 fault sets."""
    ft = ft_debruijn(3, 3, 2)
    g = debruijn(3, 3)
    rep = benchmark(exhaustive_tolerance_check, ft, g, 2)
    assert rep.ok


def test_cor2_tightness(benchmark):
    """Cor. 2's bound (degree 8, k=1) is attained for every h >= 4."""

    def measure():
        return [ft_debruijn(2, h, 1).max_degree() for h in (4, 5, 6, 7)]

    degs = once(benchmark, measure)
    assert degs == [8, 8, 8, 8] == [ft_degree_bound(2, 1)] * 4
