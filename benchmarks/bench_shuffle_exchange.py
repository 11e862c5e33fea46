"""Benches SEEMB/SENAT: the shuffle-exchange results.

SEEMB: ``SE_h ⊆ B_{2,h}`` via the ψ construction (edge-by-edge
verification up to 2^12 nodes) and the resulting (k, SE)-tolerance at
degree 4k+4.  SENAT: the natural labeling's ~6k degree, measured, versus
ψ's 4k+4 and the bus 2k+3 — the §I comparison for shuffle-exchange.
The tables are ``seemb``, ``seemb-tol`` and ``senat`` of the
``paper-figures`` report.
"""

from __future__ import annotations

from repro.core import (
    embed_se_in_debruijn,
    exhaustive_tolerance_check,
    ft_debruijn,
    natural_ft_shuffle_exchange,
    psi_map,
    shuffle_exchange,
)

from benchmarks.conftest import once


def test_seemb_psi_verification_4096(benchmark):
    """SEEMB (cost probe): verify ψ at h=12 (4096 nodes, ~6k edges)."""
    emb = benchmark(embed_se_in_debruijn, 12)
    assert emb.pattern.node_count == 4096


def test_seemb_ft_se_tolerance_k2(benchmark):
    """(2, SE_3)-tolerance through φ∘ψ — 45 fault sets exhaustively."""
    ft = ft_debruijn(2, 3, 2)
    se = shuffle_exchange(3)
    rep = benchmark(exhaustive_tolerance_check, ft, se, 2, psi_map(3))
    assert rep.ok


def test_senat_natural_construction_speed(benchmark):
    """SENAT (cost probe): natural FT-SE at h=9, k=3."""
    g = benchmark(natural_ft_shuffle_exchange, 9, 3)
    assert g.max_degree() <= 6 * 3 + 6


def test_senat_gap_grows_with_k(benchmark):
    """The ψ-vs-natural degree gap grows ~2k (shape check)."""

    def gaps():
        out = []
        for k in (1, 2, 3, 4):
            nat = natural_ft_shuffle_exchange(7, k).max_degree()
            psi = ft_debruijn(2, 7, k).max_degree()
            out.append(nat - psi)
        return out

    g = once(benchmark, gaps)
    assert all(x > 0 for x in g)
    assert g == sorted(g)  # non-decreasing in k
