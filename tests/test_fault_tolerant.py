"""Tests for the fault-tolerant graphs B^k_{m,h} (paper §III.B, §IV.A)."""

from __future__ import annotations

import pytest

from repro.core import (
    debruijn,
    ft_debruijn,
    ft_degree_bound,
    ft_node_count,
    identity_embedding,
    neighbor_blocks,
)
from repro.errors import ParameterError
from repro.graphs import is_connected


class TestNodeCounts:
    @pytest.mark.parametrize("m,h,k", [(2, 3, 0), (2, 3, 1), (2, 4, 2), (3, 3, 1), (4, 3, 3)])
    def test_exactly_n_plus_k(self, m, h, k):
        g = ft_debruijn(m, h, k)
        assert g.node_count == m ** h + k == ft_node_count(m, h, k)

    def test_fig2_graph(self):
        # Fig. 2: B^1_{2,4} has 17 nodes
        assert ft_debruijn(2, 4, 1).node_count == 17

    def test_validation(self):
        with pytest.raises(ParameterError):
            ft_debruijn(2, 3, -1)
        with pytest.raises(ParameterError):
            ft_debruijn(2, 2, 1)  # paper requires h >= 3
        with pytest.raises(ParameterError):
            ft_node_count(1, 3, 0)


class TestDegrees:
    @pytest.mark.parametrize(
        "m,k,expected", [(2, 0, 4), (2, 1, 8), (2, 3, 16), (3, 1, 14), (4, 2, 32)]
    )
    def test_degree_bound_formula(self, m, k, expected):
        # degree at most 4(m-1)k + 2m  (Corollaries 1-4)
        assert ft_degree_bound(m, k) == expected

    @pytest.mark.parametrize(
        "m,h,k",
        [(2, 3, 1), (2, 3, 2), (2, 4, 1), (2, 4, 3), (3, 3, 1), (3, 3, 2), (4, 3, 1)],
    )
    def test_measured_degree_within_bound(self, m, h, k):
        g = ft_debruijn(m, h, k)
        assert g.max_degree() <= ft_degree_bound(m, k)

    def test_corollary2_bound_tight_somewhere(self):
        # Cor. 2: degree at most 8 for k=1; the bound is attained for h>=4.
        for h in (4, 5, 6, 7):
            assert ft_debruijn(2, h, 1).max_degree() == 8

    def test_degree_bound_validation(self):
        with pytest.raises(ParameterError):
            ft_degree_bound(2, -1)


class TestStructure:
    def test_k0_is_target(self):
        # B^0_{m,h} == B_{m,h}: window {0..m-1}, modulus m^h.
        for m, h in [(2, 3), (2, 4), (3, 3)]:
            assert ft_debruijn(m, h, 0) == debruijn(m, h)

    def test_target_is_identity_subgraph_when_k0(self):
        # §III.B notes B_{2,h} ⊆ B^k_{2,h}; with spares present the node
        # counts differ, so the claim is about the first 2^h nodes under
        # identity -- which holds exactly for k=0 (moduli differ otherwise).
        emb = identity_embedding(debruijn(2, 4), ft_debruijn(2, 4, 0))
        assert emb.used_host_edge_fraction() == 1.0

    def test_connected(self):
        for m, h, k in [(2, 3, 1), (2, 5, 2), (3, 3, 2)]:
            assert is_connected(ft_debruijn(m, h, k))

    def test_edges_match_neighbor_blocks(self):
        """Adjacency of every node equals successors ∪ predecessors from
        the block enumeration (the §III.A degree-accounting view)."""
        m, h, k = 2, 3, 2
        g = ft_debruijn(m, h, k)
        for x in range(g.node_count):
            blocks = neighbor_blocks(m, h, k, x)
            expect = set(map(int, blocks["successors"])) | set(
                map(int, blocks["predecessors"])
            )
            assert set(map(int, g.neighbors(x))) == expect

    def test_edges_match_neighbor_blocks_basem(self):
        m, h, k = 3, 3, 1
        g = ft_debruijn(m, h, k)
        for x in range(0, g.node_count, 3):
            blocks = neighbor_blocks(m, h, k, x)
            expect = set(map(int, blocks["successors"])) | set(
                map(int, blocks["predecessors"])
            )
            assert set(map(int, g.neighbors(x))) == expect

    def test_neighbor_blocks_range_check(self):
        with pytest.raises(ParameterError):
            neighbor_blocks(2, 3, 1, 99)

    def test_successor_block_is_consecutive_base2(self):
        """§V: in B^k_{2,h} node i is connected to a block of 2k+2
        consecutive nodes beginning at (2i - k) mod (2^h + k)."""
        h, k = 4, 2
        n = 2 ** h + k
        for i in (0, 3, n - 1):
            blocks = neighbor_blocks(2, h, k, i)
            expect = {(2 * i - k + j) % n for j in range(2 * k + 2)} - {i}
            assert set(map(int, blocks["successors"])) == expect
