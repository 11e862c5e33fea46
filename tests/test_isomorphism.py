"""Unit tests for embedding verification and subgraph-monomorphism search."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import EmbeddingError
from repro.graphs import (
    StaticGraph,
    complete,
    cycle,
    find_embedding,
    hypercube,
    is_subgraph_embeddable,
    path,
    verify_embedding,
)

from tests.conftest import random_graph
from tests.nx_bridge import nx_is_subgraph_isomorphic


class TestVerifyEmbedding:
    def test_identity_on_subgraph(self, square):
        sub = StaticGraph(4, [(0, 1), (2, 3)])
        assert verify_embedding(sub, square, [0, 1, 2, 3])

    def test_relabeled(self, square):
        # square 0-1-2-3-0 embeds into itself rotated
        assert verify_embedding(square, square, [1, 2, 3, 0])

    def test_missing_edge_raises_with_certificate(self, square):
        tri = StaticGraph(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(EmbeddingError) as ei:
            verify_embedding(tri, square, [0, 1, 2])
        assert ei.value.missing_edge is not None

    def test_missing_edge_returns_false(self, square):
        tri = StaticGraph(3, [(0, 1), (1, 2), (2, 0)])
        assert not verify_embedding(tri, square, [0, 1, 2], raise_on_fail=False)

    def test_non_injective_rejected(self, square):
        sub = StaticGraph(2, [(0, 1)])
        with pytest.raises(EmbeddingError):
            verify_embedding(sub, square, [1, 1])

    def test_wrong_length_rejected(self, square):
        sub = StaticGraph(2, [(0, 1)])
        with pytest.raises(EmbeddingError):
            verify_embedding(sub, square, [0, 1, 2])

    def test_out_of_range_rejected(self, square):
        sub = StaticGraph(2, [(0, 1)])
        with pytest.raises(EmbeddingError):
            verify_embedding(sub, square, [0, 9])

    def test_empty_pattern(self, square):
        assert verify_embedding(StaticGraph(0), square, [])


class TestFindEmbedding:
    def test_triangle_in_k4(self):
        tri = cycle(3)
        phi = find_embedding(tri, complete(4))
        assert phi is not None
        assert verify_embedding(tri, complete(4), phi)

    def test_triangle_not_in_square(self, square):
        assert find_embedding(cycle(3), square) is None

    def test_path_in_cycle(self):
        p = path(5)
        c = cycle(6)
        phi = find_embedding(p, c)
        assert phi is not None and verify_embedding(p, c, phi)

    def test_c6_in_q3(self):
        # the 3-cube contains a 6-cycle
        phi = find_embedding(cycle(6), hypercube(3))
        assert phi is not None

    def test_c5_not_in_q4(self):
        # hypercubes are bipartite: no odd cycles
        assert find_embedding(cycle(5), hypercube(4)) is None

    def test_pattern_larger_than_host(self, triangle):
        assert find_embedding(complete(4), triangle) is None

    def test_empty_pattern(self, square):
        phi = find_embedding(StaticGraph(0), square)
        assert phi is not None and phi.size == 0

    def test_node_limit_guard(self):
        # force an expensive search with an unsatisfiable large pattern
        with pytest.raises(RuntimeError):
            find_embedding(complete(8), random_graph(40, 0.5, np.random.default_rng(1)),
                           node_limit=10)

    def test_disconnected_pattern(self):
        pat = StaticGraph(4, [(0, 1), (2, 3)])
        host = StaticGraph(5, [(0, 1), (3, 4)])
        phi = find_embedding(pat, host)
        assert phi is not None and verify_embedding(pat, host, phi)

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_networkx(self, seed):
        rng = np.random.default_rng(seed)
        host = random_graph(10, 0.4, rng)
        pat = random_graph(5, 0.4, rng)
        assert is_subgraph_embeddable(pat, host) == nx_is_subgraph_isomorphic(pat, host)

    def test_planted_embedding_found(self, rng):
        host = random_graph(20, 0.15, rng)
        keep = rng.choice(20, size=8, replace=False)
        pat, kept = host.induced_subgraph(keep)
        phi = find_embedding(pat, host)
        assert phi is not None
        assert verify_embedding(pat, host, phi)
