"""Unit tests for the CSR graph kernel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphFormatError, ParameterError
from repro.graphs import StaticGraph

from tests.conftest import random_graph


class TestConstruction:
    def test_empty_graph(self):
        g = StaticGraph(0)
        assert g.node_count == 0
        assert g.edge_count == 0
        assert g.max_degree() == 0

    def test_nodes_no_edges(self):
        g = StaticGraph(5)
        assert g.node_count == 5
        assert g.edge_count == 0
        assert list(g.degrees()) == [0] * 5

    def test_basic_edges(self, triangle):
        assert triangle.edge_count == 3
        assert triangle.degree(0) == 2
        assert list(triangle.neighbors(1)) == [0, 2]

    def test_self_loops_dropped(self):
        g = StaticGraph(3, [(0, 0), (0, 1), (2, 2)])
        assert g.edge_count == 1
        assert g.degree(2) == 0

    def test_duplicate_edges_merged(self):
        g = StaticGraph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1
        assert g.degree(0) == 1

    def test_from_numpy_array(self):
        arr = np.array([[0, 1], [1, 2]])
        g = StaticGraph(3, arr)
        assert g.edge_count == 2

    def test_negative_node_count_rejected(self):
        with pytest.raises(ParameterError):
            StaticGraph(-1)

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(GraphFormatError):
            StaticGraph(3, [(0, 3)])
        with pytest.raises(GraphFormatError):
            StaticGraph(3, [(-1, 0)])

    def test_bad_shape_rejected(self):
        with pytest.raises(GraphFormatError):
            StaticGraph(3, np.array([[0, 1, 2]]))


class TestQueries:
    def test_neighbors_sorted(self, petersen):
        for v in range(petersen.node_count):
            nb = petersen.neighbors(v)
            assert list(nb) == sorted(nb)

    def test_neighbors_readonly(self, triangle):
        nb = triangle.neighbors(0)
        with pytest.raises(ValueError):
            nb[0] = 99

    def test_has_edge(self, square):
        assert square.has_edge(0, 1)
        assert square.has_edge(1, 0)
        assert not square.has_edge(0, 2)
        assert not square.has_edge(1, 1)

    def test_has_edge_out_of_range(self, square):
        with pytest.raises(GraphFormatError):
            square.has_edge(0, 7)

    def test_has_edges_vectorized(self, square):
        us = np.array([0, 1, 0, 2])
        vs = np.array([1, 2, 2, 2])
        assert list(square.has_edges(us, vs)) == [True, True, False, False]

    def test_has_edges_matches_scalar(self, rng):
        g = random_graph(30, 0.2, rng)
        us = rng.integers(0, 30, size=200)
        vs = rng.integers(0, 30, size=200)
        batch = g.has_edges(us, vs)
        for u, v, b in zip(us, vs, batch):
            assert g.has_edge(int(u), int(v)) == bool(b)

    def test_has_edges_shape_mismatch(self, square):
        with pytest.raises(GraphFormatError):
            square.has_edges(np.array([0]), np.array([0, 1]))

    def test_edges_sorted_unique(self, petersen):
        e = petersen.edges()
        assert e.shape == (15, 2)
        assert (e[:, 0] < e[:, 1]).all()
        keys = e[:, 0] * 10 + e[:, 1]
        assert (np.diff(keys) > 0).all()

    def test_iter_edges(self, triangle):
        assert sorted(triangle.iter_edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_degree_sum_is_twice_edges(self, rng):
        g = random_graph(40, 0.15, rng)
        assert int(g.degrees().sum()) == 2 * g.edge_count


class TestDerivedGraphs:
    def test_induced_subgraph(self, petersen):
        h, kept = petersen.induced_subgraph([0, 1, 2, 5, 6])
        assert h.node_count == 5
        assert list(kept) == [0, 1, 2, 5, 6]
        # edges preserved: (0,1),(1,2),(0,5) and 5-? inner edges among {5,6}: none
        assert h.has_edge(0, 1) and h.has_edge(1, 2)
        assert h.has_edge(0, 3)  # old (0,5) -> new ids 0,3

    def test_induced_subgraph_rank_relabel(self):
        g = StaticGraph(5, [(1, 3), (3, 4)])
        h, kept = g.induced_subgraph([1, 3, 4])
        assert list(kept) == [1, 3, 4]
        assert sorted(h.iter_edges()) == [(0, 1), (1, 2)]

    def test_without_nodes(self, petersen):
        h, kept = petersen.without_nodes([0])
        assert h.node_count == 9
        assert 0 not in kept

    def test_without_nodes_out_of_range(self, triangle):
        with pytest.raises(GraphFormatError):
            triangle.without_nodes([5])

    def test_relabel_roundtrip(self, petersen, rng):
        perm = rng.permutation(10)
        h = petersen.relabel(perm)
        inv = np.argsort(perm)
        assert h.relabel(inv) == petersen

    def test_relabel_preserves_structure(self, square):
        h = square.relabel([3, 2, 1, 0])
        assert h.edge_count == square.edge_count
        assert sorted(h.degrees()) == sorted(square.degrees())

    def test_relabel_rejects_non_permutation(self, triangle):
        with pytest.raises(GraphFormatError):
            triangle.relabel([0, 0, 1])

    def test_union(self):
        a = StaticGraph(4, [(0, 1)])
        b = StaticGraph(4, [(2, 3), (0, 1)])
        u = a.union(b)
        assert u.edge_count == 2

    @pytest.mark.parametrize("copies", [1, 2, 5])
    def test_block_union(self, petersen, copies):
        """Copies are disjoint and offset; the CSR is canonical; copy
        ``r``'s slot ``s`` is union slot ``r * len(col_indices) + s``."""
        g = petersen
        u = g.block_union(copies)
        n, s = g.node_count, g.col_indices.size
        edges = g.edges()
        expect = StaticGraph(copies * n, np.vstack([edges + r * n for r in range(copies)]))
        assert u == expect
        StaticGraph.from_csr(u.node_count, u.row_offsets, u.col_indices, validate=True)
        keys = g.directed_edge_keys
        src, dst = np.divmod(keys, n)
        for r in range(copies):
            slots = u.directed_edge_slots(src + r * n, dst + r * n)
            assert slots.tolist() == list(range(r * s, (r + 1) * s))

    def test_union_size_mismatch(self, triangle, square):
        with pytest.raises(GraphFormatError):
            triangle.union(square)

    def test_is_edge_subset_of(self, square):
        sub = StaticGraph(4, [(0, 1), (2, 3)])
        assert sub.is_edge_subset_of(square)
        assert not square.is_edge_subset_of(sub)

    def test_equality_and_hash(self, triangle):
        other = StaticGraph(3, [(1, 2), (0, 2), (0, 1)])
        assert triangle == other
        assert hash(triangle) == hash(other)
        assert triangle != StaticGraph(3, [(0, 1)])


class TestPropertyBased:
    @given(
        n=st.integers(min_value=1, max_value=25),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_handshake_lemma(self, n, seed):
        g = random_graph(n, 0.3, np.random.default_rng(seed))
        assert int(g.degrees().sum()) == 2 * g.edge_count

    @given(
        n=st.integers(min_value=2, max_value=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_induced_subgraph_edge_subset(self, n, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(n, 0.4, rng)
        keep = rng.choice(n, size=max(1, n // 2), replace=False)
        h, kept = g.induced_subgraph(keep)
        for u, v in h.iter_edges():
            assert g.has_edge(int(kept[u]), int(kept[v]))

    @given(
        n=st.integers(min_value=1, max_value=15),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_edges_roundtrip(self, n, seed):
        g = random_graph(n, 0.5, np.random.default_rng(seed))
        assert StaticGraph(n, g.edges()) == g


class TestCsrPlanes:
    """The canonical CSR planes and their edge cases (PR-8 tentpole)."""

    def test_empty_graph_planes(self):
        g = StaticGraph(0)
        assert g.row_offsets.tolist() == [0]
        assert g.col_indices.size == 0
        assert g.edge_ids.size == 0
        assert g.directed_edge_keys.size == 0

    def test_single_node_planes(self):
        g = StaticGraph(1)
        assert g.row_offsets.tolist() == [0, 0]
        assert g.col_indices.size == 0
        assert g.neighbors(0).size == 0

    def test_self_loops_dropped_debruijn_fixed_points(self):
        # de Bruijn fixed points (all-zeros / all-ones strings) emit
        # self-loops, which canonicalization must drop
        g = StaticGraph(4, [(0, 0), (3, 3), (0, 1), (2, 3), (1, 1)])
        assert g.edge_count == 2
        assert not g.has_edge(0, 0)
        assert g.edges().tolist() == [[0, 1], [2, 3]]

    def test_multi_edges_merge_both_orientations(self):
        g = StaticGraph(3, [(0, 1), (1, 0), (0, 1), (2, 1), (1, 2)])
        assert g.edge_count == 2
        assert g.degrees().tolist() == [1, 2, 1]

    def test_planes_are_read_only(self):
        g = StaticGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert not hasattr(g, "indptr") and not hasattr(g, "indices")
        assert not g.row_offsets.flags.writeable
        assert not g.col_indices.flags.writeable
        assert not g.edge_ids.flags.writeable

    def test_edge_ids_rank_and_mirroring(self):
        g = StaticGraph(4, [(2, 3), (0, 1), (1, 2)])
        # edges() rows are lexicographic; edge_ids are their ranks
        assert g.edges().tolist() == [[0, 1], [1, 2], [2, 3]]
        eid = g.edge_ids
        src = np.repeat(np.arange(4), g.degrees())
        for s in range(eid.size):
            u, v = int(src[s]), int(g.col_indices[s])
            lo, hi = min(u, v), max(u, v)
            assert g.edges()[eid[s]].tolist() == [lo, hi]
        # both directed slots of an edge share one id, covering 0..E-1
        assert sorted(set(eid.tolist())) == [0, 1, 2]

    def test_from_csr_roundtrip_and_validate(self):
        g = StaticGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        h = StaticGraph.from_csr(
            5, g.row_offsets, g.col_indices, validate=True
        )
        assert h == g
        assert h.edge_count == g.edge_count

    def test_from_csr_rejects_malformed(self):
        with pytest.raises(GraphFormatError):
            StaticGraph.from_csr(2, np.array([0, 1]), np.array([1, 0]))
        with pytest.raises(GraphFormatError):  # non-monotone offsets
            StaticGraph.from_csr(2, np.array([0, 2, 1]), np.array([1, 0, 1]))
        with pytest.raises(GraphFormatError):  # self-loop under validate
            StaticGraph.from_csr(
                2, np.array([0, 1, 2]), np.array([0, 1]), validate=True
            )
        with pytest.raises(GraphFormatError):  # unmirrored under validate
            StaticGraph.from_csr(
                3, np.array([0, 1, 2, 2]), np.array([1, 2]), validate=True
            )

    def test_neighbors_batch_matches_per_node(self):
        g = random_graph(12, 0.4, np.random.default_rng(3))
        frontier = np.array([0, 5, 7, 5])
        nbrs, owners = g.neighbors_batch(frontier)
        pos = 0
        for v in frontier:
            nv = g.neighbors(int(v))
            assert nbrs[pos: pos + nv.size].tolist() == nv.tolist()
            assert (owners[pos: pos + nv.size] == v).all()
            pos += nv.size
        assert pos == nbrs.size

    def test_neighbors_batch_empty_and_out_of_range(self):
        g = StaticGraph(3, [(0, 1)])
        nbrs, owners = g.neighbors_batch(np.array([], dtype=np.int64))
        assert nbrs.size == 0 and owners.size == 0
        with pytest.raises(GraphFormatError):
            g.neighbors_batch(np.array([3]))

    def test_directed_edge_slots(self):
        g = StaticGraph(4, [(0, 1), (1, 2), (2, 3)])
        us = np.array([0, 1, 2, 3, 0])
        vs = np.array([1, 0, 3, 2, 3])
        slots = g.directed_edge_slots(us, vs)
        assert (slots[:4] >= 0).all()
        assert slots[4] == -1  # (0, 3) is not an edge
        assert (g.col_indices[slots[:4]] == vs[:4]).all()
        # a route-sized batch in random order, with repeats and non-edges
        g = random_graph(40, 0.2, np.random.default_rng(3))
        rng = np.random.default_rng(4)
        us, vs = rng.integers(0, 40, 1000), rng.integers(0, 40, 1000)
        slots = g.directed_edge_slots(us, vs)
        for u, v, s in zip(us.tolist(), vs.tolist(), slots.tolist()):
            row = g.col_indices[g.row_offsets[u]: g.row_offsets[u + 1]].tolist()
            want = int(g.row_offsets[u]) + row.index(v) if v in row else -1
            assert s == want

    def test_faulted_node_sentinel_rows(self):
        # masking faults keeps all n rows; dead rows compile to sentinels
        from repro.routing.fault_routing import survivor_route_table
        from repro.routing.tables import UNREACHABLE

        g = StaticGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        nh = survivor_route_table(g, [2]).next_hops()
        assert (nh[2, :] == UNREACHABLE).all()
        assert (nh[:, 2] == UNREACHABLE).all()
        assert nh[2, 2] == UNREACHABLE  # dead diagonal too
        assert nh[0, 4] == 4  # survivors still route around

    def test_induced_subgraph_preserves_canonical_form(self):
        g = random_graph(15, 0.4, np.random.default_rng(9))
        h, kept = g.induced_subgraph(np.arange(0, 15, 2))
        # result must satisfy the full CSR invariants (validate re-checks)
        h2 = StaticGraph.from_csr(
            h.node_count, h.row_offsets, h.col_indices, validate=True
        )
        assert h2 == h

    def test_pickle_drops_caches_but_roundtrips(self):
        import pickle

        g = StaticGraph(4, [(0, 1), (1, 2), (2, 3)])
        g.edge_ids  # populate caches
        g.directed_edge_keys
        h = pickle.loads(pickle.dumps(g))
        assert h == g
        assert h.edge_ids.tolist() == g.edge_ids.tolist()
        assert h.directed_edge_keys.tolist() == g.directed_edge_keys.tolist()
