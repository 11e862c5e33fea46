"""Differential conformance: the CSR core vs the pure-dict reference.

The PR-8 gate: every canonical plane of :class:`StaticGraph` (row
offsets, column indices, edge ids, degrees, neighbor sets) and every
output of the bit-parallel routing compiler must be **bit-identical** to
:class:`tests.conformance.harness.DictGraph` — a python-dict
re-implementation too naive to share bugs with the array code.  The
checks run over every registered graph builder and over
hypothesis-generated random edge soups (duplicates, self-loops,
reversed pairs included), and the compiled tables are driven through
both engines to prove the stats they induce are identical.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.debruijn import debruijn, debruijn_digit_definition
from repro.core.fault_tolerant import ft_debruijn
from repro.core.shuffle_exchange import ft_shuffle_exchange, shuffle_exchange
from repro.graphs import bitset
from repro.graphs.builders import (
    butterfly,
    complete,
    cube_connected_cycles,
    cycle,
    grid2d,
    hypercube,
    kautz,
    path,
    star,
)
from repro.graphs.static_graph import StaticGraph
from repro.routing.tables import RouteTable, compile_routing_table
from repro.simulator import BatchEngine
from tests.conformance.harness import (
    DictGraph,
    NetworkSimulator,
    compile_routing_table_frontier,
)

# every registered builder, at a conformance-sized parameterization
BUILDERS = {
    "hypercube": lambda: hypercube(4),
    "cycle": lambda: cycle(11),
    "path": lambda: path(9),
    # diameter 299: nine level planes, two byte lanes of distance decode
    "path_long": lambda: path(300),
    "complete": lambda: complete(8),
    "star": lambda: star(9),
    "star_wide": lambda: star(300),  # max degree 299: the uint16 rank path
    "grid2d": lambda: grid2d(4, 5),
    "ccc": lambda: cube_connected_cycles(3),
    "butterfly": lambda: butterfly(3),
    "butterfly_unwrapped": lambda: butterfly(3, wrap=False),
    "kautz": lambda: kautz(2, 3),
    "debruijn": lambda: debruijn(2, 4),
    "debruijn_m3": lambda: debruijn(3, 3),
    "debruijn_h7": lambda: debruijn(2, 7),
    "debruijn_digit": lambda: debruijn_digit_definition(2, 4),
    "shuffle_exchange": lambda: shuffle_exchange(4),
    "ft_debruijn": lambda: ft_debruijn(2, 3, 2),
    "ft_shuffle_exchange": lambda: ft_shuffle_exchange(3, 2),
}

BUILDER_IDS = sorted(BUILDERS)


def dict_twin(g: StaticGraph) -> DictGraph:
    """The pure-dict reference built from the same undirected edge set."""
    return DictGraph(g.node_count, g.iter_edges())


def assert_planes_equal(g: StaticGraph, ref: DictGraph) -> None:
    assert g.row_offsets.tolist() == ref.row_offsets()
    assert g.col_indices.tolist() == ref.col_indices()
    assert g.edge_ids.tolist() == ref.edge_ids()
    assert g.degrees().tolist() == ref.degrees()
    assert g.edge_count == len(ref.edge_list)
    for v in range(g.node_count):
        assert g.neighbors(v).tolist() == ref.adj[v]


class TestBuilderPlanes:
    """CSR planes of every registered builder match the dict reference."""

    @pytest.mark.parametrize("name", BUILDER_IDS)
    def test_planes_bit_identical(self, name):
        g = BUILDERS[name]()
        assert_planes_equal(g, dict_twin(g))

    @pytest.mark.parametrize("name", BUILDER_IDS)
    def test_compile_bit_identical(self, name):
        g = BUILDERS[name]()
        ref = dict_twin(g)
        table = compile_routing_table(g)
        assert table.tolist() == ref.compile_table()

    @pytest.mark.parametrize("name", BUILDER_IDS)
    def test_survivor_compile_bit_identical(self, name):
        g = BUILDERS[name]()
        ref = dict_twin(g)
        rng = np.random.default_rng(0xC5A + len(name))
        faults = rng.choice(g.node_count, size=min(3, g.node_count - 1), replace=False)
        table = compile_routing_table(g, faulty=faults)
        assert table.tolist() == ref.compile_table(faulty=faults)

    @pytest.mark.parametrize("name", BUILDER_IDS)
    def test_distances_match_dict_bfs(self, name):
        g = BUILDERS[name]()
        ref = dict_twin(g)
        dist = bitset.all_pairs_distances(g.node_count, g.row_offsets, g.col_indices)
        assert dist.tolist() == [ref.bfs_dist(s) for s in range(g.node_count)]


@st.composite
def edge_soups(draw):
    """Raw (num_nodes, edge list) pairs with duplicates, self-loops and
    reversed pairs — the constructors of both implementations must
    canonicalize them identically."""
    n = draw(st.integers(min_value=0, max_value=24))
    if n == 0:
        return 0, []
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=60,
        )
    )
    return n, pairs


class TestRandomGraphs:
    @settings(max_examples=60, deadline=None)
    @given(soup=edge_soups())
    def test_planes_bit_identical(self, soup):
        n, pairs = soup
        g = StaticGraph(n, pairs)
        assert_planes_equal(g, DictGraph(n, pairs))

    @settings(max_examples=40, deadline=None)
    @given(soup=edge_soups())
    def test_compile_bit_identical(self, soup):
        n, pairs = soup
        g = StaticGraph(n, pairs)
        ref = DictGraph(n, pairs)
        assert compile_routing_table(g).tolist() == ref.compile_table()

    @settings(max_examples=30, deadline=None)
    @given(soup=edge_soups(), seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_survivor_compile_bit_identical(self, soup, seed):
        n, pairs = soup
        if n == 0:
            return
        g = StaticGraph(n, pairs)
        ref = DictGraph(n, pairs)
        rng = np.random.default_rng(seed)
        faults = rng.choice(n, size=rng.integers(0, min(4, n) + 1), replace=False)
        a = compile_routing_table(g, faulty=faults)
        assert a.tolist() == ref.compile_table(faulty=faults)

    @settings(max_examples=30, deadline=None)
    @given(soup=edge_soups())
    def test_frontier_compiler_agrees(self, soup):
        """The retained frontier compiler is a third independent witness."""
        n, pairs = soup
        g = StaticGraph(n, pairs)
        assert np.array_equal(
            compile_routing_table(g), compile_routing_table_frontier(g)
        )

    @settings(max_examples=30, deadline=None)
    @given(soup=edge_soups())
    def test_distances_match_dict_bfs(self, soup):
        n, pairs = soup
        g = StaticGraph(n, pairs)
        ref = DictGraph(n, pairs)
        dist = bitset.all_pairs_distances(n, g.row_offsets, g.col_indices)
        for s in range(n):
            assert dist[s].tolist() == ref.bfs_dist(s)


class TestCrossEngine:
    """CSR-compiled tables drive both engines to identical stats."""

    @pytest.mark.parametrize("engine_cls", [NetworkSimulator, BatchEngine],
                             ids=["object", "batch"])
    def test_full_delivery_and_table_hops(self, engine_cls):
        g = debruijn(2, 4)
        n = g.node_count
        ref = dict_twin(g)
        rt = RouteTable.compile(g)
        assert rt.next_hops().tolist() == ref.compile_table()
        rng = np.random.default_rng(0xCE11)
        srcs = rng.integers(0, n, 64).astype(np.int64)
        dsts = rng.integers(0, n, 64).astype(np.int64)
        flat, offsets = rt.routes_batch(srcs, dsts)
        engine = engine_cls(g, 1)
        engine.inject_routes(flat, offsets)
        engine.run()
        stats = engine.stats()
        # every pair is reachable on the intact machine: full delivery,
        # and mean hops equals the table's own route lengths
        assert stats.delivered == 64
        assert stats.dropped == 0
        assert stats.mean_hops == pytest.approx(
            float((np.diff(offsets) - 1).mean())
        )

    def test_survivor_table_identical_stats_across_engines(self):
        g = debruijn(2, 4)
        n = g.node_count
        faults = np.array([3, 7, 11], dtype=np.int64)
        rt = RouteTable.compile(g, faulty=faults)
        assert rt.next_hops().tolist() == dict_twin(g).compile_table(faulty=faults)
        rng = np.random.default_rng(0xFA17)
        srcs = rng.integers(0, n, 80).astype(np.int64)
        dsts = rng.integers(0, n, 80).astype(np.int64)
        ok = rt.reachable(srcs, dsts)
        flat, offsets = rt.routes_batch(srcs[ok], dsts[ok])
        results = []
        for engine_cls in (NetworkSimulator, BatchEngine):
            engine = engine_cls(g, 1)
            for v in faults:
                engine.disable_node(int(v))
            engine.inject_routes(flat, offsets)
            engine.run()
            stats = engine.stats()
            results.append(
                (stats.injected, stats.delivered, stats.dropped, stats.mean_hops)
            )
        assert results[0] == results[1]
