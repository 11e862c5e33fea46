"""Property tests for :class:`RouteTable` on arbitrary survivor graphs.

Strengthens the ``tests/test_grid.py`` property-test pattern for
the routing layer: for *random* graphs (not just de Bruijn machines) and
random fault sets, every route a compiled table emits is fault-free,
loop-free, and exactly ``bfs_distances`` hops — and the disconnected
remainder is reported through the explicit ``UNREACHABLE`` sentinel, not
an ambiguous entry or a surprise exception.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.graphs.properties import bfs_distances
from repro.graphs.static_graph import StaticGraph
from repro.routing import UNREACHABLE, RouteTable, survivor_route_table
from tests.conftest import random_graph
from tests.conformance.harness import (
    assert_valid_survivor_routes,
    survivor_on_full_node_set,
)


class TestTableRoutesProperty:
    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=24),
        p=st.floats(min_value=0.05, max_value=0.6),
        n_faults=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_masked_batch_is_fault_free_loop_free_hop_optimal(
        self, n, p, n_faults, seed
    ):
        rng = np.random.default_rng(seed)
        g = random_graph(n, p, rng)
        faults = rng.choice(n, size=min(n_faults, n - 1), replace=False)
        rt = survivor_route_table(g, faults)

        srcs = rng.integers(0, n, 50)
        dsts = rng.integers(0, n, 50)
        flat, offsets, kept, _ = rt.routes_batch_masked(srcs, dsts)

        # kept pairs: valid hop-optimal survivor routes
        pairs = np.column_stack([srcs[kept], dsts[kept]])
        assert_valid_survivor_routes(flat, offsets, pairs, g, faults)

        # dropped pairs: genuinely unreachable in the survivor graph
        # (checked against an independent BFS), or a faulty endpoint
        survivor = survivor_on_full_node_set(g, faults)
        fset = {int(v) for v in faults}
        dropped = np.setdiff1d(np.arange(srcs.size), kept)
        for i in dropped:
            s, d = int(srcs[i]), int(dsts[i])
            if s in fset or d in fset:
                continue
            assert s != d
            assert bfs_distances(survivor, s)[d] < 0

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=20),
        p=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_every_table_entry_is_neighbor_or_sentinel(self, n, p, seed):
        """The disconnected-graph contract: no ambiguous entries — each
        cell either names a real neighbor (or the destination itself on
        the diagonal) or is exactly the UNREACHABLE sentinel."""
        g = random_graph(n, p, np.random.default_rng(seed))
        t = RouteTable.compile(g).next_hops()
        for v in range(n):
            nbrs = set(g.neighbors(v).tolist())
            for d in range(n):
                e = int(t[v, d])
                if v == d:
                    assert e == v
                else:
                    assert e == UNREACHABLE or e in nbrs


class TestDisconnectedSentinel:
    """Regression: a fault set that disconnects the survivor graph (two
    components) must flow through the sentinel paths cleanly."""

    #: 0-1-2 and 4-5 survive; cutting 3 splits them into two components
    PATH = StaticGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])

    def test_compile_marks_cross_component_pairs_unreachable(self):
        rt = survivor_route_table(self.PATH, [3])
        t = rt.next_hops()
        assert int(t[0, 5]) == UNREACHABLE
        assert int(t[4, 1]) == UNREACHABLE
        assert int(t[0, 2]) == 1          # same-component pairs still route
        # a dead endpoint admits nothing — not even the trivial self-route
        assert int(t[3, 3]) == UNREACHABLE
        assert int(t[0, 3]) == UNREACHABLE  # nothing routes *to* the fault

    def test_strict_batch_raises_masked_batch_records(self):
        rt = survivor_route_table(self.PATH, [3])
        srcs = np.array([0, 0, 4])
        dsts = np.array([2, 5, 5])
        with pytest.raises(RoutingError, match="no route"):
            rt.routes_batch(srcs, dsts)
        flat, offsets, kept, _ = rt.routes_batch_masked(srcs, dsts)
        assert kept.tolist() == [0, 2]
        assert flat.tolist() == [0, 1, 2, 4, 5]
        assert offsets.tolist() == [0, 3, 5]

    def test_reachable_mask(self):
        rt = survivor_route_table(self.PATH, [3])
        ok = rt.reachable(np.array([0, 0, 4, 5]), np.array([2, 5, 4, 4]))
        assert ok.tolist() == [True, False, True, True]

    def test_single_route_raises_cleanly(self):
        rt = survivor_route_table(self.PATH, [3])
        with pytest.raises(RoutingError, match="no route"):
            rt.route(0, 5)
        assert rt.route(0, 2) == [0, 1, 2]

    def test_fault_out_of_range_rejected(self):
        with pytest.raises(RoutingError, match="out of range"):
            survivor_route_table(self.PATH, [99])
