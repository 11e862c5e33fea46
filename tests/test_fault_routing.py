"""Tests for reconfigured routing vs. naive detours."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import debruijn
from repro.errors import FaultSetError, RoutingError
from repro.routing import ReconfiguredRouter, survivor_route_table
from repro.routing.shift_register import route_length
from tests.conformance.harness import bfs_detour_routes


class TestReconfiguredRouter:
    def test_fault_free_routes(self):
        r = ReconfiguredRouter(2, 4, 2)
        p = r.physical_route(0, 13)
        assert p[0] == 0 and p[-1] == 13

    def test_routes_avoid_faults(self):
        r = ReconfiguredRouter(2, 4, 2)
        r.fail_node(3)
        r.fail_node(9)
        for s in range(16):
            for d in range(0, 16, 3):
                p = r.physical_route(s, d)
                assert 3 not in p and 9 not in p

    def test_zero_dilation(self):
        """Reconfiguration adds no hops: lifted length == logical length."""
        r = ReconfiguredRouter(2, 4, 1)
        r.fail_node(7)
        for s in (0, 5, 12):
            for d in (1, 9, 15):
                assert r.route_length(s, d) == route_length(s, d, 2, 4)

    def test_repair(self):
        r = ReconfiguredRouter(2, 3, 1)
        r.fail_node(2)
        assert 2 not in r.physical_route(0, 7)
        r.repair_node(2)
        assert r.physical_route(2, 2) == [2]

    def test_budget_enforced(self):
        r = ReconfiguredRouter(2, 3, 1)
        r.fail_node(0)
        with pytest.raises(FaultSetError):
            r.fail_node(1)

    def test_basem(self):
        r = ReconfiguredRouter(3, 3, 2)
        r.fail_node(10)
        p = r.physical_route(0, 26)
        assert 10 not in p and p[-1] == r.reconfigurator.phi()[26]


class TestDetourRoute:
    """The detour baseline's one router (a survivor table per fault
    epoch), checked against the per-pair BFS witness."""

    def test_no_faults_is_shortest(self):
        g = debruijn(2, 4)
        p = survivor_route_table(g, []).route(0, 9)
        from repro.graphs.properties import bfs_distances

        assert len(p) - 1 == bfs_distances(g, 0)[9]

    def test_detour_avoids_faults(self):
        g = debruijn(2, 4)
        p = survivor_route_table(g, [2, 3]).route(0, 9)
        assert 2 not in p and 3 not in p
        flat, _, kept = bfs_detour_routes(g, [2, 3], [[0, 9]])
        assert kept.tolist() == [0] and flat.tolist() == p

    def test_faulty_endpoint_rejected(self):
        g = debruijn(2, 3)
        for faults in ([5], [0]):
            with pytest.raises(RoutingError):
                survivor_route_table(g, faults).route(5, 0)
            assert bfs_detour_routes(g, faults, [[5, 0]])[2].size == 0

    def test_detours_stretch_paths(self):
        """Degradation: some pairs must take longer routes after faults
        (compare against the fault-free distance)."""
        g = debruijn(2, 4)
        from repro.graphs.properties import distance_matrix

        d0 = distance_matrix(g)
        faults = [1, 2]
        src, dst = np.divmod(np.arange(256), 16)
        live = ~np.isin(src, faults) & ~np.isin(dst, faults) & (src != dst)
        src, dst = src[live], dst[live]
        _, offsets, kept = survivor_route_table(g, faults).routes_batch_masked(
            src, dst
        )
        refused = src.size - kept.size
        longer = np.diff(offsets) - 1 > d0[src[kept], dst[kept]]
        assert refused + int(longer.sum()) > 0

    def test_disconnection_detected(self):
        """Removing both neighbors of a degree-2 node isolates it."""
        g = debruijn(2, 3)
        nbrs = [int(v) for v in g.neighbors(0)]
        assert len(nbrs) == 2
        with pytest.raises(RoutingError):
            survivor_route_table(g, nbrs).route(0, 5)
        assert bfs_detour_routes(g, nbrs, [[0, 5]])[2].size == 0

    def test_survivor_graph(self):
        """The witness's survivor graph: faulty nodes and their edges
        gone, the rest relabeled in id order."""
        g = debruijn(2, 3)
        sub, kept = g.without_nodes([0, 7])
        assert sub.node_count == 6
        assert 0 not in kept and 7 not in kept
