"""Tests for reconfigured routing vs. naive detours."""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import debruijn, ft_debruijn
from repro.core.reconfiguration import Reconfigurator
from repro.errors import FaultSetError, RoutingError
from repro.routing import (
    ReconfiguredRouter,
    lift_slot_table,
    lifted_routes_batch,
    shift_route,
    survivor_route_table,
)
from repro.routing.shift_register import route_length
from tests.conformance.harness import bfs_detour_routes

# every de Bruijn size the suite builds, up to 1,024 nodes
LIFT_SIZES = (
    [(2, h) for h in range(1, 11)] + [(3, h) for h in range(1, 7)]
    + [(4, h) for h in range(1, 6)] + [(5, h) for h in range(1, 5)]
)


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


@functools.lru_cache(maxsize=None)
def _ft(m, h, k):
    return ft_debruijn(m, h, k)


class TestLiftedRoutes:
    """The batch lift is the scalar spec, route for route: the
    shift-register route of each logical pair mapped through φ, with
    each hop's slot the one the physical graph's search finds."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_batch_lift_equals_scalar_lift(self, data):
        m, h = data.draw(st.sampled_from(LIFT_SIZES))
        n = m ** h
        k = data.draw(st.integers(0, 3))
        rec = Reconfigurator(n + k, n)
        faults = data.draw(st.lists(st.integers(0, n + k - 1), max_size=k,
                                    unique=True))
        for v in faults:
            rec.fail_node(v)
        phi = rec.phi()
        # (src, dst, self-pair?) rows: about half the pairs are src == src
        rows = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans()),
            min_size=1, max_size=100,
        ))
        pairs = [(s, s if same else d) for s, d, same in rows]
        srcs, dsts = np.array(pairs, dtype=np.int64).T
        if h >= 3:
            ft = _ft(m, h, k)
            slots = lift_slot_table(ft, m, phi)
        else:  # no B^k_{m,h} below h = 3: lift the nodes only
            slots = np.full(n * m, -1, dtype=np.int64)
        flat, offsets, hop = lifted_routes_batch(m, h, phi, srcs, dsts, slots)
        assert offsets.size == len(pairs) + 1 and hop.size == flat.size
        for i, (s, d) in enumerate(pairs):
            want = [int(phi[v]) for v in shift_route(s, d, m, h)]
            route = flat[offsets[i]:offsets[i + 1]]
            assert route.tolist() == want
            if h >= 3:
                searched = ft.directed_edge_slots(route[:-1], route[1:])
                assert (searched >= 0).all()  # Theorems 1/2: every hop an edge
                assert hop[offsets[i]:offsets[i + 1]].tolist() == [*searched.tolist(), -1]


    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_stacked_lift_equals_each_lift(self, data):
        """A stack of maps shifted into the copies of a block union lifts
        like each map alone on the machine, shifted into its copy: one
        slot search and one window pass for the whole stack."""
        m, h = data.draw(st.sampled_from([s for s in LIFT_SIZES if s[1] >= 3]))
        n, k = m ** h, data.draw(st.integers(0, 3))
        ft = _ft(m, h, k)
        phis = []
        for _ in range(data.draw(st.integers(1, 4))):
            rec = Reconfigurator(n + k, n)
            for v in data.draw(st.lists(st.integers(0, n + k - 1), max_size=k,
                                        unique=True)):
                rec.fail_node(v)
            phis.append(rec.phi())
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                             st.integers(0, n - 1)),
                                   min_size=1, max_size=60))
        srcs, dsts = np.array(pairs, dtype=np.int64).T
        copies = len(phis)
        shifted = np.stack(phis) + (n + k) * np.arange(copies)[:, None]
        slots = lift_slot_table(ft.block_union(copies), m, shifted)
        flat, offsets, hop = lifted_routes_batch(m, h, shifted, srcs, dsts, slots)
        s = ft.directed_edge_keys.size
        for r, phi in enumerate(phis):
            own = lift_slot_table(ft, m, phi)
            assert slots[r].tolist() == np.where(own >= 0, own + r * s, -1).tolist()
            f1, o1, h1 = lifted_routes_batch(m, h, phi, srcs, dsts, own)
            assert offsets.tolist() == o1.tolist()
            assert flat[r].tolist() == (f1 + r * (n + k)).tolist()
            assert hop[r].tolist() == np.where(h1 >= 0, h1 + r * s, -1).tolist()


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
        # a dead node routes nowhere, not even to itself
        rt = survivor_route_table(g, [5])
        with pytest.raises(RoutingError, match="no route from 5 to 5"):
            rt.route(5, 5)
        with pytest.raises(RoutingError, match="no route from 5 to 5"):
            rt.routes_batch([4, 5], [4, 5])
        assert rt.route(4, 4) == [4]
        assert bfs_detour_routes(g, [5], [[5, 5]])[2].size == 0

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
        _, offsets, kept, _ = survivor_route_table(g, faults).routes_batch_masked(
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
