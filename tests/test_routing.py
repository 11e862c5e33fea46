"""Tests for shift-register routing, BFS paths, and routing tables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import debruijn
from repro.errors import ParameterError, RoutingError
from repro.graphs import StaticGraph, cycle, path, star
from repro.graphs.properties import distance_matrix
from repro.routing import (
    RouteTable,
    bfs_parents,
    compile_routing_table,
    eccentricity,
    extract_path,
    overlap_length,
    route_length,
    lifted_routes_batch,
    route_length_matrix,
    shift_route,
    shift_route_batch,
    shortest_path,
    validate_routing_table,
)


def follow_next_hops(next_hops: np.ndarray, src: int, dst: int) -> list[int]:
    """Walk a decoded next-hop view pair by pair — an independent
    scalar check on the vectorized rank walker."""
    route = [src]
    while route[-1] != dst:
        nxt = int(next_hops[route[-1], dst])
        if nxt < 0 or len(route) > next_hops.shape[0]:
            raise RoutingError(f"no route from {src} to {dst}")
        route.append(nxt)
    return route


class TestShiftRegisterRouting:
    def test_overlap_examples(self):
        assert overlap_length(0b0111, 0b1110, 2, 4) == 3
        assert overlap_length(0b0000, 0b0000, 2, 4) == 4
        assert overlap_length(0b1010, 0b0101, 2, 4) == 3
        assert overlap_length(0b1111, 0b0000, 2, 4) == 0

    def test_route_structure(self):
        r = shift_route(0, 5, 2, 3)
        assert r[0] == 0 and r[-1] == 5
        # every hop is a directed de Bruijn arc
        for a, b in zip(r, r[1:]):
            assert b in ((2 * a) % 8, (2 * a + 1) % 8)

    def test_route_to_self(self):
        assert shift_route(5, 5, 2, 4) == [5]

    def test_route_length_at_most_h(self):
        for m, h in [(2, 4), (3, 3)]:
            n = m ** h
            for x in range(0, n, 3):
                for y in range(0, n, 5):
                    assert route_length(x, y, m, h) <= h

    def test_all_routes_are_graph_walks(self):
        g = debruijn(2, 4)
        for x in range(16):
            for y in range(16):
                r = shift_route(x, y, 2, 4)
                for a, b in zip(r, r[1:]):
                    if a != b:
                        assert g.has_edge(a, b)

    def test_basem_routes(self):
        g = debruijn(3, 3)
        for x in (0, 13, 26):
            for y in (5, 20):
                r = shift_route(x, y, 3, 3)
                assert r[-1] == y
                for a, b in zip(r, r[1:]):
                    if a != b:
                        assert g.has_edge(a, b)

    def test_route_length_matrix_vs_bfs(self):
        """Shift routes are an upper bound on true distances."""
        m, h = 2, 4
        rl = route_length_matrix(m, h)
        d = distance_matrix(debruijn(m, h))
        assert (rl >= d).all()
        assert rl.max() == h
        n = m ** h
        assert rl.tolist() == [
            [route_length(x, y, m, h) for y in range(n)] for x in range(n)
        ]

    @pytest.mark.parametrize("m, h", [(2, 40), (2, 62), (3, 38), (5, 20)])
    def test_batch_routes_exact_up_to_the_window_limit(self, m, h):
        """With m**(h+1) <= 2**63 every (h+1)-digit window fits int64,
        so the batch routes are the scalar spec's even where m * n
        nears 2**63 (the closed form never builds x * m**(h-ℓ))."""
        n = m ** h
        rng = np.random.default_rng(h)
        xs = rng.integers(0, n, 240, dtype=np.int64)
        ys = rng.integers(0, n, 240, dtype=np.int64)
        ys[::4] = xs[::4]  # self-pairs: ℓ = h
        # y begins with x's last h - j digits: ℓ >= h - j
        for j, rows in ((1, slice(1, None, 4)), (h // 2, slice(2, None, 4))):
            ys[rows] = xs[rows] % m ** (h - j) * m ** j + ys[rows] % m ** j
        flat, offsets = shift_route_batch(xs, ys, m, h)
        for i, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
            assert flat[offsets[i]:offsets[i + 1]].tolist() == shift_route(x, y, m, h)

    @pytest.mark.parametrize("m, h", [(3, 39), (2, 63)])
    def test_batch_routes_refused_past_the_window_limit(self, m, h):
        one = np.zeros(1, dtype=np.int64)
        with pytest.raises(ParameterError, match=r"m\*\*\(h\+1\) <= 2\*\*63"):
            shift_route_batch(one, one, m, h)
        with pytest.raises(ParameterError, match=r"m\*\*\(h\+1\) <= 2\*\*63"):
            lifted_routes_batch(m, h, one, one, one, one)

    def test_endpoint_validation(self):
        with pytest.raises(ParameterError):
            shift_route(0, 99, 2, 4)


class TestBFSPaths:
    def test_parents_and_path(self):
        g = path(5)
        par = bfs_parents(g, 0)
        assert extract_path(par, 0, 4) == [0, 1, 2, 3, 4]

    def test_shortest_path_cycle(self):
        g = cycle(8)
        p = shortest_path(g, 0, 3)
        assert p[0] == 0 and p[-1] == 3 and len(p) == 4

    def test_self_path(self, triangle):
        assert shortest_path(triangle, 1, 1) == [1]

    def test_unreachable(self):
        g = StaticGraph(4, [(0, 1)])
        with pytest.raises(RoutingError):
            shortest_path(g, 0, 3)

    def test_eccentricity(self):
        assert eccentricity(path(5), 0) == 4
        assert eccentricity(cycle(8), 0) == 4

    def test_eccentricity_disconnected(self):
        with pytest.raises(RoutingError):
            eccentricity(StaticGraph(3, [(0, 1)]), 0)


class TestRoutingTables:
    def test_compile_and_validate(self):
        g = debruijn(2, 3)
        t = compile_routing_table(g)
        assert validate_routing_table(g, t)

    def test_paths_are_hop_optimal(self):
        g = debruijn(2, 4)
        rt = RouteTable.compile(g)
        d = distance_matrix(g)
        for s in range(0, 16, 3):
            for dd in range(0, 16, 5):
                p = rt.route(s, dd)
                assert len(p) - 1 == d[s, dd]

    def test_table_self_entries(self):
        g = cycle(5)
        t = compile_routing_table(g)
        for v in range(5):
            assert t[v, v] == v

    def test_disconnected_marked(self):
        g = StaticGraph(4, [(0, 1), (2, 3)])
        t = compile_routing_table(g)
        assert t[0, 3] == -1
        with pytest.raises(RoutingError):
            RouteTable.compile(g).route(0, 3)

    def test_bad_table_shape(self):
        g = cycle(5)
        with pytest.raises(RoutingError):
            validate_routing_table(g, np.zeros((3, 3), dtype=np.int64))


class TestRouteTableBatch:
    """The pickle-safe batch artifact behaves exactly like a per-pair
    walk of its decoded next hops, in-process and across a process
    boundary."""

    def test_batch_matches_per_pair(self):
        g = debruijn(2, 5)
        rt = RouteTable.compile(g)
        rng = np.random.default_rng(7)
        srcs = rng.integers(0, 32, size=200)
        dsts = rng.integers(0, 32, size=200)
        flat, off = rt.routes_batch(srcs, dsts)
        nh = rt.next_hops()
        for i in range(200):
            got = flat[off[i]: off[i + 1]].tolist()
            assert got == follow_next_hops(nh, int(srcs[i]), int(dsts[i]))

    def test_self_pairs_and_empty_batch(self):
        rt = RouteTable.compile(cycle(6))
        flat, off = rt.routes_batch(np.array([4]), np.array([4]))
        assert flat.tolist() == [4] and off.tolist() == [0, 1]
        flat, off = rt.routes_batch(np.zeros(0, dtype=int), np.zeros(0, dtype=int))
        assert flat.size == 0 and off.tolist() == [0]

    def test_unreachable_raises(self):
        rt = RouteTable.compile(StaticGraph(4, [(0, 1), (2, 3)]))
        with pytest.raises(RoutingError):
            rt.routes_batch(np.array([0]), np.array([3]))

    def test_out_of_range_raises(self):
        rt = RouteTable.compile(cycle(4))
        with pytest.raises(RoutingError):
            rt.routes_batch(np.array([0]), np.array([9]))
        with pytest.raises(RoutingError):
            rt.routes_batch(np.array([0, 1]), np.array([1]))
        # the single-pair path refuses the same inputs, instead of
        # wrapping a negative index into a bogus route
        for src, dst in [(-1, 2), (0, 9), (0, -1)]:
            with pytest.raises(RoutingError, match="endpoint out of range"):
                rt.route(src, dst)

    def test_rejects_non_square(self):
        with pytest.raises(RoutingError):
            RouteTable(
                np.zeros((2, 3), dtype=np.uint8),
                np.zeros(3, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
            )

    def test_rank_dtype_rule(self):
        """Ranks use the smallest unsigned dtype that holds max_deg + 1
        values; the sentinel is its max and decodes to UNREACHABLE."""
        db = RouteTable.compile(debruijn(2, 5), faulty=[3])
        assert db.table.dtype == np.uint8 and db.sentinel == 255
        assert db.table[3, 3] == 255 and db.next_hops()[3, 3] == -1
        hub = RouteTable.compile(star(300), faulty=[7])
        assert hub.table.dtype == np.uint16 and hub.sentinel == 65535
        assert hub.table[0, 299] == 298  # the hub's last CSR slot
        assert hub.route(299, 1) == [299, 0, 1]

    def test_pickle_round_trip(self):
        import pickle

        rt = RouteTable.compile(debruijn(2, 4))
        clone = pickle.loads(pickle.dumps(rt))
        assert np.array_equal(clone.table, rt.table)
        assert clone.route(0, 13) == rt.route(0, 13)
        assert clone.node_count == 16

    def test_equality_is_value_based(self):
        a = RouteTable.compile(cycle(5))
        b = RouteTable.compile(cycle(5))
        c = RouteTable.compile(cycle(6))
        assert a == b
        assert a != c
        assert a != "not a table"

    def test_survivor_table_workflow(self):
        """Compile once per fault epoch in original node ids — the
        detour baseline's routing recipe."""
        from repro.routing import survivor_route_table

        g = debruijn(2, 4)
        rt = survivor_route_table(g, [3, 7])
        flat, off = rt.routes_batch(np.array([0, 1]), np.array([9, 5]))
        for i in range(2):
            route = flat[off[i]: off[i + 1]]
            assert 3 not in route and 7 not in route
            for a, b in zip(route, route[1:]):
                assert g.has_edge(int(a), int(b))

    def test_corrupt_table_detected(self):
        g = cycle(6)
        t = compile_routing_table(g)
        t[0, 3] = 4  # 4 is not adjacent to 0
        assert not validate_routing_table(g, t)
