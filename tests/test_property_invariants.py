"""Deep property-based invariants across layers (hypothesis).

These tests treat the paper's theorems and the library's structural
contracts as universally-quantified properties and let hypothesis hunt
for counterexamples over randomized parameters and fault sets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    bus_degree_bound_basem,
    bus_ft_debruijn_basem,
    debruijn,
    embed_after_faults,
    ft_debruijn,
    ft_degree_bound,
    ft_node_count,
    is_de_bruijn_sequence,
    de_bruijn_sequence,
    psi_map,
    rank_remap,
    shuffle_exchange,
)
from repro.graphs import StaticGraph, verify_embedding
from repro.routing import shift_route, shift_route_batch
from repro.simulator import BatchEngine, uniform_traffic
from tests.conformance.harness import NetworkSimulator

# strategies kept small: constructions are exercised at paper scale.
small_m = st.integers(min_value=2, max_value=4)
small_h = st.integers(min_value=3, max_value=4)
small_k = st.integers(min_value=0, max_value=3)


class TestConstructionProperties:
    @given(m=small_m, h=small_h, k=small_k)
    @settings(max_examples=25, deadline=None)
    def test_node_count_and_degree_bound(self, m, h, k):
        g = ft_debruijn(m, h, k)
        assert g.node_count == ft_node_count(m, h, k)
        assert g.max_degree() <= ft_degree_bound(m, k)

    @given(m=small_m, h=small_h)
    @settings(max_examples=12, deadline=None)
    def test_k0_is_target(self, m, h):
        assert ft_debruijn(m, h, 0) == debruijn(m, h)

    @given(m=small_m, h=small_h, k=st.integers(min_value=1, max_value=2))
    @settings(max_examples=12, deadline=None)
    def test_ft_graph_contains_more_edges_than_target(self, m, h, k):
        assert ft_debruijn(m, h, k).edge_count > debruijn(m, h).edge_count


class TestTheoremAsProperty:
    @given(
        m=small_m,
        h=small_h,
        k=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10**9),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_fault_sets_always_survivable(self, m, h, k, seed):
        """Theorems 1/2 as a property: any random fault set of size k
        leaves a verifiable embedded target."""
        ft = ft_debruijn(m, h, k)
        target = debruijn(m, h)
        rng = np.random.default_rng(seed)
        faults = rng.choice(ft.node_count, size=k, replace=False)
        nm = embed_after_faults(ft, target, faults)  # raises on failure
        assert not set(map(int, faults)) & set(map(int, nm))

    @given(
        h=small_h,
        k=st.integers(min_value=1, max_value=2),
        seed=st.integers(min_value=0, max_value=10**9),
    )
    @settings(max_examples=20, deadline=None)
    def test_se_fault_sets_always_survivable(self, h, k, seed):
        ft = ft_debruijn(2, h, k)
        se = shuffle_exchange(h)
        rng = np.random.default_rng(seed)
        faults = rng.choice(ft.node_count, size=k, replace=False)
        embed_after_faults(ft, se, faults, logical_map=psi_map(h))

    @given(
        total=st.integers(min_value=8, max_value=64),
        k=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=10**9),
    )
    @settings(max_examples=40, deadline=None)
    def test_rank_remap_is_sorted_injection_avoiding_faults(self, total, k, seed):
        k = min(k, total - 1)
        rng = np.random.default_rng(seed)
        faults = rng.choice(total, size=k, replace=False)
        phi = rank_remap(total, faults, total - k)
        assert (np.diff(phi) > 0).all() or phi.size <= 1
        assert not set(map(int, faults)) & set(map(int, phi))


class TestBusProperties:
    @given(m=small_m, k=st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_bus_degree_exact(self, m, k):
        bg = bus_ft_debruijn_basem(m, 3, k)
        assert bg.max_bus_degree() == bus_degree_bound_basem(m, k)

    @given(m=small_m, k=st.integers(min_value=1, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_bus_ports_beat_p2p(self, m, k):
        assert bus_degree_bound_basem(m, k) < ft_degree_bound(m, k)


class TestRoutingProperties:
    @given(
        h=st.integers(min_value=3, max_value=6),
        seed=st.integers(min_value=0, max_value=10**9),
    )
    @settings(max_examples=30, deadline=None)
    def test_shift_routes_valid_and_short(self, h, seed):
        n = 1 << h
        rng = np.random.default_rng(seed)
        x, y = int(rng.integers(0, n)), int(rng.integers(0, n))
        route = shift_route(x, y, 2, h)
        assert route[0] == x and route[-1] == y
        assert len(route) - 1 <= h
        for a, b in zip(route, route[1:]):
            assert b in ((2 * a) % n, (2 * a + 1) % n)


class TestSequenceProperties:
    @given(m=st.integers(min_value=2, max_value=4), h=st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_fkm_always_valid(self, m, h):
        assert is_de_bruijn_sequence(de_bruijn_sequence(m, h), m, h)


class TestSimulatorConservation:
    @pytest.mark.parametrize("engine", [BatchEngine, NetworkSimulator],
                             ids=["batch", "object"])
    @given(seed=st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=15, deadline=None)
    def test_packet_conservation(self, engine, seed):
        """injected == delivered + dropped + in_flight, always."""
        rng = np.random.default_rng(seed)
        h = 4
        g = debruijn(2, h)
        sim = engine(g)
        pairs = uniform_traffic(1 << h, 60, rng)
        sim.inject_routes(*shift_route_batch(pairs[:, 0], pairs[:, 1], 2, h))
        for _ in range(int(rng.integers(0, 6))):
            sim.step()
        if rng.random() < 0.5:
            sim.disable_node(int(rng.integers(0, 1 << h)))
        sim.run()
        st_ = sim.stats()
        assert st_.injected == st_.delivered + st_.dropped
        assert sim.in_flight == 0


class TestEmbeddingProperties:
    @given(
        n=st.integers(min_value=4, max_value=16),
        seed=st.integers(min_value=0, max_value=10**9),
    )
    @settings(max_examples=25, deadline=None)
    def test_planted_subgraph_always_verifies(self, n, seed):
        rng = np.random.default_rng(seed)
        iu, iv = np.triu_indices(n, k=1)
        mask = rng.random(iu.size) < 0.4
        host = StaticGraph(n, np.column_stack([iu[mask], iv[mask]]))
        keep = rng.choice(n, size=max(2, n // 2), replace=False)
        pattern, kept = host.induced_subgraph(keep)
        assert verify_embedding(pattern, host, kept)
