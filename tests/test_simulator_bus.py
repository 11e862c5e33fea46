"""Tests for the bus-network simulator (§V semantics)."""

from __future__ import annotations

import pytest

from repro.core import bus_debruijn, bus_ft_debruijn, debruijn
from repro.errors import SimulationError
from repro.graphs import BusHypergraph
from repro.routing import shift_route, shift_route_batch
from repro.simulator import BatchEngine, BusNetworkSimulator, uniform_traffic


@pytest.fixture
def tiny_bus():
    """3 nodes, each owning a bus that reaches the other two."""
    return BusHypergraph(
        3, [[0, 1, 2], [0, 1, 2], [0, 1, 2]], owners=[0, 1, 2]
    )


class TestBusSimulator:
    def test_requires_owners(self):
        bg = BusHypergraph(2, [[0, 1]])
        with pytest.raises(SimulationError):
            BusNetworkSimulator(bg)

    def test_single_delivery(self, tiny_bus):
        sim = BusNetworkSimulator(tiny_bus)
        pkt = sim.inject_route([0, 1])
        sim.run()
        assert pkt.latency == 1

    def test_bus_serializes_distinct_words(self, tiny_bus):
        """One bus, two distinct values: 2 cycles (§V's 2x case)."""
        sim = BusNetworkSimulator(tiny_bus)
        a = sim.inject_route([0, 1], word=100)
        b = sim.inject_route([0, 2], word=200)
        sim.run()
        assert sorted([a.latency, b.latency]) == [1, 2]

    def test_broadcast_combines(self, tiny_bus):
        """Same word to two receivers: 1 cycle (§V's no-slowdown case)."""
        sim = BusNetworkSimulator(tiny_bus)
        a = sim.inject_route([0, 1], word=7)
        b = sim.inject_route([0, 2], word=7)
        sim.run()
        assert a.latency == b.latency == 1

    def test_no_combining_when_disabled(self, tiny_bus):
        sim = BusNetworkSimulator(tiny_bus, combine_broadcasts=False)
        a = sim.inject_route([0, 1], word=7)
        b = sim.inject_route([0, 2], word=7)
        sim.run()
        assert sorted([a.latency, b.latency]) == [1, 2]

    def test_different_buses_parallel(self, tiny_bus):
        sim = BusNetworkSimulator(tiny_bus)
        a = sim.inject_route([0, 1])
        b = sim.inject_route([1, 2])
        sim.run()
        assert a.latency == 1 and b.latency == 1

    def test_unreachable_hop_rejected(self):
        bg = BusHypergraph(3, [[0, 1], [1, 2], [0, 2]], owners=[0, 1, 2])
        sim = BusNetworkSimulator(bg)
        with pytest.raises(SimulationError):
            sim.inject_route([0, 2])  # 2 not on bus 0

    def test_multi_hop_over_buses(self):
        bg = bus_debruijn(3)
        sim = BusNetworkSimulator(bg)
        # 1 -> 2 -> 5: hops over buses owned by 1 then 2
        pkt = sim.inject_route([1, 2, 5])
        sim.run()
        assert pkt.latency == 2

    def test_disable_bus_drops(self):
        bg = bus_debruijn(3)
        sim = BusNetworkSimulator(bg)
        pkt = sim.inject_route([1, 2, 5])
        dropped = sim.disable_bus(1)
        assert dropped == 1 and pkt.dropped

    def test_disable_node_stops_reception(self):
        bg = bus_debruijn(3)
        sim = BusNetworkSimulator(bg)
        pkt = sim.inject_route([1, 2, 5])
        sim.disable_node(5)
        sim.run()
        assert pkt.dropped and pkt.delivered_at is None

    def test_inject_to_dead_rejected(self):
        bg = bus_debruijn(3)
        sim = BusNetworkSimulator(bg)
        sim.disable_node(2)
        with pytest.raises(SimulationError):
            sim.inject_route([1, 2])

    def test_run_guard(self):
        bg = bus_ft_debruijn(3, 1)
        sim = BusNetworkSimulator(bg)
        sim.inject_route([0, 1])
        with pytest.raises(SimulationError):
            sim.run(max_cycles=0)

    def test_ft_bus_routes(self):
        """Routes over B^1_{2,3} buses: node i reaches its whole block."""
        bg = bus_ft_debruijn(3, 1)
        sim = BusNetworkSimulator(bg)
        n = bg.node_count
        for i in range(n):
            for j in ((2 * i - 1) % n, (2 * i) % n, (2 * i + 1) % n, (2 * i + 2) % n):
                if i != j:
                    sim.inject_route([i, j])
        sim.run()
        st = sim.stats()
        assert st.dropped == 0 and st.delivered == st.injected

    def test_uniform_traffic_slowdown_bounded(self, rng):
        """§V under uniform random traffic: the bus machine drains the
        same shift routes as point-to-point B_{2,h} in at most a small
        constant times the cycles, and never in fewer."""
        h = 4
        pairs = uniform_traffic(1 << h, 100, rng)
        p2p = BatchEngine(debruijn(2, h))
        p2p.inject_routes(*shift_route_batch(pairs[:, 0], pairs[:, 1], 2, h))
        p2p.run()
        bus = BusNetworkSimulator(bus_debruijn(h))
        bus.inject(pairs, lambda s, d: shift_route(s, d, 2, h))
        bus.run()
        assert bus.stats().delivered == p2p.stats().delivered == 100
        assert 1.0 <= bus.stats().cycles / p2p.stats().cycles <= 4.0
