"""Edge-case tests hardening the simulators beyond the happy paths."""

from __future__ import annotations

import pytest

from repro.graphs import BusHypergraph, StaticGraph, path
from repro.simulator import BatchEngine, BusNetworkSimulator, summarize
from repro.simulator.packets import Packet
from tests.conformance.harness import NetworkSimulator


class TestBusEdgeCases:
    def test_ownerless_midpoint_strands_packet(self):
        """With validate=False, a route through a node that owns no bus
        drops the packet instead of crashing the simulator."""
        bg = BusHypergraph(3, [[0, 1, 2]], owners=[0])  # only node 0 owns
        sim = BusNetworkSimulator(bg)
        pkt = sim.inject_route([0, 1, 2], validate=False)
        sim.run()
        assert pkt.dropped and pkt.delivered_at is None

    def test_validate_catches_ownerless_transmitter(self):
        bg = BusHypergraph(3, [[0, 1, 2]], owners=[0])
        sim = BusNetworkSimulator(bg)
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            sim.inject_route([1, 2])

    def test_broadcast_combining_respects_word_boundaries(self):
        """Interleaved words on one bus: combining never crosses a word
        change at the head of the queue."""
        bg = BusHypergraph(4, [[0, 1, 2, 3]] * 1, owners=[0])
        sim = BusNetworkSimulator(bg)
        a = sim.inject_route([0, 1], word=1)
        b = sim.inject_route([0, 2], word=2)  # different word: separate cycle
        c = sim.inject_route([0, 3], word=2)  # combines with b only
        sim.run()
        assert a.latency == 1
        assert b.latency == c.latency == 2

    def test_combining_only_same_transmitter(self):
        """Equal words from different transmitters never share a cycle."""
        bg = BusHypergraph(3, [[0, 1, 2]], owners=[1])
        sim = BusNetworkSimulator(bg)
        a = sim.inject_route([1, 0], word=9)
        b = sim.inject_route([1, 2], word=9)
        sim.run()
        assert a.latency == b.latency == 1  # same transmitter: combines
        bg2 = BusHypergraph(3, [[0, 1, 2], [0, 1, 2]], owners=[0, 1])
        sim2 = BusNetworkSimulator(bg2)
        x = sim2.inject_route([0, 2], word=9)
        y = sim2.inject_route([1, 2], word=9)
        sim2.run()
        assert x.latency == 1 and y.latency == 1  # different buses anyway


@pytest.mark.parametrize("engine", [BatchEngine, NetworkSimulator],
                         ids=["batch", "object"])
class TestNetworkEdgeCases:
    def test_zero_length_route_counts_delivered(self, engine):
        sim = engine(path(2))
        sim.inject_route([0])
        st = sim.stats()
        assert st.delivered == 1 and st.mean_latency == 0.0

    def test_stats_while_in_flight(self, engine):
        sim = engine(path(3))
        sim.inject_route([0, 1, 2])
        sim.step()
        st = sim.stats()
        assert st.injected == 1 and st.delivered == 0
        assert sim.in_flight == 1

    def test_run_on_empty_simulator(self, engine):
        sim = engine(path(2))
        sim.run()
        st = sim.stats()
        assert st.injected == 0 and st.cycles == 0

    def test_isolated_node_graph(self, engine):
        g = StaticGraph(3, [(0, 1)])
        sim = engine(g)
        sim.inject_route([2])
        records = sim.packet_records()
        assert records.delivered_at.tolist() == records.injected_at.tolist() == [0]


class TestStatsRendering:
    def test_runstats_str(self):
        p = Packet(0, [0, 1], 0, delivered_at=3)
        st = summarize([p], 5)
        text = str(st)
        assert "delivered=1/1" in text and "cycles=5" in text

    def test_runstats_equality(self):
        p = Packet(0, [0, 1], 0, delivered_at=3)
        assert summarize([p], 5) == summarize([p], 5)
