"""Tests for the event queue, packets, and the point-to-point engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import debruijn
from repro.errors import SimulationError
from repro.graphs import StaticGraph, cycle, path
from repro.routing import RouteTable
from repro.simulator import BatchEngine, EventQueue, Packet
from tests.conformance.harness import NetworkSimulator


class TestEventQueue:
    def test_ordering(self):
        q = EventQueue()
        q.schedule(5, "a")
        q.schedule(2, "b")
        q.schedule(5, "c")
        seen = []
        q.run_handlers(10, dict.fromkeys("abc", seen.append))
        assert [e.kind for e in seen] == ["b", "a", "c"]  # stable within cycle

    def test_drain_partial(self):
        q = EventQueue()
        q.schedule(1, "x")
        q.schedule(9, "y")
        seen = []
        assert q.run_handlers(5, dict.fromkeys("xy", seen.append)) == 1
        assert [e.kind for e in seen] == ["x"]
        assert len(q) == 1
        assert q.peek_cycle() == 9

    def test_past_scheduling_rejected(self):
        q = EventQueue()
        q.run_handlers(10, {})
        with pytest.raises(SimulationError):
            q.schedule(5, "late")

    def test_backwards_drain_rejected(self):
        q = EventQueue()
        q.run_handlers(10, {})
        with pytest.raises(SimulationError):
            q.run_handlers(3, {})

    def test_run_handlers(self):
        q = EventQueue()
        seen = []
        q.schedule(1, "f", 42)
        n = q.run_handlers(5, {"f": lambda ev: seen.append(ev.payload)})
        assert n == 1 and seen == [42]

    def test_unknown_kind(self):
        q = EventQueue()
        q.schedule(1, "weird")
        with pytest.raises(SimulationError):
            q.run_handlers(5, {})

    def test_unknown_kind_keeps_event(self):
        """A failed dispatch must not lose the event nor half-drain the
        queue: peek-then-pop leaves everything in place for a retry."""
        q = EventQueue()
        q.schedule(1, "weird", payload="precious")
        q.schedule(2, "also-queued")
        with pytest.raises(SimulationError):
            q.run_handlers(5, {"also-queued": lambda ev: None})
        assert len(q) == 2  # nothing was popped
        seen = []
        handlers = {"weird": lambda ev: seen.append(ev.payload),
                    "also-queued": lambda ev: None}
        assert q.run_handlers(5, handlers) == 2  # retry succeeds in order
        assert seen == ["precious"]


class TestPacket:
    def test_properties(self):
        p = Packet(0, [3, 4, 5], injected_at=2)
        assert p.src == 3 and p.dst == 5 and p.hops == 2
        assert p.latency is None
        p.delivered_at = 7
        assert p.latency == 5


def _latencies(sim) -> list[int]:
    """Per-packet latency in pid order, through the shared records."""
    r = sim.packet_records()
    return (r.delivered_at - r.injected_at).tolist()


@pytest.mark.parametrize("engine", [BatchEngine, NetworkSimulator],
                         ids=["batch", "object"])
class TestPointToPointEngine:
    """The link model's unit behaviour, on the shipped batch engine and
    on the per-packet witness engine."""

    def test_single_hop_delivery(self, engine):
        sim = engine(path(2))
        sim.inject_route([0, 1])
        sim.run()
        assert _latencies(sim) == [1]
        assert sim.stats().delivered == 1

    def test_multi_hop_latency(self, engine):
        sim = engine(path(5))
        sim.inject_route([0, 1, 2, 3, 4])
        sim.run()
        assert _latencies(sim) == [4]  # one cycle per link, no contention

    def test_contention_serializes(self, engine):
        """Two packets over the same link need two cycles."""
        sim = engine(path(2))
        sim.inject_route([0, 1])
        sim.inject_route([0, 1])
        sim.run()
        assert sorted(_latencies(sim)) == [1, 2]

    def test_link_capacity(self, engine):
        sim = engine(path(2), link_capacity=2)
        sim.inject_route([0, 1])
        sim.inject_route([0, 1])
        sim.run()
        assert _latencies(sim) == [1, 1]

    def test_distinct_links_parallel(self, engine):
        """A node may transmit on all its links in one cycle."""
        sim = engine(StaticGraph(3, [(0, 1), (0, 2)]))
        sim.inject_route([0, 1])
        sim.inject_route([0, 2])
        sim.run()
        assert _latencies(sim) == [1, 1]

    def test_invalid_route_rejected(self, engine):
        sim = engine(path(3))
        with pytest.raises(SimulationError):
            sim.inject_route([0, 2])

    def test_empty_route_rejected(self, engine):
        sim = engine(path(2))
        with pytest.raises(SimulationError):
            sim.inject_route([])

    def test_self_delivery(self, engine):
        sim = engine(path(2))
        sim.inject_route([1])
        assert _latencies(sim) == [0]
        assert sim.in_flight == 0

    def test_capacity_validation(self, engine):
        with pytest.raises(SimulationError):
            engine(path(2), link_capacity=0)

    def test_disable_node_drops_in_flight(self, engine):
        sim = engine(path(4))
        sim.inject_route([0, 1, 2, 3])
        sim.step()
        assert sim.disable_node(2) == 1
        assert sim.packet_records().dropped.tolist() == [True]

    def test_inject_into_dead_node_rejected(self, engine):
        sim = engine(path(3))
        sim.disable_node(1)
        with pytest.raises(SimulationError):
            sim.inject_route([0, 1, 2])

    def test_run_guard(self, engine):
        sim = engine(cycle(4))
        sim.inject_route([0, 1, 2])
        with pytest.raises(SimulationError):
            sim.run(max_cycles=0)

    def test_determinism(self, engine, rng):
        """Identical inputs give identical stats."""
        g = debruijn(2, 4)
        pairs = np.column_stack([rng.integers(0, 16, 50), rng.integers(0, 16, 50)])
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        routes = RouteTable.compile(g).routes_batch(pairs[:, 0], pairs[:, 1])
        runs = []
        for _ in range(2):
            sim = engine(g)
            sim.inject_routes(*routes)
            sim.run()
            runs.append(sim.stats())
        assert runs[0] == runs[1]

    def test_stats_fields(self, engine):
        sim = engine(path(3))
        sim.inject_route([0, 1, 2])
        sim.inject_route([0, 1])
        sim.run()
        st = sim.stats()
        assert st.injected == 2 and st.delivered == 2 and st.dropped == 0
        assert st.max_latency >= st.mean_latency > 0
        assert st.throughput > 0
