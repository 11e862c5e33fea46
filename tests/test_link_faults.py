"""Tests for simulator link faults + the §I edge-fault pipeline end-to-end."""

from __future__ import annotations

import pytest

from repro.core import debruijn, ft_debruijn, reconfigure_with_edge_faults
from repro.errors import SimulationError
from repro.graphs import path
from repro.routing.shift_register import shift_route
from repro.simulator import NetworkSimulator


class TestLinkFaults:
    def test_disable_link_drops_queued(self):
        g = path(4)
        sim = NetworkSimulator(g)
        pkt = sim.inject_route([0, 1, 2, 3])
        dropped = sim.disable_link(0, 1)
        assert dropped == 1 and pkt.dropped

    def test_disable_link_is_undirected(self):
        g = path(3)
        sim = NetworkSimulator(g)
        sim.disable_link(1, 0)
        with pytest.raises(SimulationError):
            sim.inject_route([0, 1, 2])
        with pytest.raises(SimulationError):
            sim.inject_route([2, 1, 0])

    def test_packet_dropped_at_dead_link_mid_route(self):
        g = path(4)
        sim = NetworkSimulator(g)
        pkt = sim.inject_route([0, 1, 2, 3])
        sim.step()  # 0 -> 1 traversal queued/moved
        sim.disable_link(2, 3)
        sim.run()
        assert pkt.dropped and pkt.delivered_at is None

    def test_disable_link_requires_real_edge(self):
        """Typo'd fault scenarios must fail loudly, not pass untested."""
        sim = NetworkSimulator(path(3))
        with pytest.raises(SimulationError):
            sim.disable_link(0, 2)  # nodes exist, edge does not
        with pytest.raises(SimulationError):
            sim.disable_link(0, 7)  # endpoint out of range

    def test_disable_node_requires_real_node(self):
        sim = NetworkSimulator(path(3))
        with pytest.raises(SimulationError):
            sim.disable_node(3)
        with pytest.raises(SimulationError):
            sim.disable_node(-1)

    def test_other_links_unaffected(self):
        g = path(4)
        sim = NetworkSimulator(g)
        sim.disable_link(2, 3)
        pkt = sim.inject_route([0, 1, 2])
        sim.run()
        assert pkt.latency == 2


class TestEdgeFaultPipelineEndToEnd:
    def test_reconfigure_then_simulate(self):
        """Full §I edge-fault story: a link dies in B^k, the cover node is
        retired, and all traffic flows on the reconfigured machine without
        ever touching the dead link."""
        h, k = 4, 1
        ft = ft_debruijn(2, h, k)
        target = debruijn(2, h)
        dead = (3, 7)
        assert ft.has_edge(*dead)
        phi, eff = reconfigure_with_edge_faults(ft, target.node_count, [dead])

        sim = NetworkSimulator(ft)
        sim.disable_link(*dead)
        n = target.node_count
        for s in range(n):
            for d in (1, 9, 14):
                if s == d:
                    continue
                logical = shift_route(s, d, 2, h)
                sim.inject_route([int(phi[v]) for v in logical])
        sim.run()
        stats = sim.stats()
        assert stats.dropped == 0
        assert stats.delivered == stats.injected
