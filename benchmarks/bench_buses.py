"""Benches BUSDEG/BUSSLOW: the Section V bus claims.

BUSDEG: bus-port degree is exactly 2k+3 (vs 4k+4 point-to-point).
BUSSLOW: the slowdown from bus serialization is ≈2x when a processor
sends two distinct values per cycle and ≈1x when it broadcasts a single
value — both measured on the cycle-accurate simulators.  Both tables are
in the ``paper-figures`` report (``busdeg``, ``busslow``); these benches
time the constructions and a uniform-traffic run.
"""

from __future__ import annotations

from repro.core import bus_ft_debruijn, debruijn
from repro.core.buses import bus_debruijn
from repro.simulator import BusNetworkSimulator, NetworkSimulator, uniform_traffic
from repro.routing import shift_route

from benchmarks.conftest import once


def test_busdeg_construction_speed(benchmark):
    """BUSDEG (cost probe): bus hypergraph at h=10, k=4."""
    bg = benchmark(bus_ft_debruijn, 10, 4)
    assert bg.max_bus_degree() == 11


def test_busslow_uniform_traffic_bounded(benchmark, rng):
    """Under uniform random traffic the bus machine's completion-time
    penalty stays a small constant (paper: 'approximately a factor of 2';
    contention pushes it somewhat above on random workloads)."""
    h = 6
    n = 1 << h
    pairs = uniform_traffic(n, 400, rng)
    router = lambda s, d: shift_route(s, d, 2, h)

    def run_both():
        p2p = NetworkSimulator(debruijn(2, h))
        p2p.inject(pairs, router)
        p2p.run()
        bus = BusNetworkSimulator(bus_debruijn(h))
        bus.inject(pairs, router)
        bus.run()
        return bus.stats().completion_slowdown_vs(p2p.stats())

    slowdown = once(benchmark, run_both)
    assert 1.0 <= slowdown <= 4.0
