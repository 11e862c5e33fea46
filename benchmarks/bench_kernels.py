"""Micro-benchmarks of the substrate kernels (not tied to one figure).

These quantify the costs everything else is built on: CSR construction,
batch edge queries, reconfiguration remaps, routing-table compilation,
and simulator throughput.  Regressions here would silently inflate every
experiment, so they are tracked explicitly.
"""

from __future__ import annotations


from repro.core import debruijn, ft_debruijn, rank_remap
from repro.graphs import StaticGraph
from repro.routing import RouteTable, shift_route, shift_route_batch
from repro.simulator import BatchEngine, uniform_traffic


def test_kernel_csr_construction(benchmark, rng):
    edges = rng.integers(0, 4096, size=(40_000, 2))
    g = benchmark(StaticGraph, 4096, edges)
    assert g.node_count == 4096


def test_kernel_batch_edge_queries(benchmark, rng):
    g = debruijn(2, 12)
    us = rng.integers(0, 4096, size=10_000)
    vs = rng.integers(0, 4096, size=10_000)
    out = benchmark(g.has_edges, us, vs)
    assert out.shape == (10_000,)


def test_kernel_induced_subgraph(benchmark, rng):
    g = ft_debruijn(2, 12, 8)
    keep = rng.choice(g.node_count, size=4096, replace=False)
    h, kept = benchmark(g.induced_subgraph, keep)
    assert h.node_count == 4096


def test_kernel_rank_remap(benchmark, rng):
    faults = rng.choice(2**14 + 16, size=16, replace=False)
    phi = benchmark(rank_remap, 2**14 + 16, faults, 2**14)
    assert phi.shape == (2**14,)


def test_kernel_routing_table(benchmark):
    g = debruijn(2, 8)
    rt = benchmark(RouteTable.compile, g)
    assert rt.table.shape == (256, 256)


def test_kernel_shift_route(benchmark):
    r = benchmark(shift_route, 123, 987, 2, 10)
    assert r[-1] == 987


def test_kernel_simulator_throughput(benchmark, rng):
    g = debruijn(2, 8)
    pairs = uniform_traffic(256, 1000, rng)

    def run():
        sim = BatchEngine(g)
        sim.inject_routes(*shift_route_batch(pairs[:, 0], pairs[:, 1], 2, 8))
        sim.run()
        return sim.stats()

    stats = benchmark(run)
    assert stats.delivered == 1000
