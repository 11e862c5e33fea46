"""Structural graph property computations.

Vectorized BFS-based analyses used across tests, benches and the analysis
layer: connectivity, distances, diameter, and degree statistics.  These run
on :class:`~repro.graphs.static_graph.StaticGraph` without touching
networkx (the test suite's bridge, ``tests/nx_bridge.py``, cross-validates
them against networkx).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphFormatError
from repro.graphs.bitset import all_pairs_distances
from repro.graphs.static_graph import StaticGraph

__all__ = [
    "bfs_distances",
    "distance_matrix",
    "is_connected",
    "connected_components",
    "diameter",
    "average_distance",
    "DegreeStats",
    "degree_stats",
    "node_connectivity_lower_bound",
]


def bfs_distances(g: StaticGraph, source: int) -> np.ndarray:
    """Hop distances from ``source`` to every node (``-1`` if unreachable).

    Frontier-at-a-time BFS over the CSR arrays; each level is one vectorized
    gather, which keeps memory traffic contiguous.
    """
    n = g.node_count
    if not 0 <= source < n:
        raise GraphFormatError(f"source {source} out of range [0, {n})")
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while frontier.size:
        d += 1
        # Gather all neighbors of the frontier in one shot.
        out, _ = g.neighbors_batch(frontier)
        out = out[dist[out] == -1]
        if out.size == 0:
            break
        frontier = np.unique(out)
        dist[frontier] = d
    return dist


def distance_matrix(g: StaticGraph) -> np.ndarray:
    """All-pairs hop distances (``n x n``, ``-1`` for unreachable pairs).

    Computed by the bit-parallel reach kernel
    (:func:`repro.graphs.bitset.all_pairs_distances`): one level sweep
    covers all sources at once, 64 per machine word, instead of ``n``
    independent BFS runs."""
    return all_pairs_distances(g.node_count, g.row_offsets, g.col_indices)


def connected_components(g: StaticGraph) -> np.ndarray:
    """Component label per node (labels are 0-based, in discovery order)."""
    n = g.node_count
    comp = np.full(n, -1, dtype=np.int64)
    label = 0
    for s in range(n):
        if comp[s] != -1:
            continue
        reach = bfs_distances(g, s) >= 0
        comp[reach] = label
        label += 1
    return comp


def is_connected(g: StaticGraph) -> bool:
    """Whether the graph is connected (the empty graph counts as connected)."""
    if g.node_count <= 1:
        return True
    return bool((bfs_distances(g, 0) >= 0).all())


def diameter(g: StaticGraph) -> int:
    """Graph diameter; raises if disconnected.

    De Bruijn graphs famously have diameter exactly ``h`` — tested in the
    suite as a structural sanity check.
    """
    if g.node_count == 0:
        return 0
    best = 0
    for s in range(g.node_count):
        d = bfs_distances(g, s)
        if (d < 0).any():
            raise GraphFormatError("diameter: graph is disconnected")
        best = max(best, int(d.max()))
    return best


def average_distance(g: StaticGraph) -> float:
    """Mean hop distance over ordered pairs of distinct nodes."""
    n = g.node_count
    if n < 2:
        return 0.0
    total = 0
    for s in range(n):
        d = bfs_distances(g, s)
        if (d < 0).any():
            raise GraphFormatError("average_distance: graph is disconnected")
        total += int(d.sum())
    return total / (n * (n - 1))


@dataclass(frozen=True)
class DegreeStats:
    """Summary of a degree sequence."""

    minimum: int
    maximum: int
    mean: float
    histogram: dict[int, int]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"deg[min={self.minimum}, max={self.maximum}, mean={self.mean:.3f}]"
        )


def degree_stats(g: StaticGraph) -> DegreeStats:
    """Min/max/mean degree plus a full histogram."""
    if g.node_count == 0:
        return DegreeStats(0, 0, 0.0, {})
    degs = g.degrees()
    vals, counts = np.unique(degs, return_counts=True)
    return DegreeStats(
        minimum=int(degs.min()),
        maximum=int(degs.max()),
        mean=float(degs.mean()),
        histogram={int(v): int(c) for v, c in zip(vals, counts)},
    )


def node_connectivity_lower_bound(g: StaticGraph, trials: int, rng: np.random.Generator) -> int:
    """Empirical lower bound on node connectivity by random-fault probing.

    Removes random sets of increasing size and reports the largest ``f``
    such that no sampled ``f``-subset disconnected the graph.  This is the
    Esfahanian–Hakimi-style question ("how many faults until disconnection")
    answered experimentally; the test suite checks exact connectivity for
    small graphs through its networkx bridge.
    """
    n = g.node_count
    if n <= 2:
        return 0
    max_try = min(n - 2, g.max_degree())
    survived = 0
    for f in range(1, max_try + 1):
        ok = True
        for _ in range(trials):
            faults = rng.choice(n, size=f, replace=False)
            h, _ = g.without_nodes(faults)
            if h.node_count and not is_connected(h):
                ok = False
                break
        if not ok:
            break
        survived = f
    return survived
