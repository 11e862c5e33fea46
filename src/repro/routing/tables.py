"""Compiled next-hop routing tables.

A routing table is an ``(n, n)`` int array: ``table[v, d]`` is the
neighbor ``v`` forwards to for destination ``d`` (``table[d, d] = d``;
``-1`` marks unreachable pairs).  Tables are compiled from per-destination
BFS trees, so the distributed forwarding they encode is hop-optimal; the
simulator executes them directly.

:class:`RouteTable` wraps the array as a *pickle-safe* batch artifact:
compile once in the parent process, ship it to shard workers (it is pure
NumPy data, so it pickles compactly by value), and extract whole route
batches vectorized with :meth:`RouteTable.routes_batch` — the format the
simulation engines inject directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RoutingError
from repro.graphs.bitset import (
    NO_PARENT,
    hop_parent_table,
    mask_nodes_csr,
)
from repro.graphs.static_graph import StaticGraph

__all__ = [
    "UNREACHABLE",
    "RouteTable",
    "compile_routing_table",
    "compile_routing_table_frontier",
    "table_reachable",
    "table_routes_batch",
    "table_routes_batch_masked",
    "validate_routing_table",
    "table_path",
]

#: Next-hop sentinel for pairs the compiled graph cannot connect.  A
#: table compiled from a disconnected survivor graph is still well
#: defined: every entry is either a real neighbor or exactly this value,
#: and the batch extractors either raise (:func:`table_routes_batch`) or
#: skip-and-report (:func:`table_routes_batch_masked`) — never follow it.
#: Numerically the same sentinel the bitset kernel emits, so its output
#: is adopted as a routing table without translation.
UNREACHABLE = NO_PARENT


def compile_routing_table(g: StaticGraph, *, faulty=None) -> np.ndarray:
    """All-pairs next-hop table via the bit-parallel CSR kernel.

    For destination ``d``, the BFS parent of ``v`` in the tree rooted at
    ``d`` *is* the hop-optimal next hop (the graph is undirected), and
    :func:`repro.graphs.bitset.hop_parent_table` computes every tree at
    once: one reach-bitset sweep per level covers all ``n`` destinations,
    64 per machine word, instead of ``n`` separate BFS runs.

    ``faulty`` (optional iterable of node ids) compiles the *survivor*
    table directly: every fault-incident edge is masked out of the CSR
    stream (:func:`repro.graphs.bitset.mask_nodes_csr` — pure array
    slicing, no graph rebuild), all ``n`` rows are kept so no id
    remapping is needed downstream, and each faulty node's diagonal is
    forced to :data:`UNREACHABLE` so a dead endpoint never admits even
    the trivial self-route.

    Parent tie-breaking: the smallest hop-optimal neighbor id (lowest
    CSR rank) — the same rule as :func:`compile_routing_table_frontier`
    and the dict reference in the conformance harness, so all three are
    bit-identical; equal-length *paths* may still differ from the scalar
    discovery-order BFS in
    :func:`~repro.routing.shortest_path.bfs_parents`, which is why the
    conformance suite (``tests/conformance/``) pins hop-count + validity
    equivalence against that oracle and exact equality among compilers.
    """
    n = g.node_count
    indptr, indices = g.row_offsets, g.col_indices
    dead = None
    if faulty is not None:
        dead = np.unique(np.fromiter((int(v) for v in faulty), dtype=np.int64))
        if dead.size and (dead[0] < 0 or dead[-1] >= n):
            bad = dead[0] if dead[0] < 0 else dead[-1]
            raise RoutingError(f"fault node {bad} out of range [0, {n})")
        if dead.size:
            alive = np.ones(n, dtype=bool)
            alive[dead] = False
            indptr, indices = mask_nodes_csr(n, indptr, indices, alive)
    table = hop_parent_table(n, indptr, indices)
    if dead is not None and dead.size:
        table[dead, dead] = UNREACHABLE  # no self-route to a dead endpoint
    return table


def compile_routing_table_frontier(g: StaticGraph) -> np.ndarray:
    """Next-hop table via one frontier-at-a-time reverse BFS per destination.

    The retained per-destination compiler: each BFS level is one
    vectorized gather over the CSR arrays (the
    :meth:`~repro.graphs.static_graph.StaticGraph.neighbors_batch`
    idiom), with the first occurrence in gather order claiming the
    parent — the frontier is sorted ascending, so that is the smallest
    hop-optimal neighbor id, the *same* tie-break as the bitset kernel.
    Kept as the bench reference (``driver="compile"``) and as the
    independently-derived second witness the differential suite checks
    bit-for-bit against :func:`compile_routing_table`.
    """
    n = g.node_count
    table = np.full((n, n), UNREACHABLE, dtype=np.int64)
    indptr, indices = g.row_offsets, g.col_indices
    deg = np.diff(indptr)
    for d in range(n):
        parent = np.full(n, -1, dtype=np.int64)
        parent[d] = d
        frontier = np.array([d], dtype=np.int64)
        while frontier.size:
            counts = deg[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            # gather every frontier node's neighbor slice in one shot:
            # base[i] repeats the slice start, inner[i] counts 0..c-1
            # within each slice
            starts = indptr[frontier]
            base = np.repeat(starts, counts)
            ends = np.cumsum(counts)
            inner = np.arange(total, dtype=np.int64) - np.repeat(
                ends - counts, counts
            )
            nbrs = indices[base + inner]
            owners = np.repeat(frontier, counts)
            fresh = parent[nbrs] == -1
            if not fresh.any():
                break
            nbrs, owners = nbrs[fresh], owners[fresh]
            # first occurrence in gather order claims the parent
            frontier, first = np.unique(nbrs, return_index=True)
            parent[frontier] = owners[first]
        reachable = parent >= 0
        table[reachable, d] = parent[reachable]
        table[d, d] = d
    return table


def table_reachable(
    table: np.ndarray, srcs: np.ndarray, dsts: np.ndarray
) -> np.ndarray:
    """Boolean mask: which (src, dst) pairs the table can route.

    A pair is routable exactly when its entry is not the
    :data:`UNREACHABLE` sentinel — BFS-compiled tables mark every
    disconnected pair that way, so one gather answers the whole batch.
    ``src == dst`` reads the diagonal: a live node self-routes
    (``table[v, v] = v``), while survivor tables
    (:func:`repro.routing.fault_routing.survivor_route_table`) mark
    faulty nodes' diagonals unreachable so a dead endpoint never admits
    even the trivial route.
    """
    srcs = np.asarray(srcs, dtype=np.int64).ravel()
    dsts = np.asarray(dsts, dtype=np.int64).ravel()
    if srcs.shape != dsts.shape:
        raise RoutingError("srcs and dsts must have equal shape")
    n = table.shape[0]
    if srcs.size == 0:
        return np.zeros(0, dtype=bool)
    if srcs.min() < 0 or dsts.min() < 0 or srcs.max() >= n or dsts.max() >= n:
        raise RoutingError("endpoint out of range for the routing table")
    return table[srcs, dsts] != UNREACHABLE


def table_routes_batch(
    table: np.ndarray, srcs: np.ndarray, dsts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Follow a next-hop table for a whole batch of pairs at once.

    Returns ``(flat, offsets)`` in the engines' shared injection layout
    (packet ``i``'s route is ``flat[offsets[i]:offsets[i + 1]]``).  The
    follow is vectorized over the batch: one gather per hop level, so the
    work is O(batch x diameter) NumPy ops instead of a Python loop per
    pair.  Raises :class:`RoutingError` on the first unreachable pair.
    """
    srcs = np.asarray(srcs, dtype=np.int64).ravel()
    dsts = np.asarray(dsts, dtype=np.int64).ravel()
    if srcs.shape != dsts.shape:
        raise RoutingError("srcs and dsts must have equal shape")
    n = table.shape[0]
    count = srcs.size
    if count == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    if srcs.min() < 0 or dsts.min() < 0 or srcs.max() >= n or dsts.max() >= n:
        raise RoutingError("endpoint out of range for the routing table")
    levels = [srcs.copy()]
    cur = srcs.copy()
    active = cur != dsts
    for _ in range(n):
        if not active.any():
            break
        nxt = cur.copy()
        step = table[cur[active], dsts[active]]
        if (step < 0).any():
            i = int(np.flatnonzero(active)[np.flatnonzero(step < 0)[0]])
            raise RoutingError(f"no route from {srcs[i]} to {dsts[i]}")
        nxt[active] = step
        levels.append(nxt)
        cur = nxt
        active = active & (cur != dsts)
    else:  # pragma: no cover - validate_routing_table guards against loops
        i = int(np.flatnonzero(active)[0])
        raise RoutingError(f"routing loop from {srcs[i]} toward {dsts[i]}")
    # per-packet route length = 1 + first level where the walk hit dst
    stack = np.stack(levels)                       # (depth + 1, count)
    hit = stack == dsts[np.newaxis, :]
    lens = np.argmax(hit, axis=0) + 1              # first hit level, 1-based
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    keep = np.arange(stack.shape[0])[:, np.newaxis] < lens[np.newaxis, :]
    flat = stack.T[keep.T]                         # row-major: packet-contiguous
    return flat.astype(np.int64, copy=False), offsets


def table_routes_batch_masked(
    table: np.ndarray, srcs: np.ndarray, dsts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Like :func:`table_routes_batch`, but unreachable pairs are skipped
    instead of raising.

    Returns ``(flat, offsets, kept)``: routes for the reachable pairs in
    the engines' shared layout plus the (sorted) indices of the input
    pairs that were routable — the same contract
    :meth:`repro.simulator.faults.DetourController.detour_routes_batch`
    exposes, so callers can charge the dropped pairs to their
    offered-but-unadmitted accounting.
    """
    srcs = np.asarray(srcs, dtype=np.int64).ravel()
    dsts = np.asarray(dsts, dtype=np.int64).ravel()
    ok = table_reachable(table, srcs, dsts)
    kept = np.flatnonzero(ok).astype(np.int64)
    flat, offsets = table_routes_batch(table, srcs[kept], dsts[kept])
    return flat, offsets, kept


@dataclass(frozen=True, eq=False)
class RouteTable:
    """A compiled next-hop table as a pickle-safe batch-routing artifact.

    Holds nothing but the dense ``(n, n)`` int64 array, so it crosses
    process boundaries by value (no graph object, no closures) — compile
    once per fault epoch in the driver process, hand it to every shard
    worker.  ``table_path``/``table_routes_batch`` semantics apply.

    >>> from repro.graphs.static_graph import StaticGraph
    >>> rt = RouteTable.compile(StaticGraph(3, [(0, 1), (1, 2)]))
    >>> rt.route(0, 2)
    [0, 1, 2]
    """

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.int64)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise RoutingError(f"route table must be square, got {t.shape}")
        object.__setattr__(self, "table", t)

    def __eq__(self, other: object) -> bool:
        # the generated dataclass __eq__ would raise on ndarray fields
        if not isinstance(other, RouteTable):
            return NotImplemented
        return np.array_equal(self.table, other.table)

    @classmethod
    def compile(cls, g: StaticGraph) -> "RouteTable":
        """Compile from per-destination BFS trees (hop-optimal)."""
        return cls(compile_routing_table(g))

    @property
    def node_count(self) -> int:
        """Nodes the table routes over (its square dimension)."""
        return int(self.table.shape[0])

    def route(self, src: int, dst: int) -> list[int]:
        """Single-pair route (convenience wrapper over the batch path)."""
        return table_path(self.table, src, dst)

    def routes_batch(
        self, srcs: np.ndarray, dsts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized batch extraction — see :func:`table_routes_batch`."""
        return table_routes_batch(self.table, srcs, dsts)

    def reachable(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """Which pairs this table can route — see :func:`table_reachable`."""
        return table_reachable(self.table, srcs, dsts)

    def routes_batch_masked(
        self, srcs: np.ndarray, dsts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Skip-and-report batch extraction — see
        :func:`table_routes_batch_masked`."""
        return table_routes_batch_masked(self.table, srcs, dsts)


def table_path(table: np.ndarray, source: int, dest: int) -> list[int]:
    """Follow a routing table from ``source`` to ``dest``."""
    n = table.shape[0]
    path = [int(source)]
    cur = int(source)
    for _ in range(n + 1):
        if cur == dest:
            return path
        nxt = int(table[cur, dest])
        if nxt < 0:
            raise RoutingError(f"no route from {source} to {dest}")
        cur = nxt
        path.append(cur)
    raise RoutingError(f"routing loop from {source} toward {dest}")


def validate_routing_table(g: StaticGraph, table: np.ndarray) -> bool:
    """Every table entry must be a real neighbor and every route must
    terminate within ``n`` hops.  Used as a post-compilation invariant and
    by tests as an independent check."""
    n = g.node_count
    if table.shape != (n, n):
        raise RoutingError(f"table shape {table.shape} != ({n}, {n})")
    for v in range(n):
        for d in range(n):
            nh = int(table[v, d])
            if nh == -1 or v == d:
                continue
            if nh != d and not g.has_edge(v, nh) or (nh == d and not g.has_edge(v, d)):
                if not g.has_edge(v, nh):
                    return False
    # spot-terminating: follow a sample of routes
    rngish = range(0, n, max(1, n // 8))
    for s in rngish:
        for d in rngish:
            if table[s, d] >= 0:
                table_path(table, s, d)
    return True
