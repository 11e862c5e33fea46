"""Shared machinery for the conformance suite: routing and engine witnesses.

The conformance regime (see ``tests/conformance/``) is how routing and
engine changes become landable in this repo.  The detour baseline's one router
(a compiled survivor table per fault epoch) has to prove

1. **identical routes** — for every pair it returns exactly the route
   of the per-pair BFS witness (:func:`bfs_detour_routes`): the shortest
   survivor path whose CSR slot ranks are lexicographically smallest,
   and the same admitted pairs;
2. **validity** — every emitted route is a real survivor-graph path:
   endpoints match the requested pair, every hop is an edge, no faulty
   node appears, no node repeats;
3. **hop-optimality** — every route's length equals the survivor-graph
   BFS distance of an independent implementation;
4. **pinned outputs** — its results are frozen in golden files across
   every engine, so refactors cannot silently move them.

The shipped batch engine is held to a witness the same way: the
per-packet :class:`NetworkSimulator` (``witness_engine.py``, re-exported
here), which :func:`on_engine` swaps into any fault controller and
:func:`witness_run` runs a closed-loop spec on.

This module holds the checkers the suite's test files share, the BFS
witness, the slot witness :func:`searched_slots` and
:class:`WitnessDetourController` that routes through both,
the two reference compilers the shipped rank kernel is checked against
(the pure-dict :class:`DictGraph` and the frontier-at-a-time
:func:`compile_routing_table_frontier`), and the per-cycle drivers
:func:`per_cycle_workload` and :func:`per_cycle_stream` that fault timing
and the stream drain are checked against.  It is
imported as ``tests.conformance.harness`` (namespace package rooted at
the repo checkout, the same idiom as ``tests.conftest``).
"""

from __future__ import annotations

import numpy as np

from repro.graphs.properties import bfs_distances
from repro.graphs.static_graph import StaticGraph
from repro.routing.shortest_path import bfs_parents, extract_path
from repro.simulator.batch_engine import pack_routes
from repro.simulator.faults import DetourController
from repro.simulator.metrics import stream_summary
from tests.conformance.witness_engine import NetworkSimulator

__all__ = [
    "SIZES",
    "NetworkSimulator",
    "on_engine",
    "witness_run",
    "bfs_detour_routes",
    "searched_slots",
    "WitnessDetourController",
    "DictGraph",
    "compile_routing_table_frontier",
    "survivor_on_full_node_set",
    "iter_routes",
    "assert_valid_survivor_routes",
    "hop_histogram",
    "per_cycle_workload",
    "per_cycle_stream",
]

#: The ``(m, h)`` de Bruijn machines the detour router is checked on;
#: (5, 2) has degree-9 rows, whose slot ranks need four bit-planes.
SIZES = [(2, 3), (2, 4), (3, 3), (2, 5), (4, 3), (5, 2)]


def on_engine(ctrl, engine: str):
    """``ctrl`` running on ``engine`` and returned: ``"batch"`` keeps the
    shipped engine it was built with, ``"object"`` swaps in a fresh
    witness :class:`NetworkSimulator` over the same graph with the same
    link capacity.  Works on any fault controller,
    :class:`WitnessDetourController` included.  Call it before the
    controller's first use: the engine it replaces must hold nothing."""
    if engine == "batch":
        return ctrl
    if engine != "object":
        raise ValueError(f"unknown engine {engine!r}; use 'object' or 'batch'")
    sim = ctrl.sim
    assert sim.cycle == 0 and sim.injected == 0 and not sim.dead_nodes, (
        "swap the witness engine in before the controller's first use"
    )
    ctrl.sim = NetworkSimulator(sim.graph, sim.link_capacity)
    return ctrl


def witness_run(spec):
    """A single-replica closed-loop ``spec`` run as ``spec.run()`` runs
    it, on the witness engine: ``(controller, stats)`` after the drain,
    where ``stats`` is the :class:`~repro.simulator.metrics.ShardStats`
    (latency and hop histograms included) ``spec.run().stats`` must
    equal."""
    ctrl = on_engine(spec.build_controller(), "object")
    stats = ctrl.run_workload(spec.injection_batches(),
                              cycles_per_batch=spec.cycles_per_batch,
                              max_cycles=spec.max_cycles)
    return ctrl, stats


def bfs_detour_routes(g: StaticGraph, faults, pairs):
    """The detour witness: one BFS per (src, dst) pair in the survivor
    graph of ``g`` under ``faults``, in the route hook's
    ``(flat, offsets, kept)`` layout (original node ids).

    Each BFS scans its rows in CSR order
    (:func:`repro.routing.shortest_path.bfs_parents`), so its tree path
    is the shortest survivor path with the lexicographically smallest
    rank sequence — the route the compiled survivor table must return.
    A pair with a faulty endpoint or split by the faults is refused:
    left out of ``kept``.
    """
    fset = sorted({int(v) for v in faults})
    sub, kept_ids = g.without_nodes(np.asarray(fset, dtype=np.int64))
    pos = {int(old): i for i, old in enumerate(kept_ids)}
    routes: list[list[int]] = []
    kept: list[int] = []
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    for i, (s, d) in enumerate(pairs.tolist()):
        if s not in pos or d not in pos:
            continue
        parent = bfs_parents(sub, pos[s])
        if parent[pos[d]] == -1:
            continue
        path = extract_path(parent, pos[s], pos[d])
        routes.append([int(kept_ids[v]) for v in path])
        kept.append(i)
    flat, offsets = pack_routes(routes)
    return flat, offsets, np.asarray(kept, dtype=np.int64)


def searched_slots(g: StaticGraph, flat: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The slot witness for a route batch: each position's CSR slot as
    one ``g.directed_edge_slots`` search finds it, ``-1`` at each
    route's end — what a route hook's ``hop`` must equal."""
    hop = np.full(flat.size, -1, dtype=np.int64)
    hop[:-1] = g.directed_edge_slots(flat[:-1], flat[1:])
    hop[offsets[1:] - 1] = -1
    return hop


class WitnessDetourController(DetourController):
    """A :class:`~repro.simulator.faults.DetourController` whose route
    hook is :func:`bfs_detour_routes` instead of the survivor table, its
    slots from :func:`searched_slots`: the run a per-pair BFS router
    would produce, for whole-run comparisons."""

    def _route(self, pairs):
        flat, offsets, kept = bfs_detour_routes(self.target, self.faults, pairs)
        return flat, offsets, kept, searched_slots(self.target, flat, offsets)


class DictGraph:
    """The retained pure-dict reference the CSR core is measured against.

    A deliberately naive re-implementation of the :class:`StaticGraph`
    contract on python dicts/sets — no NumPy in any derived answer — so
    the differential suite (``test_csr_differential.py``) can assert the
    CSR planes and the bit-parallel routing compiler agree with an
    implementation too simple to share bugs with them.

    Semantics mirrored: self-loops dropped, duplicate edges merged,
    neighbor lists sorted ascending, undirected edge ids = rank of the
    ``(min, max)`` endpoint pair in lexicographic order, and routing
    parents tie-broken to the *smallest hop-optimal neighbor id* — the
    contract rule all compilers implement (see
    :meth:`repro.routing.tables.RouteTable.compile`).
    """

    def __init__(self, num_nodes: int, edges=()):
        self.n = int(num_nodes)
        self.adj: dict[int, list[int]] = {v: [] for v in range(self.n)}
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                continue
            lo, hi = (u, v) if u < v else (v, u)
            seen.add((lo, hi))
        for lo, hi in seen:
            self.adj[lo].append(hi)
            self.adj[hi].append(lo)
        for v in self.adj:
            self.adj[v].sort()
        self.edge_list = sorted(seen)
        self.edge_rank = {e: i for i, e in enumerate(self.edge_list)}

    # -- the planes the CSR core must reproduce ------------------------

    def degrees(self) -> list[int]:
        return [len(self.adj[v]) for v in range(self.n)]

    def row_offsets(self) -> list[int]:
        out = [0]
        for v in range(self.n):
            out.append(out[-1] + len(self.adj[v]))
        return out

    def col_indices(self) -> list[int]:
        return [w for v in range(self.n) for w in self.adj[v]]

    def edge_ids(self) -> list[int]:
        return [
            self.edge_rank[(v, w) if v < w else (w, v)]
            for v in range(self.n)
            for w in self.adj[v]
        ]

    # -- the routing answers the bitset compiler must reproduce --------

    def bfs_dist(self, source: int, dead: frozenset[int] = frozenset()) -> list[int]:
        """Plain FIFO BFS distances (``-1`` unreachable), ``dead`` nodes
        contribute no edges."""
        dist = [-1] * self.n
        if source in dead:
            return dist
        dist[source] = 0
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for w in self.adj[v]:
                    if dist[w] == -1 and w not in dead:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    def compile_table(self, faulty=()) -> list[list[int]]:
        """Reference next-hop table: ``table[v][d]`` is the smallest
        neighbor of ``v`` one hop closer to ``d`` (``-1`` unreachable,
        ``table[d][d] == d``; faulty diagonals forced to ``-1``).  Must
        be bit-identical to the decoded view
        :func:`repro.routing.tables.compile_routing_table` returns.
        """
        dead = frozenset(int(v) for v in faulty)
        table = [[-1] * self.n for _ in range(self.n)]
        for d in range(self.n):
            if d in dead:
                continue
            dist = self.bfs_dist(d, dead)
            for v in range(self.n):
                if dist[v] <= 0:
                    continue
                for w in self.adj[v]:  # sorted: first match = smallest
                    if w not in dead and dist[w] == dist[v] - 1:
                        table[v][d] = w
                        break
        for d in range(self.n):
            if d not in dead:
                table[d][d] = d
        return table


def compile_routing_table_frontier(g: StaticGraph) -> np.ndarray:
    """Next-hop table via one frontier-at-a-time reverse BFS per destination.

    The third witness the differential suite checks bit-for-bit against
    :func:`repro.routing.tables.compile_routing_table`.  Each BFS level
    is one vectorized gather over the CSR arrays, with the first
    occurrence in gather order claiming the parent — the frontier is
    sorted ascending, so that is the smallest hop-optimal neighbor id,
    the *same* tie-break as the bitset kernel.  Returns the decoded int64
    view: ``-1`` unreachable, ``table[d, d] == d``.
    """
    n = g.node_count
    table = np.full((n, n), -1, dtype=np.int64)
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


def survivor_on_full_node_set(g: StaticGraph, faults) -> StaticGraph:
    """The survivor graph with original node ids: all ``n`` nodes kept,
    every fault-incident edge removed (faulty nodes become isolated)."""
    fset = sorted({int(v) for v in faults})
    if not fset:
        return g
    e = g.edges()
    alive = np.ones(g.node_count, dtype=bool)
    alive[fset] = False
    sel = alive[e[:, 0]] & alive[e[:, 1]] if e.shape[0] else np.zeros(0, bool)
    return StaticGraph(g.node_count, e[sel])


def iter_routes(flat: np.ndarray, offsets: np.ndarray):
    """Yield each route of a flattened ``(flat, offsets)`` batch."""
    for i in range(offsets.size - 1):
        yield flat[int(offsets[i]): int(offsets[i + 1])]


def assert_valid_survivor_routes(
    flat: np.ndarray,
    offsets: np.ndarray,
    pairs: np.ndarray,
    target: StaticGraph,
    faults,
) -> None:
    """The conformance validity + hop-optimality oracle.

    ``pairs`` are the (src, dst) rows the routes were emitted for (the
    *kept* rows, in order).  Every route must start at its src, end at
    its dst, avoid ``faults``, repeat no node, traverse only
    survivor-graph edges, and be exactly as long as the survivor-graph
    BFS distance.  Distances come from an independent implementation
    (:func:`repro.graphs.properties.bfs_distances`), not from the router
    under test or the BFS witness.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    assert offsets.size - 1 == pairs.shape[0], "route count != kept pairs"
    fset = {int(v) for v in faults}
    survivor = survivor_on_full_node_set(target, fset)
    dist_from: dict[int, np.ndarray] = {}
    for route, (src, dst) in zip(iter_routes(flat, offsets), pairs):
        src, dst = int(src), int(dst)
        assert route.size >= 1
        assert int(route[0]) == src, f"route starts at {route[0]}, not {src}"
        assert int(route[-1]) == dst, f"route ends at {route[-1]}, not {dst}"
        assert not (set(route.tolist()) & fset), (
            f"route {route.tolist()} passes through a faulty node"
        )
        assert len(set(route.tolist())) == route.size, (
            f"route {route.tolist()} repeats a node"
        )
        if route.size > 1:
            ok = survivor.has_edges(route[:-1], route[1:])
            assert bool(ok.all()), (
                f"route {route.tolist()} uses a non-survivor edge"
            )
        if src not in dist_from:
            dist_from[src] = bfs_distances(survivor, src)
        d = int(dist_from[src][dst])
        assert d >= 0, f"pair ({src}, {dst}) admitted but disconnected"
        assert route.size - 1 == d, (
            f"route {route.tolist()} has {route.size - 1} hops, "
            f"survivor BFS distance is {d}"
        )


def hop_histogram(offsets: np.ndarray) -> dict[int, int]:
    """Multiset of per-route hop counts, as a plain dict."""
    lens = np.diff(np.asarray(offsets, dtype=np.int64)) - 1
    values, counts = np.unique(lens, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def per_cycle_workload(ctrl, batches, *, cycles_per_batch: int = 0) -> int:
    """The fault-timing witness: a controller's ``run_workload`` with no
    clock jumps and no bounded runs.

    Before each batch it fires the due events, then routes the batch
    through the controller's route hook and injects it with the hook's
    slots (``hop=``; the witness engine asserts they equal its search).
    It then calls ``step()`` and ``fire_due_events()`` once per cycle
    until the batch drains.  The idle gap of ``cycles_per_batch`` cycles
    before each later batch is stepped the same way, one cycle at a
    time.  Records, logs and ``lost_to_faults`` land on ``ctrl``.
    Returns the number of refused pairs, the count ``run_workload``
    charges to ``unreachable_pairs``.
    """
    sim = ctrl.sim
    refused = 0
    for i, batch in enumerate(batches):
        for _ in range(cycles_per_batch if i else 0):
            sim.step()
            ctrl.fire_due_events()
        ctrl.fire_due_events()
        pairs = np.asarray(batch, dtype=np.int64).reshape(-1, 2)
        flat, offsets, kept, hop = ctrl._route(pairs)
        refused += pairs.shape[0] - kept.size
        sim.inject_routes(flat, offsets, hop=hop)
        while sim.in_flight:
            sim.step()
            ctrl.fire_due_events()
    ctrl.fire_due_events()
    return refused


def per_cycle_stream(ctrl, source, cycles: int, *, warmup: int = 0,
                     window: int = 0):
    """The open-loop witness: a controller's ``run_stream`` one cycle at
    a time, with no timed injections and no bounded runs.

    At each cycle of the horizon it fires the due events, routes that
    cycle's arrivals through the controller's route hook, injects them
    with the hook's slots and without ``at=``, and calls ``step()``
    once: the reference order (fire, inject, step).  Refused pairs are
    charged to ``ctrl.unreachable_pairs`` and counted as unadmitted, as
    ``run_stream`` does; records and logs land on ``ctrl``.  Returns the
    run's :class:`~repro.simulator.metrics.StreamStats`.
    """
    sim = ctrl.sim
    t0 = int(sim.cycle)
    rel_times, pairs = source.schedule(int(cycles))
    bounds = np.searchsorted(rel_times, np.arange(int(cycles) + 1))
    refused: list[int] = []
    for c in range(int(cycles)):
        ctrl.fire_due_events()  # the clock is t0 + c: step() moves it one cycle
        lo, hi = int(bounds[c]), int(bounds[c + 1])
        flat, offsets, kept, hop = ctrl._route(pairs[lo:hi])
        lost = hi - lo - kept.size
        ctrl.unreachable_pairs += lost
        refused += [t0 + c] * lost
        sim.inject_routes(flat, offsets, hop=hop)
        sim.step()
    return stream_summary(
        sim.packet_records(), start=t0, cycles=cycles, warmup=warmup,
        window=window, unadmitted_times=np.array(refused, dtype=np.int64),
    )
