"""Compiled next-hop routing tables.

A :class:`RouteTable` answers, for every pair at once, which neighbor
``v`` forwards to for destination ``d``.  ``table[v, d]`` stores that
next hop as its *slot rank* in ``v``'s CSR row, decoded through the
graph's planes: the hop is ``col_indices[row_offsets[v] + table[v, d]]``.
The rank dtype is the smallest unsigned type holding every rank plus
the unreachable sentinel (its max value) — ``uint8`` on every de Bruijn
and shuffle-exchange machine, so a table costs ``n**2`` bytes.  Tables
are compiled from all-destination BFS trees in one bit-parallel sweep
(:func:`repro.graphs.bitset.hop_rank_table`), so the forwarding they
encode is hop-optimal; the simulator executes them directly.

The table is a *pickle-safe* batch artifact (pure NumPy data) that
extracts whole route batches vectorized with
:meth:`RouteTable.routes_batch` — the format the simulation engines
inject directly; :meth:`RouteTable.routes_batch_masked` adds each hop's
CSR slot, the engine's queue id.  One compile can also hold a *stack*
of survivor tables, ``(R, n, n)``, one per fault set, from one sweep;
:meth:`RouteTable.routes_batch_masked` then walks each pair through the
table its ``which`` index names, every pair of the stack in one pass.
:meth:`RouteTable.next_hops` decodes the classic ``(n, n)`` int64 view,
with :data:`UNREACHABLE` for disconnected pairs and the node itself on
the diagonal; :func:`compile_routing_table` returns that view and
:func:`validate_routing_table` checks it.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.errors import RoutingError
from repro.graphs.bitset import hop_rank_table
from repro.graphs.static_graph import StaticGraph

__all__ = [
    "UNREACHABLE",
    "RouteTable",
    "compile_routing_table",
    "validate_routing_table",
]

#: Entry of the decoded :meth:`RouteTable.next_hops` view for pairs the
#: compiled graph cannot connect (the rank table itself marks them with
#: its dtype's max value, :attr:`RouteTable.sentinel`).
UNREACHABLE = -1


def _readonly(arr: np.ndarray) -> np.ndarray:
    v = np.asarray(arr, dtype=np.int64).view()
    v.flags.writeable = False
    return v


def _alive_masks(n: int, faulty) -> np.ndarray:
    """``faulty`` as alive masks: ``(n,)`` for one fault set (an
    iterable of node ids), ``(R, n)`` for a sequence of ``R`` sets."""
    sets = list(faulty)
    stacked = any(isinstance(fs, Iterable) for fs in sets)
    alive = np.ones((len(sets) if stacked else 1, n), dtype=bool)
    for mask, fs in zip(alive, sets if stacked else [sets]):
        dead = np.fromiter((int(v) for v in fs), dtype=np.int64)
        if dead.size and (dead.min() < 0 or dead.max() >= n):
            bad = dead.min() if dead.min() < 0 else dead.max()
            raise RoutingError(f"fault node {bad} out of range [0, {n})")
        mask[dead] = False
    return alive if stacked else alive[0]


@dataclass(frozen=True, eq=False)
class RouteTable:
    """A compiled rank table as a pickle-safe batch-routing artifact.

    Holds the ``(n, n)`` rank matrix ``table`` (or an ``(R, n, n)``
    stack of them over one graph) and the read-only CSR planes
    ``row_offsets``/``col_indices`` it decodes through — no graph
    object, no closures — so it crosses process boundaries by value.
    Unreachable pairs hold :attr:`sentinel`: the batch extractors either
    raise (:meth:`routes_batch`) or skip-and-report
    (:meth:`routes_batch_masked`) on them, never follow them.

    >>> from repro.graphs.static_graph import StaticGraph
    >>> rt = RouteTable.compile(StaticGraph(3, [(0, 1), (1, 2)]))
    >>> rt.route(0, 2)
    [0, 1, 2]
    >>> rt.table.dtype
    dtype('uint8')
    """

    table: np.ndarray
    row_offsets: np.ndarray
    col_indices: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table)
        if t.ndim not in (2, 3) or t.shape[-2] != t.shape[-1]:
            raise RoutingError(
                f"route table must be square or a stack of square tables, "
                f"got {t.shape}"
            )
        if t.dtype.kind != "u":
            raise RoutingError(f"route table must hold unsigned ranks, got {t.dtype}")
        indptr = _readonly(self.row_offsets)
        if indptr.shape != (t.shape[-1] + 1,):
            raise RoutingError(
                f"row_offsets of length {indptr.size} do not fit a {t.shape} table"
            )
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "row_offsets", indptr)
        object.__setattr__(self, "col_indices", _readonly(self.col_indices))

    def __reduce__(self):
        # re-run __post_init__ on unpickle, so the planes come back read-only
        return RouteTable, (self.table, self.row_offsets, self.col_indices)

    def __eq__(self, other: object) -> bool:
        # the generated dataclass __eq__ would raise on ndarray fields
        if not isinstance(other, RouteTable):
            return NotImplemented
        return (
            np.array_equal(self.table, other.table)
            and np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.col_indices, other.col_indices)
        )

    @classmethod
    def compile(cls, g: StaticGraph, *, faulty=None) -> "RouteTable":
        """All-pairs hop-optimal table of ``g`` via the bit-parallel kernel.

        For destination ``d``, the BFS parent of ``v`` in the tree rooted
        at ``d`` *is* the hop-optimal next hop (the graph is undirected),
        and :func:`repro.graphs.bitset.hop_rank_table` computes every
        tree at once: one reach-bitset sweep per level covers all ``n``
        destinations, 64 per machine word.

        ``faulty`` (optional iterable of node ids) compiles the
        *survivor* table directly: the kernel treats every faulty node
        as absent (no seed, no edges) while all ``n`` rows are kept, so
        no id remapping is needed downstream and ranks still index
        ``g``'s rows.  A faulty node's row, column and diagonal are all
        the sentinel, so a dead endpoint never admits even the trivial
        self-route.  A sequence of ``R`` fault sets compiles their ``(R,
        n, n)`` stack from one sweep, layer ``r`` bit-identical to the
        table of ``faulty[r]`` alone.

        Parent tie-breaking: the smallest hop-optimal neighbor id (lowest
        CSR rank) — the same rule as the frontier compiler and the dict
        reference in the conformance harness, so all three are
        bit-identical.  Walking the table from ``s`` to ``d`` takes the
        lowest-rank hop one step closer at every node, so it builds the
        shortest path whose rank sequence is lexicographically smallest.
        A BFS from ``s`` that scans each row in CSR order
        (:func:`~repro.routing.shortest_path.bfs_parents`) returns that
        same path: it queues every level in that order, and a node's BFS
        parent is its first predecessor in the queue.  The conformance
        suite (``tests/conformance/``) checks the two route for route.
        """
        n = g.node_count
        alive = None if faulty is None else _alive_masks(n, faulty)
        table = hop_rank_table(n, g.row_offsets, g.col_indices, alive)
        return cls(table, g.row_offsets, g.col_indices)

    @property
    def node_count(self) -> int:
        """Nodes the table routes over (its square dimension)."""
        return int(self.table.shape[-1])

    @property
    def sentinel(self) -> int:
        """The rank marking unreachable pairs: the dtype's max value."""
        return int(np.iinfo(self.table.dtype).max)

    def next_hops(self) -> np.ndarray:
        """Decode the ``(n, n)`` int64 next-hop view: ``[v, d]`` is the
        neighbor ``v`` forwards to, ``[d, d] == d`` for a live ``d``, and
        :data:`UNREACHABLE` marks unreachable pairs (dead diagonals
        included).  This is the format the conformance witnesses emit.
        It decodes one table, not a stack."""
        if self.table.ndim != 2:
            raise RoutingError("next_hops decodes one table, not a stack")
        n = self.node_count
        hop = self.table != self.sentinel
        live = np.flatnonzero(np.diagonal(hop))
        np.fill_diagonal(hop, False)
        v, d = np.nonzero(hop)
        out = np.full((n, n), UNREACHABLE, dtype=np.int64)
        out[v, d] = self.col_indices[self.row_offsets[v] + self.table[v, d]]
        out[live, live] = live
        return out

    def _endpoints(self, srcs, dsts, which=None):
        """The checked endpoints and each pair's key: entry ``(u, d)`` of
        the table pair ``i`` walks is ``table.ravel()[u * n + key[i]]``,
        so ``key`` is ``dsts`` for one table and ``which * n**2 + dsts``
        on a stack."""
        srcs = np.asarray(srcs, dtype=np.int64).ravel()
        dsts = np.asarray(dsts, dtype=np.int64).ravel()
        if srcs.shape != dsts.shape:
            raise RoutingError("srcs and dsts must have equal shape")
        n = self.node_count
        if srcs.size and (
            min(srcs.min(), dsts.min()) < 0 or max(srcs.max(), dsts.max()) >= n
        ):
            raise RoutingError(f"endpoint out of range [0, {n}) for the routing table")
        if which is None:
            if self.table.ndim == 3:
                raise RoutingError("a stack of tables needs each pair's table index")
            return srcs, dsts, dsts
        which = np.asarray(which, dtype=np.int64).ravel()
        stack = self.table.shape[0] if self.table.ndim == 3 else 1
        if which.shape != srcs.shape:
            raise RoutingError("which must name one table per pair")
        if which.size and (which.min() < 0 or which.max() >= stack):
            raise RoutingError(f"table index out of range [0, {stack})")
        return srcs, dsts, which * n * n + dsts

    def _walk(self, srcs: np.ndarray, dsts: np.ndarray,
              keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Follow the ranks for in-range pairs, one gather per hop level
        (pair ``i`` reads its table through ``keys[i]``, see
        :meth:`_endpoints`)."""
        ranks, n = self.table.ravel(), self.node_count
        count = srcs.size
        if count == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
        levels = [srcs]
        cur = srcs
        active = cur != dsts
        for _ in range(n):
            if not active.any():
                break
            idx = np.flatnonzero(active)
            at = cur[idx]
            rank = ranks.take(at * n + keys[idx])
            dead_end = rank == self.sentinel
            if dead_end.any():
                i = int(idx[np.flatnonzero(dead_end)[0]])
                raise RoutingError(f"no route from {srcs[i]} to {dsts[i]}")
            cur = cur.copy()
            cur[idx] = self.col_indices[self.row_offsets[at] + rank]
            levels.append(cur)
            active = cur != dsts
        else:  # pragma: no cover - BFS-compiled ranks always descend
            i = int(np.flatnonzero(active)[0])
            raise RoutingError(f"routing loop from {srcs[i]} toward {dsts[i]}")
        # per-packet route length = 1 + first level where the walk hit dst
        stack = np.stack(levels)                       # (depth + 1, count)
        lens = np.argmax(stack == dsts[np.newaxis, :], axis=0) + 1
        offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        keep = np.arange(stack.shape[0])[:, np.newaxis] < lens[np.newaxis, :]
        return stack.T[keep.T], offsets               # row-major: packet-contiguous

    def route(self, src: int, dst: int) -> list[int]:
        """Single-pair route (convenience wrapper over the batch path)."""
        flat, _ = self.routes_batch([src], [dst])
        return flat.tolist()

    def routes_batch(
        self, srcs: np.ndarray, dsts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Follow the table for a whole batch of pairs at once.

        Returns ``(flat, offsets)`` in the engines' shared injection
        layout (packet ``i``'s route is ``flat[offsets[i]:offsets[i + 1]]``).
        The follow is vectorized over the batch: one gather per hop
        level, so the work is O(batch x diameter) NumPy ops instead of a
        Python loop per pair.  Raises :class:`RoutingError` on an
        endpoint out of range or on the first unreachable pair, a
        faulty node's self-pair included (its diagonal is the sentinel).
        """
        srcs, dsts, _ = self._endpoints(srcs, dsts)
        bad = np.flatnonzero(self.table[srcs, dsts] == self.sentinel)
        if bad.size:
            i = int(bad[0])
            raise RoutingError(f"no route from {srcs[i]} to {dsts[i]}")
        return self._walk(srcs, dsts, dsts)

    def reachable(self, srcs: np.ndarray, dsts: np.ndarray) -> np.ndarray:
        """Boolean mask: which (src, dst) pairs the table can route.

        A pair is routable exactly when its entry is not the sentinel,
        so one gather answers the whole batch.  ``src == dst`` reads the
        diagonal: a live node self-routes, while survivor tables
        (:func:`repro.routing.fault_routing.survivor_route_table`) mark
        faulty nodes' diagonals so a dead endpoint never admits even the
        trivial route.
        """
        srcs, dsts, _ = self._endpoints(srcs, dsts)
        return self.table[srcs, dsts] != self.sentinel

    def routes_batch_masked(
        self, srcs: np.ndarray, dsts: np.ndarray, which: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Like :meth:`routes_batch`, but unreachable pairs are skipped
        instead of raising.

        Returns ``(flat, offsets, kept, hop)``: routes for the reachable
        pairs in the engines' shared layout, the (sorted) indices of the
        input pairs that were routable, and each route position's CSR
        slot (``-1`` at each route's end) — the route-hook tuple the
        detour baseline (:class:`repro.simulator.faults.DetourController`)
        hands the engine, whose drivers charge the dropped pairs to their
        offered-but-unadmitted accounting.  The slot of the hop leaving
        ``u`` toward ``d`` is ``row_offsets[u] + table[u, d]``, so one
        rank gather over the finished routes finds them all.

        On a stack, ``which[i]`` names the table pair ``i`` walks (it is
        required there, and ``kept`` indexes the whole batch), so the
        pairs of every table route in one pass; each table's routes are
        exactly its own table's.
        """
        srcs, dsts, keys = self._endpoints(srcs, dsts, which)
        ranks, n = self.table.ravel(), self.node_count
        kept = np.flatnonzero(ranks.take(srcs * n + keys) != self.sentinel)
        keys = keys[kept]
        flat, offsets = self._walk(srcs[kept], dsts[kept], keys)
        at = flat * n  # each position's (u, dst) entry
        at += np.repeat(keys, np.diff(offsets))
        hop = self.row_offsets.take(flat)
        hop += ranks.take(at)
        hop[offsets[1:] - 1] = -1
        return flat, offsets, kept, hop


def compile_routing_table(g: StaticGraph, *, faulty=None) -> np.ndarray:
    """The decoded int64 next-hop view (:meth:`RouteTable.next_hops`) of
    :meth:`RouteTable.compile` — ``faulty`` as there."""
    return RouteTable.compile(g, faulty=faulty).next_hops()


def validate_routing_table(g: StaticGraph, table: np.ndarray) -> bool:
    """Check a decoded next-hop view (:meth:`RouteTable.next_hops`).

    Returns False when an off-diagonal entry is neither
    :data:`UNREACHABLE` nor a neighbor of its row.  Raises
    :class:`RoutingError` on a wrong shape, and when a sampled route
    dead-ends or does not terminate within ``n`` hops.  Used as a
    post-compilation invariant and by tests as an independent check."""
    n = g.node_count
    table = np.asarray(table)
    if table.shape != (n, n):
        raise RoutingError(f"table shape {table.shape} != ({n}, {n})")
    v, d = np.nonzero(table != UNREACHABLE)
    off = v != d
    v, hop = v[off], table[v[off], d[off]]
    if ((hop < 0) | (hop >= n)).any() or not g.has_edges(v, hop).all():
        return False
    sample = range(0, n, max(1, n // 8))
    for s in sample:
        for dst in sample:
            cur = s
            if table[cur, dst] == UNREACHABLE:
                continue
            for _ in range(n):
                if cur == dst:
                    break
                cur = int(table[cur, dst])
                if cur == UNREACHABLE:
                    raise RoutingError(f"no route from {s} to {dst}")
            else:
                raise RoutingError(f"routing loop from {s} toward {dst}")
    return True
