"""Vectorized structure-of-arrays batch simulation engine.

:class:`BatchEngine` simulates the exact store-and-forward model of
:class:`repro.simulator.network.NetworkSimulator` — unit-time links, per
directed link a FIFO queue served at ``link_capacity`` packets per cycle,
source-routed packets, links served in sorted key order — but holds no
per-packet Python objects.  All routes live flattened in one
``(total_hops,)`` int64 array with per-packet offsets, and the engine is
*event-driven*: it touches each packet only on the cycles where that
packet actually moves, which makes draining millions of packets 1–2
orders of magnitude faster than the object engine (see
``benchmarks/bench_engines`` and ``tools/bench_engines_report.py``).

Semantic equivalence
--------------------
The engine is a drop-in twin: on the same (graph, injections, fault
schedule) it produces *bit-identical* :class:`RunStats` and identical
per-packet delivery cycles and drop decisions as ``NetworkSimulator``.
This is enforced by the golden tests in ``tests/test_batch_engine.py``.

How it works: departure slots are exact
---------------------------------------
In the object engine a directed link's deque serves up to
``link_capacity`` packets per cycle, FIFO, and arrivals only ever append
to the tail.  That makes every packet's departure cycle computable *at
the moment it joins the queue*: if the queue's service schedule has
filled slots up to ``(next_slot, used)``, the joiner at cycle ``t``
departs at ``max(t + 1, next_slot)`` plus however many whole slots the
backlog ahead of it occupies.  Two facts keep this exact under faults:

* later arrivals cannot affect earlier ones (FIFO tail appends), and
* faults never shorten a queue partially — ``disable_node`` /
  ``disable_link`` kill entire queues, so surviving schedules never
  shift.

The engine therefore keeps a calendar of *buckets*: ``bucket[c]`` holds
every packet scheduled to depart its current link at cycle ``c``, stored
as parallel arrays ``(pid, ptr, queue_key, seq)``.  A :meth:`step` to
cycle ``c`` pops the bucket, orders it by ``(queue_key, seq)`` — exactly
the object engine's sorted-key, FIFO-within-queue service order — and
processes all arrivals vectorized: dead-node/dead-link boolean masks
decide drops, destination hits record delivery, and continuing packets
are grouped by their next queue for one segmented slot computation that
schedules their departures into future buckets.  Per-queue schedule
state is indexed densely by directed-edge id (CSR order, which preserves
key order); rare non-edge hops injected with ``validate=False`` get
overflow ids on demand.

Work is O(total hops actually traversed), not
O(in-flight × cycles) — idle packets cost nothing, and :meth:`run`
skips straight across cycles where no packet moves.

When to use which engine
------------------------
Use ``NetworkSimulator`` for small workloads, debugging, or when you
need per-:class:`Packet` objects; use ``BatchEngine`` whenever the
packet count is large (≳ a few thousand).  The controllers in
:mod:`repro.simulator.faults` switch via ``engine="object" | "batch"``.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.graphs.static_graph import StaticGraph
from repro.routing.shift_register import route_hop_pairs
from repro.simulator.metrics import PacketArrays, RunStats, summarize_arrays

__all__ = ["BatchEngine", "pack_routes", "validate_injection"]

_I64 = np.int64


def _dead_links_mask(
    dead_keys: np.ndarray, n: int, us: np.ndarray, vs: np.ndarray
) -> np.ndarray:
    """Boolean mask: is directed link ``(us[i], vs[i])`` in the sorted
    dead-link key array (keys are ``u * n + v``)?"""
    if dead_keys.size == 0:
        return np.zeros(us.shape, dtype=bool)
    q = us * n + vs
    pos = np.searchsorted(dead_keys, q)
    safe = np.minimum(pos, dead_keys.size - 1)
    return (pos < dead_keys.size) & (dead_keys[safe] == q)


def validate_injection(
    graph: StaticGraph,
    flat: np.ndarray,
    offsets: np.ndarray,
    *,
    validate: bool,
    dead_mask: np.ndarray,
    dead_link_keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The engines' shared injection-time validation, fully vectorized.

    Normalizes the ``(flat, offsets)`` batch and applies exactly the
    checks :meth:`BatchEngine.inject_routes` documents: malformed batch,
    empty routes, node range, edge existence (gated by ``validate``),
    dead links, dead nodes — raising :class:`SimulationError` on the
    first offender.  Returns ``(flat, offsets, a, b, lens)`` where
    ``(a, b)`` are the per-hop endpoint arrays.  Every engine funnels
    through here so a route is rejected identically no matter which
    engine it was offered to.
    """
    flat = np.ascontiguousarray(np.asarray(flat, dtype=_I64).ravel())
    offsets = np.asarray(offsets, dtype=_I64).ravel()
    if offsets.size < 1 or offsets[0] != 0 or offsets[-1] != flat.size:
        raise SimulationError("malformed (flat, offsets) route batch")
    lens = np.diff(offsets)
    if lens.size and (lens < 1).any():
        raise SimulationError("route must contain at least the source")
    n = graph.node_count
    if flat.size and (flat.min() < 0 or flat.max() >= n):
        raise SimulationError("route node id out of range")
    a, b = route_hop_pairs(flat, offsets)
    if validate and a.size:
        ok = graph.has_edges(a, b)
        if not ok.all():
            i = int(np.flatnonzero(~ok)[0])
            raise SimulationError(f"route hop ({a[i]}, {b[i]}) is not an edge")
    if a.size:
        dead_link = _dead_links_mask(dead_link_keys, n, a, b)
        if dead_link.any():
            i = int(np.flatnonzero(dead_link)[0])
            raise SimulationError(f"route uses dead link ({a[i]}, {b[i]})")
    if flat.size and dead_mask[flat].any():
        v = int(flat[np.flatnonzero(dead_mask[flat])[0]])
        raise SimulationError(f"route passes dead node {v}")
    return flat, offsets, a, b, lens


def pack_routes(routes: Iterable[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a list of node-list routes into ``(flat, offsets)`` arrays
    in the layout :meth:`BatchEngine.inject_routes` consumes."""
    routes = list(routes)
    lens = np.array([len(r) for r in routes], dtype=_I64)
    offsets = np.zeros(lens.size + 1, dtype=_I64)
    np.cumsum(lens, out=offsets[1:])
    flat = np.fromiter(
        (int(v) for r in routes for v in r), dtype=_I64, count=int(offsets[-1])
    )
    return flat, offsets


class BatchEngine:
    """Vectorized synchronous packet simulator over a :class:`StaticGraph`.

    Parameters
    ----------
    graph:
        Physical topology; every route hop must be one of its edges.
    link_capacity:
        Packets one directed link may move per cycle.
    """

    def __init__(self, graph: StaticGraph, link_capacity: int = 1):
        if link_capacity < 1:
            raise SimulationError("link_capacity must be >= 1")
        self.graph = graph
        self.link_capacity = int(link_capacity)
        self.cycle = 0
        self._n = graph.node_count
        # per-packet records: structure of arrays with amortized-doubling
        # capacity (logical lengths are _n_packets / _flat_len), so many
        # small injection batches stay O(total) instead of O(batches^2)
        self._n_packets = 0
        self._flat_len = 0
        self._flat = np.zeros(0, dtype=_I64)          # all routes, concatenated
        self._off = np.zeros(1, dtype=_I64)           # per-packet offsets into _flat
        self._injected_at = np.zeros(0, dtype=_I64)
        self._delivered_at = np.zeros(0, dtype=_I64)  # -1 == not delivered
        self._dropped = np.zeros(0, dtype=bool)
        # directed-link registry: the graph's canonical directed-key plane
        # (CSR order == sorted (u*n + v) key order), shared with has_edges
        self._eid_keys = graph.directed_edge_keys
        self._extra_ids: dict[int, int] = {}          # non-edge queues (rare)
        n_queues = self._eid_keys.size
        # per-queue service schedule: next slot with free capacity + packets
        # already placed in it
        self._q_next_slot = np.zeros(n_queues, dtype=_I64)
        self._q_used = np.zeros(n_queues, dtype=_I64)
        # calendar: depart cycle -> list of (pid, ptr, queue_key, seq) chunks,
        # plus a min-heap holding each bucket's cycle exactly once
        self._buckets: dict[int, list[tuple[np.ndarray, ...]]] = {}
        self._bucket_heap: list[int] = []
        self._seq = 0                                 # global FIFO tiebreaker
        self._in_flight = 0
        # fault state
        self._dead = np.zeros(self._n, dtype=bool)
        self._dead_link_keys = np.zeros(0, dtype=_I64)

    # -- configuration ------------------------------------------------------

    @property
    def dead_nodes(self) -> frozenset[int]:
        """Nodes disabled so far (routes touching them are rejected at
        injection and their queued packets were dropped)."""
        return frozenset(int(v) for v in np.flatnonzero(self._dead))

    def _drop_queues(self, predicate) -> int:
        """Drop every scheduled packet whose *current* queue satisfies
        ``predicate(u, v)`` and empty those queues' schedules.  Whole
        queues die at once, so the surviving departure schedules stay
        exact."""
        dropped = 0
        for cyc in list(self._buckets):
            new_chunks = []
            for pid, ptr, key, seq in self._buckets[cyc]:
                u = self._flat[ptr]
                w = self._flat[ptr + 1]
                hit = predicate(u, w)
                count = int(np.count_nonzero(hit))
                if count:
                    dropped += count
                    self._dropped[pid[hit]] = True
                    keep = ~hit
                    if keep.any():
                        new_chunks.append(
                            (pid[keep], ptr[keep], key[keep], seq[keep])
                        )
                else:
                    new_chunks.append((pid, ptr, key, seq))
            if new_chunks:
                self._buckets[cyc] = new_chunks
            else:
                del self._buckets[cyc]
        # one heap entry per live bucket (a sorted list is a heap)
        self._bucket_heap[:] = sorted(self._buckets)
        # a killed queue is empty, like the object engine's deleted deque:
        # a packet joining it after a repair must not wait behind the
        # schedule of packets that were dropped
        keys = self._eid_keys
        if self._extra_ids:
            keys = np.concatenate([keys, np.fromiter(self._extra_ids, dtype=_I64)])
        killed = predicate(keys // self._n, keys % self._n)
        self._q_next_slot[killed] = 0
        self._q_used[killed] = 0
        self._in_flight -= dropped
        return dropped

    def disable_node(self, v: int) -> int:
        """Mark a node dead mid-run; drop everything queued on its links.
        Returns the drop count.  Raises :class:`SimulationError` for a
        node id outside the graph."""
        v = int(v)
        if not 0 <= v < self._n:
            raise SimulationError(
                f"cannot disable node {v}: not a node of the graph [0, {self._n})"
            )
        self._dead[v] = True
        return self._drop_queues(lambda u, w: (u == v) | (w == v))

    def enable_node(self, v: int) -> None:
        """Return a disabled node to service (a ``node_repair`` event):
        routes through ``v`` validate again from the next injection on.
        Packets dropped while it was dead stay dropped.  Raises
        :class:`SimulationError` for an out-of-range or live node id."""
        v = int(v)
        if not 0 <= v < self._n:
            raise SimulationError(
                f"cannot enable node {v}: not a node of the graph [0, {self._n})"
            )
        if not self._dead[v]:
            raise SimulationError(f"cannot enable node {v}: it is not disabled")
        self._dead[v] = False

    def disable_link(self, u: int, v: int) -> int:
        """Fail the undirected link ``{u, v}`` mid-run; drop everything
        queued on either direction and return the drop count.  Raises
        :class:`SimulationError` when ``{u, v}`` is not a graph edge."""
        u, v = int(u), int(v)
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise SimulationError(
                f"cannot disable link ({u}, {v}): endpoint out of range [0, {self._n})"
            )
        if not self.graph.has_edge(u, v):
            raise SimulationError(
                f"cannot disable link ({u}, {v}): not an edge of the graph"
            )
        keys = np.array([u * self._n + v, v * self._n + u], dtype=_I64)
        self._dead_link_keys = np.unique(
            np.concatenate([self._dead_link_keys, keys])
        )
        return self._drop_queues(
            lambda a, b: ((a == u) & (b == v)) | ((a == v) & (b == u))
        )

    def _links_dead(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Boolean mask: is directed link ``(us[i], vs[i])`` dead?"""
        return _dead_links_mask(self._dead_link_keys, self._n, us, vs)

    # -- injection ----------------------------------------------------------

    def inject_route(self, route: Sequence[int], *, validate: bool = True) -> int:
        """Inject one packet with an explicit physical route; returns its
        packet id.  (Convenience wrapper — the fast path is
        :meth:`inject_routes`.)"""
        arr = np.array([int(v) for v in route], dtype=_I64)
        if arr.size < 1:
            raise SimulationError("route must contain at least the source")
        pids = self.inject_routes(
            arr, np.array([0, arr.size], dtype=_I64), validate=validate
        )
        return int(pids[0])

    def inject_routes(
        self, flat: np.ndarray, offsets: np.ndarray, *, validate: bool = True
    ) -> np.ndarray:
        """Inject a whole batch of packets at once.

        ``flat``/``offsets`` use the :func:`pack_routes` layout: packet
        ``i``'s route is ``flat[offsets[i]:offsets[i + 1]]``.  Returns the
        array of assigned packet ids.  ``validate`` gates the edge-existence
        check; dead-node and dead-link checks always run (matching
        :meth:`NetworkSimulator.inject_route`).  Validation is
        all-or-nothing: on error, no packet of the batch is injected
        (``NetworkSimulator.inject_routes`` matches).
        """
        flat, offsets, a, b, lens = validate_injection(
            self.graph, flat, offsets, validate=validate,
            dead_mask=self._dead, dead_link_keys=self._dead_link_keys,
        )
        if lens.size == 0:
            return np.zeros(0, dtype=_I64)

        count = lens.size
        pid0 = self._n_packets
        base_flat = self._flat_len
        pids = np.arange(pid0, pid0 + count, dtype=_I64)
        self._flat = self._ensure(self._flat, base_flat, flat.size)
        self._flat[base_flat: base_flat + flat.size] = flat
        self._off = self._ensure(self._off, pid0 + 1, count)
        self._off[pid0 + 1: pid0 + 1 + count] = offsets[1:] + base_flat
        self._injected_at = self._ensure(self._injected_at, pid0, count)
        self._injected_at[pid0: pid0 + count] = self.cycle
        self._delivered_at = self._ensure(self._delivered_at, pid0, count)
        dv = self._delivered_at[pid0: pid0 + count]
        dv[:] = -1
        dv[lens == 1] = self.cycle  # degenerate self-delivery
        self._dropped = self._ensure(self._dropped, pid0, count)
        self._dropped[pid0: pid0 + count] = False
        self._n_packets += count
        self._flat_len += flat.size
        multi = lens > 1
        if multi.any():
            mpid = pids[multi]
            ptr = self._off[mpid]
            key = self._flat[ptr] * self._n + self._flat[ptr + 1]
            self._join(mpid, ptr, key)
        return pids

    @staticmethod
    def _ensure(arr: np.ndarray, used: int, extra: int) -> np.ndarray:
        """Grow ``arr`` (first ``used`` entries live) to hold ``extra``
        more, doubling capacity so repeated injections stay amortized
        linear."""
        need = used + extra
        if need <= arr.size:
            return arr
        out = np.empty(max(need, 2 * arr.size, 1024), dtype=arr.dtype)
        out[:used] = arr[:used]
        return out

    # -- queue schedule ------------------------------------------------------

    def _queue_ids(self, keys: np.ndarray) -> np.ndarray:
        """Dense ids for directed-link keys ``u * n + v``.  Graph edges map
        to their CSR position (which preserves key order); non-edge queues
        (only reachable via ``validate=False``) get stable overflow ids."""
        ek = self._eid_keys
        if ek.size:
            pos = np.searchsorted(ek, keys)
            safe = np.minimum(pos, ek.size - 1)
            ok = ek[safe] == keys
        else:
            safe = np.zeros(keys.shape, dtype=_I64)
            ok = np.zeros(keys.shape, dtype=bool)
        if ok.all():
            return safe
        eid = safe.copy()
        grow = 0
        for i in np.flatnonzero(~ok):
            k = int(keys[i])
            ident = self._extra_ids.get(k)
            if ident is None:
                ident = ek.size + len(self._extra_ids)
                self._extra_ids[k] = ident
                grow += 1
            eid[i] = ident
        if grow:
            self._q_next_slot = np.concatenate(
                [self._q_next_slot, np.zeros(grow, dtype=_I64)]
            )
            self._q_used = np.concatenate([self._q_used, np.zeros(grow, dtype=_I64)])
        return eid

    def _join(self, pid: np.ndarray, ptr: np.ndarray, key: np.ndarray) -> None:
        """Enqueue packets (in FIFO processing order) on the queues named
        by ``key`` at the current cycle: one segmented pass computes every
        packet's exact departure cycle and files it in the calendar."""
        if key.size == 1:  # scalar fast path (long drain tails are all 1s)
            eid = int(self._queue_ids(key)[0])
            next_slot = int(self._q_next_slot[eid])
            base = max(self.cycle + 1, next_slot)
            used = int(self._q_used[eid]) if next_slot == base else 0
            self._q_next_slot[eid] = base + (used + 1) // self.link_capacity
            self._q_used[eid] = (used + 1) % self.link_capacity
            seq = np.array([self._seq], dtype=_I64)
            self._seq += 1
            self._in_flight += 1
            self._file(base, (pid, ptr, key, seq))
            return
        if key.size <= 8:
            # small-batch path: the congested phase of a drain joins a
            # handful of packets per cycle, where the segmented pass
            # below is all fixed overhead.  Replaying the scalar update
            # sequentially in stable key order assigns the identical
            # slots and seqs (the group formulas are its closed form).
            ko = key.tolist()
            order = sorted(range(key.size), key=ko.__getitem__)
            eids = self._queue_ids(key)
            earliest = self.cycle + 1
            cap = self.link_capacity
            ns, qu = self._q_next_slot, self._q_used
            seq0 = self._seq
            for rank, i in enumerate(order):
                e = int(eids[i])
                next_slot = int(ns[e])
                base = next_slot if next_slot > earliest else earliest
                used = int(qu[e]) if next_slot == base else 0
                ns[e] = base + (used + 1) // cap
                qu[e] = (used + 1) % cap
                self._file(base, (
                    pid[i:i + 1], ptr[i:i + 1], key[i:i + 1],
                    np.array([seq0 + rank], dtype=_I64),
                ))
            self._seq += key.size
            self._in_flight += key.size
            return
        order = np.argsort(key, kind="stable")
        pid, ptr, key = pid[order], ptr[order], key[order]
        size = key.size
        first = np.empty(size, dtype=bool)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        group = np.cumsum(first) - 1
        offs = np.arange(size, dtype=_I64) - starts[group]
        eid = self._queue_ids(key[starts])
        cap = self.link_capacity
        earliest = self.cycle + 1
        next_slot = self._q_next_slot[eid]
        base = np.maximum(earliest, next_slot)
        used = np.where(next_slot == base, self._q_used[eid], 0)
        depart = base[group] + (used[group] + offs) // cap
        sizes = np.empty(starts.size, dtype=_I64)
        sizes[:-1] = np.diff(starts)
        sizes[-1] = size - starts[-1]
        total = used + sizes
        self._q_next_slot[eid] = base + total // cap
        self._q_used[eid] = total % cap
        seq = self._seq + np.arange(size, dtype=_I64)
        self._seq += size
        self._in_flight += size

        d_order = np.argsort(depart, kind="stable")
        ds = depart[d_order]
        if ds[0] == ds[-1]:  # single bucket: stable sort kept the order
            self._file(int(ds[0]), (pid, ptr, key, seq))
            return
        pid, ptr, key, seq = pid[d_order], ptr[d_order], key[d_order], seq[d_order]
        dfirst = np.empty(size, dtype=bool)
        dfirst[0] = True
        np.not_equal(ds[1:], ds[:-1], out=dfirst[1:])
        bounds = np.flatnonzero(dfirst).tolist()
        cycs = ds[bounds].tolist()
        bounds.append(size)
        buckets = self._buckets
        heap = self._bucket_heap
        for i, cyc in enumerate(cycs):
            lo, hi = bounds[i], bounds[i + 1]
            chunk = (pid[lo:hi], ptr[lo:hi], key[lo:hi], seq[lo:hi])
            bucket = buckets.get(cyc)
            if bucket is None:
                buckets[cyc] = [chunk]
                heapq.heappush(heap, cyc)
            else:
                bucket.append(chunk)

    def _file(self, cyc: int, chunk: tuple[np.ndarray, ...]) -> None:
        """Append a chunk to the calendar bucket for ``cyc``."""
        bucket = self._buckets.get(cyc)
        if bucket is None:
            self._buckets[cyc] = [chunk]
            heapq.heappush(self._bucket_heap, cyc)
        else:
            bucket.append(chunk)

    # -- execution ----------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Packets currently queued on some link."""
        return self._in_flight

    def next_departure_cycle(self) -> int | None:
        """The earliest future cycle with a scheduled departure, or
        ``None`` when nothing is in flight.

        This is the calendar's read side: a cycle is returned iff some
        packet departs its current link exactly then, so a caller may
        jump the clock straight to ``returned - 1`` and :meth:`step` once
        without skipping any work (both :meth:`run` and the streaming
        driver in :mod:`repro.simulator.streaming` rely on this).
        """
        heap = self._bucket_heap
        return heap[0] if heap else None

    def step(self) -> int:
        """Advance one cycle; returns the number of packets delivered.

        Calendar invariants the implementation maintains (see the module
        docstring for why these make departure slots exact):

        * every in-flight packet sits in exactly one future bucket, keyed
          by its precomputed departure cycle;
        * the bucket heap holds each live bucket's cycle exactly once, so
          no kernel can take a bucket twice;
        * a killed queue (dead node or link) has an empty schedule, so a
          queue revived by :meth:`enable_node` starts with no backlog;
        * a bucket is processed in ``(queue_key, seq)`` order — the
          object engine's sorted-key service order, FIFO within a queue;
        * continuing packets re-enter the calendar via one segmented
          :meth:`_join` pass that consumes capacity slots per queue.
        """
        self.cycle += 1
        chunks = self._buckets.pop(self.cycle, None)
        if not chunks:
            return 0
        heapq.heappop(self._bucket_heap)  # it was the earliest bucket
        if len(chunks) == 1:
            pid, ptr, key, seq = chunks[0]
            if pid.size > 1:
                order = np.lexsort((seq, key))
                pid, ptr = pid[order], ptr[order]
        else:
            pid = np.concatenate([c[0] for c in chunks])
            ptr = np.concatenate([c[1] for c in chunks])
            key = np.concatenate([c[2] for c in chunks])
            seq = np.concatenate([c[3] for c in chunks])
            # the object engine serves queues in sorted key order, FIFO within
            order = np.lexsort((seq, key))
            pid, ptr = pid[order], ptr[order]
        ptr = ptr + 1
        node = self._flat[ptr]
        node_dead = self._dead[node]
        at_dst = ptr == self._off[pid + 1] - 1
        deliver = at_dst & ~node_dead
        cont = ~at_dst & ~node_dead
        if cont.any():
            nxt = self._flat[np.where(cont, ptr + 1, ptr)]
            blocked = cont & (self._dead[nxt] | self._links_dead(node, nxt))
            cont &= ~blocked
        drop = ~deliver & ~cont
        delivered = int(np.count_nonzero(deliver))
        if delivered:
            self._delivered_at[pid[deliver]] = self.cycle
        if drop.any():
            self._dropped[pid[drop]] = True
        self._in_flight -= pid.size  # popped; continuers re-add via _join
        if cont.any():
            self._join(pid[cont], ptr[cont], node[cont] * self._n + nxt[cont])
        return delivered

    def _coalesce_terminal_tail(self, stop: int) -> int:
        """Settle the whole calendar in one pass iff every remaining
        packet is terminal (delivers or drops on its next departure).

        The contention tail of a drain — a hotspot queue emptying
        ``link_capacity`` packets per cycle — leaves thousands of tiny
        buckets, and :meth:`step` pays its fixed NumPy overhead per
        bucket.  But a terminal packet never calls :meth:`_join`: it
        touches no queue state, consumes no future capacity slot, and
        its outcome is independent of every other packet's processing
        order.  So once *nothing* left in the calendar can continue, the
        per-cycle loop is pure overhead and the tail can be settled
        wholesale: stamp each delivery with its (already exact)
        departure cycle, mark the drops, advance the clock to the last
        bucket.  Bit-identical to stepping — the property and golden
        tests enforce it.

        Returns ``-1`` when applied.  Otherwise the calendar still holds
        a continuer, or a bucket past ``stop`` (the budget or the
        caller's ``until``, which the normal loop must honor), and the
        probe bails on the spot — a failed probe costs one chunk scan,
        not a calendar walk.
        """
        settled = []  # (cycle, pid, deliver-mask) per chunk
        last = self.cycle
        for cyc, chunk_list in self._buckets.items():
            if cyc > stop:
                return 1
            if cyc > last:
                last = cyc
            for pid, ptr, _key, _seq in chunk_list:
                ptr1 = ptr + 1
                node = self._flat[ptr1]
                node_dead = self._dead[node]
                at_dst = ptr1 == self._off[pid + 1] - 1
                cand = ~at_dst & ~node_dead
                if cand.any():
                    nxt = self._flat[np.where(cand, ptr1 + 1, ptr1)]
                    if (cand & ~self._dead[nxt]
                            & ~self._links_dead(node, nxt)).any():
                        return 1  # a genuine continuer: bail now
                settled.append((cyc, pid, at_dst & ~node_dead))
        if not settled:
            return 1
        pid = np.concatenate([s[1] for s in settled])
        deliver = np.concatenate([s[2] for s in settled])
        cycs = np.repeat(
            np.array([s[0] for s in settled], dtype=_I64),
            np.array([s[1].size for s in settled], dtype=_I64),
        )
        self._delivered_at[pid[deliver]] = cycs[deliver]
        drop = ~deliver
        if drop.any():
            self._dropped[pid[drop]] = True
        self._in_flight -= pid.size
        self.cycle = int(last)
        self._buckets.clear()
        self._bucket_heap.clear()
        return -1

    def _step_coalesced(self, stop: int, limit: int = 64) -> int:
        """Process up to ``limit`` upcoming calendar buckets in one
        vectorized pass, bit-identical to stepping them one at a time.

        The contention phase of a hotspot drain schedules thousands of
        near-empty buckets — a handful of packets per cycle trickling
        out of a few backlogged queues — and :meth:`step` pays its fixed
        NumPy overhead for every one of them.  A window of consecutive
        buckets can be settled wholesale exactly when no packet in it
        can interact with a *later bucket inside the window*: every
        continuer's next queue must already be scheduled past the
        window's last cycle (``next_slot > last``), so each join lands
        strictly after the window, per-queue FIFO order is untouched,
        and the slot arithmetic reduces to the same segmented
        :meth:`_join` the per-bucket path runs.  Terminal packets
        (deliver or drop) never touch queue state and are always safe.
        In a congested drain the condition holds by construction — the
        hot queues are backlogged far beyond any 64-bucket window — so
        the window replaces up to ``limit`` steps with one pass.

        Buckets are verified in cycle order against the full window's
        last cycle, so a failing bucket only shrinks the window to the
        verified prefix (checked against a *later* cycle, hence still
        safe).  No bucket past ``stop`` (the budget or the caller's
        ``until``) is taken.  Returns the number of buckets processed,
        or ``0`` when fewer than two buckets were safe (caller falls
        back to :meth:`step`; the calendar is left as it was).
        """
        heap = self._bucket_heap
        if len(heap) < 2:
            return 0
        # the second bucket is the smaller child of the heap's root
        second = heap[1] if len(heap) == 2 else min(heap[1], heap[2])
        if second > stop:
            return 0
        n = self._n
        # cheap front gate, before anything is popped: when the first
        # bucket already holds a continuer whose join lands by the second
        # cycle, no window is possible at all (the full check would
        # shrink to taken < 2), so bail for roughly the cost of one step.
        # This is the common failure in both regimes — uncongested queues
        # re-join one cycle out, and a shrunk window leaves its offender
        # at the front.
        first = self._buckets[heap[0]]
        if len(first) == 1:
            pid0, ptr10 = first[0][0], first[0][1] + 1
        else:
            pid0 = np.concatenate([ch[0] for ch in first])
            ptr10 = np.concatenate([ch[1] for ch in first]) + 1
        node0 = self._flat[ptr10]
        cont0 = (ptr10 != self._off[pid0 + 1] - 1) & ~self._dead[node0]
        if cont0.any():
            nxt0 = self._flat[np.where(cont0, ptr10 + 1, ptr10)]
            cont0 &= ~(self._dead[nxt0] | self._links_dead(node0, nxt0))
            live0 = np.flatnonzero(cont0)
            if live0.size:
                eids0 = self._queue_ids(node0[live0] * n + nxt0[live0])
                if (self._q_next_slot[eids0] <= second).any():
                    return 0
        cycles: list[int] = []
        pids, ptrs, buckets, sizes = [], [], [], []
        total = 0
        while heap and len(cycles) < limit and total < 4096 and heap[0] <= stop:
            c = heapq.heappop(heap)
            cycles.append(c)
            bucket = self._buckets[c]
            sz = 0
            for ch in bucket:
                pids.append(ch[0])
                ptrs.append(ch[1])
                sz += ch[0].size
            buckets.append(bucket)
            sizes.append(sz)
            total += sz
        if len(cycles) < 2:  # a first bucket of 4096+ packets
            heapq.heappush(heap, cycles[0])
            return 0
        last = cycles[-1]
        # safety pass over the bare minimum (pid/ptr, bucket-major order):
        # queue keys, seqs, and the service-order sort wait until the
        # window is known safe, so a deep failed probe costs under a step
        pid = np.concatenate(pids)
        ptr1 = np.concatenate(ptrs) + 1
        bidx = np.repeat(
            np.arange(len(cycles), dtype=_I64), np.array(sizes, dtype=_I64)
        )
        node = self._flat[ptr1]
        node_dead = self._dead[node]
        at_dst = ptr1 == self._off[pid + 1] - 1
        deliver = at_dst & ~node_dead
        cont = ~at_dst & ~node_dead
        nxt = None
        taken = len(cycles)
        if cont.any():
            nxt = self._flat[np.where(cont, ptr1 + 1, ptr1)]
            cont &= ~(self._dead[nxt] | self._links_dead(node, nxt))
            live = np.flatnonzero(cont)
            if live.size:
                eids = self._queue_ids(node[live] * n + nxt[live])
                bad = np.flatnonzero(self._q_next_slot[eids] <= last)
                if bad.size:
                    # a join could land inside the window: shrink to the
                    # verified prefix of buckets before the first offender
                    # (its checks ran against a later cycle — stricter)
                    taken = int(bidx[live[bad[0]]])
                    if taken < 2:
                        for c in cycles:
                            heapq.heappush(heap, c)
                        return 0
                    cut = int(np.searchsorted(bidx, taken))
                    pid, ptr1, bidx = pid[:cut], ptr1[:cut], bidx[:cut]
                    deliver, cont = deliver[:cut], cont[:cut]
                    node, nxt = node[:cut], nxt[:cut]
        for c in cycles[taken:]:
            heapq.heappush(heap, c)
        cycles, buckets = cycles[:taken], buckets[:taken]
        for c in cycles:
            del self._buckets[c]
        # terminal packets never touch queue state, so their settlement
        # is order-independent and runs on the unsorted bucket-major data
        if deliver.any():
            cyc = np.array(cycles, dtype=_I64)[bidx]
            self._delivered_at[pid[deliver]] = cyc[deliver]
        drop = ~deliver & ~cont
        if drop.any():
            self._dropped[pid[drop]] = True
        self._in_flight -= pid.size  # popped; continuers re-add via _join
        # advance to the window's last bucket *before* joining: every
        # verified next_slot exceeds it, so _join's max(cycle + 1, slot)
        # resolves to the queue schedule exactly as per-bucket steps would
        self.cycle = int(cycles[-1])
        if cont.any():
            # only the continuers need the object engine's service order:
            # bucket-major, then (queue_key, seq) within each bucket
            keys = np.concatenate([ch[2] for b in buckets for ch in b])
            seqs = np.concatenate([ch[3] for b in buckets for ch in b])
            order = np.lexsort((seqs, keys, bidx))
            sel = order[cont[order]]
            self._join(pid[sel], ptr1[sel], node[sel] * n + nxt[sel])
        return taken

    def run(self, max_cycles: int = 1_000_000, *,
            until: int | None = None) -> RunStats:
        """Step until all traffic drains (delivered or dropped), skipping
        straight over cycles where nothing is scheduled to move.

        With ``until``, process exactly the departures at cycles
        ``<= until``: the clock ends at ``until`` while traffic remains,
        or at the last departure if the calendar empties first, and
        ``until <= cycle`` is a no-op.  This is how a driver stops on the
        cycle of its next scheduled event and keeps the kernels below
        for everything in between.  :class:`SimulationError` is raised
        when the clock would have to pass cycle ``start + max_cycles``
        with traffic still in flight — the condition the object engine's
        per-cycle loop raises under.

        After its first 32 steps (a shorter run never probes: the first
        buckets of a fresh drain carry the injected bulk, which never
        coalesces), the drain loop periodically probes
        :meth:`_coalesce_terminal_tail`: once every remaining packet is
        on its final hop (the contention tail), the rest of the calendar
        settles in one vectorized pass instead of one :meth:`step` per
        occupied cycle — same statistics, bit for bit.  Before that
        point, :meth:`_step_coalesced` batches windows of consecutive
        buckets whose joins provably land past the window (the congested
        middle of a drain), with its own short backoff while the
        condition fails (early drain, uncongested queues).
        """
        start = self.cycle
        if until is not None and until <= start:
            return self.stats()
        limit = start + max_cycles
        stop = limit if until is None else min(until, limit)
        retry_after = window_after = 32
        backoff = 4
        wbackoff = 8
        retry = False
        while self._in_flight:
            if retry_after <= 0:
                if self._coalesce_terminal_tail(stop) < 0:
                    break
                # exponential backoff between probes: early in a drain
                # the calendar always holds a continuer and the probe
                # fails fast; capping the backoff bounds the steps a
                # tail that turns fully terminal between probes pays
                retry_after = backoff
                backoff = min(backoff * 2, 256)
            if window_after <= 0:
                done = self._step_coalesced(stop)
                if done:
                    retry_after -= done
                    wbackoff = 8
                    retry = True
                    continue
                # in a congested drain a window usually fails on one
                # offending front bucket that the next step clears, so
                # the first failure after a window gets a free retry;
                # other failures (early drain, uncongested queues — every
                # window has a join landing inside it) back off
                # exponentially
                if retry:
                    retry = False
                else:
                    window_after = wbackoff
                    wbackoff = min(wbackoff * 2, 256)
            upcoming = self._bucket_heap[0]
            if upcoming > stop:
                break
            self.cycle = upcoming - 1
            self.step()
            retry_after -= 1
            window_after -= 1
        if self._in_flight:
            if until is None or until > limit:
                raise SimulationError(
                    f"simulation did not drain within {max_cycles} cycles"
                )
            self.cycle = until
        return self.stats()

    # -- records ------------------------------------------------------------

    @property
    def injected(self) -> int:
        """Total packets injected so far."""
        return self._n_packets

    @property
    def delivered_at(self) -> np.ndarray:
        """Per-packet delivery cycle, ``-1`` while in flight or dropped."""
        return self._delivered_at[: self._n_packets].copy()

    @property
    def dropped_mask(self) -> np.ndarray:
        """Per-packet dropped flags."""
        return self._dropped[: self._n_packets].copy()

    def packet_records(self) -> PacketArrays:
        """Structure-of-arrays view of every packet injected so far."""
        n = self._n_packets
        return PacketArrays(
            injected_at=self._injected_at[:n].copy(),
            delivered_at=self._delivered_at[:n].copy(),
            hops=np.diff(self._off[: n + 1]) - 1,
            dropped=self._dropped[:n].copy(),
        )

    def stats(self) -> RunStats:
        """Aggregate statistics over everything injected so far."""
        return summarize_arrays(self.packet_records(), self.cycle)
