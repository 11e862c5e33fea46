"""Vectorized structure-of-arrays batch simulation engine.

:class:`BatchEngine` is the one engine of the cycle-accurate
store-and-forward model (the unit-time assumptions behind the paper's
§V slowdown remarks):

* every directed link carries at most ``link_capacity`` packets per
  cycle (default 1), FIFO per link;
* a node may transmit on *all* of its outgoing links in the same cycle
  — the "two different values ... from a single processor in unit time"
  regime the paper contrasts buses against;
* packets are source-routed: the full path is fixed at injection;
* traversal of one link takes one cycle.

Determinism: link queues are served in sorted ``u * n + v`` key order
and FIFO within a queue, so a run is a pure function of (graph,
injections, schedule).

The engine holds no per-packet Python objects.  All routes live
flattened in one ``(total_hops,)`` int64 array with per-packet offsets,
and the engine is *event-driven*: it touches each packet only on the
cycles where that packet actually moves, which makes draining millions
of packets cheap.

Semantic reference
------------------
The conformance witness ``tests/conformance/witness_engine.py`` runs the
same model one Python object per packet and one deque per link, one
cycle at a time.  On the same (graph, injections, fault schedule) the
two produce *bit-identical* :class:`RunStats` and identical per-packet
delivery cycles and drop decisions; ``tests/test_batch_engine.py`` and
the conformance suite enforce it.

How it works: departure slots are exact
---------------------------------------
In the model a directed link's FIFO queue serves up to
``link_capacity`` packets per cycle, FIFO, and arrivals only ever append
to the tail.  That makes every packet's departure cycle computable *at
the moment it joins the queue*.  Counting a queue's service slots in
``1 / link_capacity`` cycles, with ``free`` its next free slot, the
joiners of cycle ``t`` take the slots from
``max((t + 1) * link_capacity, free)`` on, in FIFO order, and slot ``s``
departs at cycle ``s // link_capacity``.  Two facts keep this exact
under faults:

* later arrivals cannot affect earlier ones (FIFO tail appends), and
* faults never shorten a queue partially — ``disable_node`` /
  ``disable_link`` kill entire queues, so surviving schedules never
  shift.

Each hop's queue is resolved once, at injection: a per-hop array beside
the routes holds the queue id of the hop leaving every route position
(``-1`` at a route's end).  Every queue is a directed link, and its id
is the link's CSR slot, which a router supplies (``hop=``, checked by
one gather) or the engine finds by one search; a hop that is not a link
is refused.  A per-queue *blocked* mask (dead endpoint or dead link)
replaces any per-step fault search.

A packet's place in the calendar is one int64 key,
``depart << 32 | (slot * link_capacity + place)``: its departure cycle,
its queue's CSR slot (the queue's position in ``u * n + v`` order) and
its FIFO place among the queue's departures that cycle.  Ascending
key order is therefore exactly the model's service order.  The
calendar is a few key-sorted *runs*; a :meth:`step` to cycle ``c``
takes every run's prefix of keys departing at ``c``, processes the
arrivals vectorized (the blocked mask decides drops, the route's end
decides delivery), and files all continuers as one new sorted run.

Work is O(total hops actually traversed), not
O(in-flight × cycles) — idle packets cost nothing, and :meth:`run`
skips straight across cycles where no packet moves.

An open-loop stream injects a whole fault epoch's arrivals at once with
``inject_routes(..., at=cycles)``: they are validated and recorded then,
and those due after the clock wait outside the calendar in a *pending*
block.  The step to cycle ``c`` joins the arrivals due at ``c`` behind
that cycle's continuers in the same :meth:`_join`, which is the order of
injecting them at ``c`` after stepping there.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.graphs.static_graph import StaticGraph
from repro.simulator.metrics import PacketArrays, RunStats, summarize_arrays

__all__ = ["BatchEngine", "pack_routes", "validate_arrivals", "validate_injection"]

_I64 = np.int64
# calendar key split: departure cycle in the high bits, service slot
# ``queue * link_capacity + place`` in the low 32
_LOW = 32
_LOW_MASK = (1 << _LOW) - 1
_MAX_SLOTS = 1 << _LOW          # queues x link_capacity must fit the low bits
_MAX_DEPART = (1 << 31) - 1     # latest departure cycle a key can hold


def validate_arrivals(
    at, count: int, *, cycle: int, pending: int | None
) -> np.ndarray | None:
    """The engines' shared check of a timed injection's arrival cycles.

    ``at`` holds one arrival cycle per route of a ``count``-route batch
    (``None``: every route arrives at the clock, ``cycle``); ``pending``
    is the latest timed arrival cycle while one is still ahead of the
    clock or waiting to join (a single-node route's included), or
    ``None``.  The cycles must be sorted, none before the clock and none
    before a pending arrival, so packet ids stay in arrival order; a
    non-empty batch without ``at`` is therefore refused while arrivals
    are pending.  Raises :class:`SimulationError`; returns ``at`` as
    int64.
    """
    if at is None:
        if count and pending is not None:
            raise SimulationError(
                f"injection at cycle {cycle} precedes the pending arrival "
                f"at cycle {pending}"
            )
        return None
    at = np.asarray(at, dtype=_I64).ravel()
    if at.size != count:
        raise SimulationError(
            f"at= holds {at.size} arrival cycles for {count} routes"
        )
    if count:
        if (at[1:] < at[:-1]).any():
            raise SimulationError("at= arrival cycles must be sorted")
        if at[0] < cycle:
            raise SimulationError(
                f"arrival cycle {at[0]} is before the clock (cycle {cycle})"
            )
        if pending is not None and at[0] < pending:
            raise SimulationError(
                f"arrival cycle {at[0]} precedes the pending arrival at "
                f"cycle {pending}"
            )
    return at


def validate_injection(
    graph: StaticGraph,
    flat: np.ndarray,
    offsets: np.ndarray,
    *,
    dead_mask: np.ndarray,
    dead_links: np.ndarray,
    hop: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The engines' shared injection-time validation, fully vectorized.

    Normalizes the ``(flat, offsets)`` batch and applies exactly the
    checks :meth:`BatchEngine.inject_routes` documents: malformed batch,
    empty routes, node range, edge existence, dead links (``dead_links``
    is a mask over CSR slots), dead nodes — raising
    :class:`SimulationError` on the first offender.  Returns
    ``(flat, offsets, lens, hop)``: ``hop[i]`` is the CSR slot of the hop
    leaving position ``i``, ``-1`` at each route's end.

    A supplied ``hop`` (one slot per position, route ends ignored) is
    checked by one gather: every slot must be in range and name its own
    hop (``directed_edge_keys[hop[i]] == u * n + v``).  Without ``hop``
    one search answers both the edge check and the slot.  Either way a
    hop that is not an edge is refused.  Every engine funnels through
    here so a route is rejected identically no matter which engine it
    was offered to.
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
    ends = offsets[1:] - 1
    if hop is None:
        hop = np.full(flat.size, -1, dtype=_I64)
        if flat.size > 1:
            hop[:-1] = graph.directed_edge_slots(flat[:-1], flat[1:])
        hop[ends] = -1
        bad = hop < 0
    else:
        hop = np.asarray(hop, dtype=_I64).ravel()
        if hop.size != flat.size:
            raise SimulationError(
                f"hop= holds {hop.size} slots for {flat.size} route positions"
            )
        if (hop[ends] != -1).any():  # ends are ignored: mark them on a copy
            hop = hop.copy()
            hop[ends] = -1
        keys = graph.directed_edge_keys
        bad = (hop < 0) | (hop >= keys.size)
        if keys.size:  # an edgeless graph has no slot to gather
            bad[:-1] |= keys.take(hop[:-1], mode="clip") != flat[:-1] * n + flat[1:]
    bad[ends] = False
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise SimulationError(f"route hop ({flat[i]}, {flat[i + 1]}) is not an edge")
    if dead_links.any():
        dead_link = (hop >= 0) & dead_links[np.maximum(hop, 0)]
        if dead_link.any():
            i = int(np.flatnonzero(dead_link)[0])
            raise SimulationError(f"route uses dead link ({flat[i]}, {flat[i + 1]})")
    if flat.size and dead_mask[flat].any():
        v = int(flat[np.flatnonzero(dead_mask[flat])[0]])
        raise SimulationError(f"route passes dead node {v}")
    return flat, offsets, lens, hop


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
        self._hop = np.zeros(0, dtype=_I64)           # queue id leaving each position
        self._off = np.zeros(1, dtype=_I64)           # per-packet offsets into _flat
        self._injected_at = np.zeros(0, dtype=_I64)
        self._delivered_at = np.zeros(0, dtype=_I64)  # -1 == not delivered
        self._dropped = np.zeros(0, dtype=bool)
        # one queue per directed link, its id the CSR slot: id order is
        # the u*n + v key order the calendar serves queues in
        n_queues = graph.directed_edge_keys.size
        if n_queues * self.link_capacity > _MAX_SLOTS:
            raise SimulationError(
                f"{n_queues} queues x link_capacity {self.link_capacity} "
                f"exceed the calendar key's limit of 2**{_LOW} service slots"
            )
        # per-queue service schedule: the next free slot, counted in
        # 1/link_capacity cycles (slot s departs at cycle s // capacity)
        self._q_free = np.zeros(n_queues, dtype=_I64)
        # fault state; _blocked has one extra True entry, so hop -1 (a
        # route's end) never continues
        self._dead = np.zeros(self._n, dtype=bool)
        self._link_dead = np.zeros(n_queues, dtype=bool)
        self._blocked = np.zeros(n_queues + 1, dtype=bool)
        self._blocked[-1] = True
        # calendar: size-tiered (3, k) arrays of (key, pid, ptr) columns,
        # each sorted by key (see _push)
        self._runs: list[np.ndarray] = []
        self._in_flight = 0
        # timed multi-hop arrivals due after the clock: (3, k) columns of
        # (arrival cycle, pid, ptr) sorted by arrival, or None
        self._pending: np.ndarray | None = None
        # latest timed arrival cycle, single-node routes included
        self._last_arrival = -1

    # -- configuration ------------------------------------------------------

    @property
    def dead_nodes(self) -> frozenset[int]:
        """Nodes disabled so far (routes touching them are rejected at
        injection and their queued packets were dropped)."""
        return frozenset(int(v) for v in np.flatnonzero(self._dead))

    def _pending_until(self) -> int | None:
        """The latest timed arrival cycle while arrivals are pending (one
        is after the clock or waiting to join), else ``None``."""
        if self._pending is None and self._last_arrival <= self.cycle:
            return None
        return self._last_arrival

    def _refuse_if_pending(self, what: str) -> None:
        """Refuse a fault operation while timed arrivals are pending:
        their routes were validated against the fault state at injection."""
        until = self._pending_until()
        if until is not None:
            raise SimulationError(
                f"cannot {what} while arrivals are pending (until cycle "
                f"{until})"
            )

    def _reblock(self) -> tuple[np.ndarray, np.ndarray]:
        """Recompute the blocked mask (dead endpoint or dead link) from
        the fault state; returns the queues' endpoint arrays."""
        u, w = np.divmod(self.graph.directed_edge_keys, self._n)
        self._blocked[:-1] = self._dead[u] | self._dead[w] | self._link_dead
        return u, w

    def _drop_queues(self, killed: np.ndarray) -> int:
        """Drop every scheduled packet whose *current* queue is marked in
        ``killed`` and empty those queues' schedules.  Whole queues die
        at once, so the surviving departure schedules stay exact, and
        filtering a sorted run keeps it sorted."""
        dropped = 0
        runs = []
        for run in self._runs:
            hit = killed[self._hop[run[2]]]
            count = int(np.count_nonzero(hit))
            if count:
                dropped += count
                self._dropped[run[1, hit]] = True
                run = run.compress(~hit, axis=1)
            if run.shape[1]:
                runs.append(run)
        self._runs = runs
        # a killed queue is empty, like the witness engine's deleted deque:
        # a packet joining it after a repair must not wait behind the
        # schedule of packets that were dropped
        self._q_free[killed] = 0
        self._in_flight -= dropped
        return dropped

    def disable_node(self, v: int) -> int:
        """Mark a node dead mid-run; drop everything queued on its links.
        Returns the drop count.  Raises :class:`SimulationError` for a
        node id outside the graph or while arrivals are pending."""
        return self.disable_nodes([v])

    def disable_nodes(self, vs: Iterable[int]) -> int:
        """:meth:`disable_node` for every node of ``vs`` at once: one
        blocked-mask pass and one pass over the calendar, however many
        nodes die.  Returns the total drop count, which equals the sum
        of disabling them one at a time.  Raises as :meth:`disable_node`
        does, naming the first offending node, before any node dies."""
        vs = [int(v) for v in vs]
        for v in vs:
            if not 0 <= v < self._n:
                raise SimulationError(
                    f"cannot disable node {v}: not a node of the graph [0, {self._n})"
                )
        if not vs:
            return 0
        self._refuse_if_pending(
            f"disable node {vs[0]}" if len(vs) == 1 else f"disable nodes {vs}"
        )
        hit = np.zeros(self._n, dtype=bool)
        hit[vs] = True
        self._dead |= hit
        u, w = self._reblock()
        return self._drop_queues(hit[u] | hit[w])

    def enable_node(self, v: int) -> None:
        """Return a disabled node to service (a ``node_repair`` event):
        routes through ``v`` validate again from the next injection on.
        Packets dropped while it was dead stay dropped.  Raises
        :class:`SimulationError` for an out-of-range or live node id, or
        while arrivals are pending."""
        v = int(v)
        if not 0 <= v < self._n:
            raise SimulationError(
                f"cannot enable node {v}: not a node of the graph [0, {self._n})"
            )
        if not self._dead[v]:
            raise SimulationError(f"cannot enable node {v}: it is not disabled")
        self._refuse_if_pending(f"enable node {v}")
        self._dead[v] = False
        self._reblock()

    def disable_link(self, u: int, v: int) -> int:
        """Fail the undirected link ``{u, v}`` mid-run; drop everything
        queued on either direction and return the drop count.  Raises
        :class:`SimulationError` when ``{u, v}`` is not a graph edge or
        while arrivals are pending."""
        u, v = int(u), int(v)
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise SimulationError(
                f"cannot disable link ({u}, {v}): endpoint out of range [0, {self._n})"
            )
        if not self.graph.has_edge(u, v):
            raise SimulationError(
                f"cannot disable link ({u}, {v}): not an edge of the graph"
            )
        self._refuse_if_pending(f"disable link ({u}, {v})")
        killed = np.zeros(self._link_dead.size, dtype=bool)
        killed[self.graph.directed_edge_slots([u, v], [v, u])] = True
        self._link_dead |= killed
        self._reblock()
        return self._drop_queues(killed)

    # -- injection ----------------------------------------------------------

    def inject_route(self, route: Sequence[int]) -> int:
        """Inject one packet with an explicit physical route; returns its
        packet id.  (Convenience wrapper — the fast path is
        :meth:`inject_routes`.)"""
        arr = np.array([int(v) for v in route], dtype=_I64)
        return int(self.inject_routes(arr, np.array([0, arr.size]))[0])

    def inject_routes(
        self, flat: np.ndarray, offsets: np.ndarray, *,
        at: np.ndarray | None = None, hop: np.ndarray | None = None,
    ) -> np.ndarray:
        """Inject a whole batch of packets at once.

        ``flat``/``offsets`` use the :func:`pack_routes` layout: packet
        ``i``'s route is ``flat[offsets[i]:offsets[i + 1]]``.  Returns the
        array of assigned packet ids.  Every hop must be an edge of the
        graph, and no route may touch a dead node or a dead link.
        Validation is all-or-nothing: on error, no packet of the batch is
        injected.

        ``hop`` supplies each position's CSR slot (the queue id of the hop
        leaving it; route ends are ignored), as both controllers' route
        hooks return them.  The slots are checked against their hops by
        one gather.  Without ``hop`` one search over the CSR finds every
        hop's slot.

        ``at`` gives each packet an arrival cycle (see
        :func:`validate_arrivals`: sorted, none before the clock or a
        pending arrival).  Every packet is validated and recorded now,
        with its arrival cycle as ``injected_at``; a single-node route
        is delivered at its arrival cycle.  Packets arriving at the clock
        join now, and the rest are *pending* until :meth:`step` reaches
        their cycle.  ``disable_node``, ``enable_node`` and
        ``disable_link`` are refused while arrivals are pending, that is
        until the clock reaches the latest arrival cycle (a single-node
        route's too).

        A queue never idles while it holds a packet, so no departure
        lies further out than the latest arrival cycle (the clock,
        without ``at``) plus the hops injected so far; a batch that
        could push one past the calendar key's latest cycle is refused
        with :class:`SimulationError`.
        """
        flat, offsets, lens, hop = validate_injection(
            self.graph, flat, offsets,
            dead_mask=self._dead, dead_links=self._link_dead, hop=hop,
        )
        count = lens.size
        at = validate_arrivals(
            at, count, cycle=self.cycle, pending=self._pending_until()
        )
        if count == 0:
            return np.zeros(0, dtype=_I64)
        latest = self.cycle if at is None else int(at[-1])
        if latest + self._flat_len + flat.size > _MAX_DEPART:
            raise SimulationError(
                f"departures past cycle {_MAX_DEPART} (2**31 - 1) do not fit "
                f"the calendar key: arrivals until cycle {latest} with "
                f"{self._flat_len + flat.size} route positions"
            )
        if at is not None:
            self._last_arrival = latest

        pid0 = self._n_packets
        base_flat = self._flat_len
        pids = np.arange(pid0, pid0 + count, dtype=_I64)
        self._flat = self._ensure(self._flat, base_flat, flat.size)
        self._flat[base_flat: base_flat + flat.size] = flat
        self._hop = self._ensure(self._hop, base_flat, flat.size)
        self._hop[base_flat: base_flat + flat.size] = hop
        self._off = self._ensure(self._off, pid0 + 1, count)
        self._off[pid0 + 1: pid0 + 1 + count] = offsets[1:] + base_flat
        self._injected_at = self._ensure(self._injected_at, pid0, count)
        self._injected_at[pid0: pid0 + count] = self.cycle if at is None else at
        self._delivered_at = self._ensure(self._delivered_at, pid0, count)
        dv = self._delivered_at[pid0: pid0 + count]
        dv[:] = -1
        single = lens == 1  # degenerate self-delivery
        dv[single] = self.cycle if at is None else at[single]
        self._dropped = self._ensure(self._dropped, pid0, count)
        self._dropped[pid0: pid0 + count] = False
        self._n_packets += count
        self._flat_len += flat.size
        multi = ~single
        if multi.any():
            start = offsets[:-1][multi]
            # the first row is a placeholder for the key _join writes; a
            # pending block keeps the arrival cycles there
            block = np.stack([start, pids[multi], start + base_flat])
            now = block.shape[1]
            if at is not None:
                block[0] = at[multi]
                now = int(block[0].searchsorted(self.cycle, "right"))
                if now < block.shape[1]:
                    later = block[:, now:]
                    self._pending = later if self._pending is None else (
                        np.concatenate([self._pending, later], axis=1)
                    )
            if now:
                self._join(block[:, :now], hop[start[:now]])
        return pids

    @staticmethod
    def _ensure(arr: np.ndarray, used: int, extra: int) -> np.ndarray:
        """Grow ``arr`` (first ``used`` entries live) to hold ``extra``
        more.  Capacities are powers of two (at least 1024): repeated
        injections stay amortized linear, and the records take the same
        memory whether they arrive a cycle or a fault epoch at a time."""
        need = used + extra
        if need <= arr.size:
            return arr
        out = np.empty(1 << max(need - 1, 1023).bit_length(), dtype=arr.dtype)
        out[:used] = arr[:used]
        return out

    # -- queue schedule ------------------------------------------------------

    def _join(self, moved: np.ndarray, q: np.ndarray) -> None:
        """Enqueue packets on queues ``q`` at the current cycle.
        ``moved`` is a ``(3, k)`` array whose pid/ptr rows list them in
        FIFO processing order (its key row is overwritten): one segmented
        pass computes every packet's exact departure slot, and all
        joiners enter the calendar as one key-sorted run."""
        size = q.size
        idx = np.arange(size, dtype=_I64)
        # group by queue, FIFO within: the index breaks ties, so the fast
        # unstable sort applies
        order = np.argsort(q << _LOW | idx)
        q = q[order]
        first = np.empty(size, dtype=bool)
        first[0] = True
        np.not_equal(q[1:], q[:-1], out=first[1:])
        starts = first.nonzero()[0]
        group = np.cumsum(first) - 1
        eid = q[starts]
        cap = self.link_capacity
        base = np.maximum((self.cycle + 1) * cap, self._q_free[eid])
        self._q_free[eid] = base + np.bincount(group)
        depart, place = np.divmod((base - starts)[group] + idx, cap)
        key = (depart << _LOW) + (eid * cap)[group] + place
        korder = np.argsort(key)
        run = moved.take(order[korder], axis=1)
        run[0] = key[korder]
        self._in_flight += size
        self._push(run)

    def _push(self, run: np.ndarray) -> None:
        """File a key-sorted run, merging it into the runs before it
        while they are no more than twice its size: the runs stay
        size-tiered, so a calendar of N packets holds O(log N) of them."""
        runs = self._runs
        while runs and runs[-1].shape[1] <= 2 * run.shape[1]:
            run = np.concatenate([runs.pop(), run], axis=1)
            run = run.take(np.argsort(run[0], kind="stable"), axis=1)
        runs.append(run)

    # -- execution ----------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Packets currently queued on some link (pending arrivals join
        a queue only at their arrival cycle)."""
        return self._in_flight

    def next_departure_cycle(self) -> int | None:
        """The earliest future cycle with a scheduled departure, or
        ``None`` when nothing is in flight.

        This is the calendar's read side: a cycle is returned iff some
        packet departs its current link exactly then.  Pending arrivals
        wait outside the calendar, so a caller may jump the clock
        straight to ``returned - 1`` and :meth:`step` once without
        skipping any work only if no arrival is pending before the
        returned cycle; :meth:`run` checks both.
        """
        if not self._runs:
            return None
        return min(int(run[0, 0]) for run in self._runs) >> _LOW

    def _arrivals(self) -> np.ndarray | None:
        """Pop the pending arrivals due at the clock: a ``(3, k)`` array
        of (arrival cycle, pid, ptr) columns in injection order, or
        ``None`` when none is due."""
        pend = self._pending
        if pend[0, 0] > self.cycle:
            return None
        j = int(pend[0].searchsorted(self.cycle, "right"))
        self._pending = pend[:, j:] if j < pend.shape[1] else None
        return pend[:, :j]

    def _take(self, last: int) -> np.ndarray | None:
        """Remove every calendar entry departing at or before ``last``
        and return them as one ``(3, k)`` array in key order — the
        model's service order: cycle, queue, FIFO."""
        bound = (last << _LOW) | _LOW_MASK
        parts, keep = [], []
        for run in self._runs:
            j = run[0].searchsorted(bound, "right") if run[0, 0] <= bound else 0
            if j:
                parts.append(run[:, :j])
            if j < run.shape[1]:
                keep.append(run[:, j:])
        self._runs = keep
        if len(parts) < 2:
            return parts[0] if parts else None
        due = np.concatenate(parts, axis=1)
        return due.take(np.argsort(due[0], kind="stable"), axis=1)

    def _settle(self, due: np.ndarray, fresh: np.ndarray | None = None) -> int:
        """Process taken departures ``due`` (key order): stamp deliveries
        with each packet's departure cycle, mark drops, join the
        continuers and then ``fresh`` (this cycle's arrivals, see
        :meth:`_arrivals`) behind them, and leave the clock on the last
        departure.  Returns the delivery count."""
        pid, ptr = due[1], due[2] + 1
        q = self._hop[ptr]
        deliver = (q < 0) & ~self._dead[self._flat[ptr]]
        cont = ~self._blocked[q]
        delivered = int(np.count_nonzero(deliver))
        if delivered:
            self._delivered_at[pid[deliver]] = due[0, deliver] >> _LOW
        drop = ~(deliver | cont)
        if drop.any():
            self._dropped[pid[drop]] = True
        self._in_flight -= pid.size  # taken; continuers re-add via _join
        self.cycle = int(due[0, -1] >> _LOW)
        if cont.any():
            moved = due.compress(cont, axis=1)
            moved[2] += 1
            q = q[cont]
            if fresh is not None:
                moved = np.concatenate([moved, fresh], axis=1)
                q = np.concatenate([q, self._hop[fresh[2]]])
            self._join(moved, q)
        elif fresh is not None:
            self._join(fresh, self._hop[fresh[2]])
        return delivered

    def step(self) -> int:
        """Advance one cycle; returns the number of packets delivered.

        Calendar invariants the implementation maintains (see the module
        docstring for why these make departure slots exact):

        * every in-flight packet holds exactly one key, in exactly one
          run, and no key departs before the clock;
        * ascending key order is the model's service order —
          cycle, then ``u * n + v`` queue key, then FIFO — so a step
          takes each run's due prefix and needs no sort beyond merging
          them;
        * a killed queue (dead node or link) has an empty schedule, so a
          queue revived by :meth:`enable_node` starts with no backlog;
        * the blocked mask equals "dead endpoint or dead link" for every
          queue, so one gather decides which arrivals continue;
        * continuing packets re-enter the calendar via one segmented
          :meth:`_join` pass that consumes capacity slots per queue,
          followed in the same pass by the arrivals pending for this
          cycle;
        * pending arrivals hold no key: each is due after the clock, and
          no fault changes the state their routes were validated in.
        """
        self.cycle += 1
        due = self._take(self.cycle)
        fresh = None if self._pending is None else self._arrivals()
        if due is None:
            if fresh is not None:
                self._join(fresh, self._hop[fresh[2]])
            return 0
        return self._settle(due, fresh)

    def _step_coalesced(self, stop: int, limit: int = 64) -> bool:
        """Process the departures of up to ``limit`` upcoming cycles in
        one vectorized pass, bit-identical to stepping them one at a
        time.

        The contention phase of a hotspot drain schedules thousands of
        near-empty cycles — a handful of packets trickling out of a few
        backlogged queues — and :meth:`step` pays its fixed NumPy
        overhead for every one of them.  A window of cycles can be
        settled wholesale exactly when no packet in it can interact with
        a *later cycle inside the window*: every continuer's next queue
        must already be booked through the window's last cycle (its next
        free service slot ``_q_free[q]``, counted in ``link_capacity``
        slots per cycle, is ``>= (last + 1) * link_capacity``), so each
        join lands strictly after the window, per-queue FIFO order is
        untouched, and the slot
        arithmetic reduces to the same segmented :meth:`_join` the
        per-cycle path runs — in key order, which is cycle-major service
        order.  Terminal packets (deliver or drop) never touch queue
        state and are always safe.

        The window is cut before the cycle of its first offender and
        the rest goes back to the calendar as one run; when the first
        cycle itself holds an offender, that cycle alone is processed,
        exactly as :meth:`step` would.  No departure past ``stop`` (the
        budget, the caller's ``until`` or the cycle before a pending
        arrival) is taken, and at most about 4096 packets are.  Returns
        whether a window of more than the first cycle was settled.
        """
        first = self.next_departure_cycle()
        due = self._take(min(first + limit - 1, stop, _MAX_DEPART))
        # whole cycles up to the 4096th packet
        last = int(due[0, min(due.shape[1], 4096) - 1] >> _LOW)
        q = self._hop[due[2] + 1]
        booked = self._q_free[q] >= (last + 1) * self.link_capacity
        late = np.flatnonzero(~(self._blocked[q] | booked))
        if late.size and (bad := int(due[0, late[0]] >> _LOW)) <= last:
            # shrink to the cycles before the first offender's (their
            # checks ran against a later cycle — stricter); with the
            # offender in the first cycle, settle that cycle as a step
            last = bad - 1 if bad > first else first
        cut = int(due[0].searchsorted((last << _LOW) | _LOW_MASK, "right"))
        if cut < due.shape[1]:
            self._push(due[:, cut:])
        self._settle(due[:, :cut])
        return last > first

    def run(self, max_cycles: int = 1_000_000, *,
            until: int | None = None) -> None:
        """Step until all traffic drains (delivered or dropped), skipping
        straight over cycles where nothing is scheduled to move.
        Pending arrivals are traffic too: the run steps to each arrival
        cycle, where they join.  Returns nothing: a drain driver calls
        ``run`` once per event, so the summary is left to :meth:`stats`.

        With ``until``, process exactly the departures and arrivals at
        cycles ``<= until``: the clock ends at ``until`` while traffic
        remains, or at the last departure if the calendar empties (and no
        arrival is pending) first, and ``until <= cycle`` is a no-op.
        This is how a driver stops on the cycle of its next scheduled
        event and keeps the kernels below for everything in between.
        :class:`SimulationError` is raised when the clock would have to
        pass cycle ``start + max_cycles`` with traffic still in flight or
        pending — the condition the witness engine's per-cycle loop
        raises under.

        After its first 32 steps (a shorter run never probes: the first
        cycles of a fresh drain carry the injected bulk, which never
        coalesces), the drain loop tries :meth:`_step_coalesced`, which
        batches windows of consecutive cycles whose joins provably land
        past the window (the congested middle and the contention tail of
        a drain), with a short exponential backoff while the condition
        fails (early drain, uncongested queues).  A window ends before
        the next pending arrival, and an arrival cycle is always a
        :meth:`step`.
        """
        start = self.cycle
        if until is not None and until <= start:
            return
        limit = start + max_cycles
        stop = limit if until is None else min(until, limit)
        window_after = 32
        wbackoff = 8
        retry = False
        while self._in_flight or self._pending is not None:
            upcoming = self.next_departure_cycle()
            wstop = stop
            if self._pending is not None:
                arrive = int(self._pending[0, 0])
                if upcoming is None or arrive <= upcoming:
                    if arrive > stop:
                        break
                    self.cycle = arrive - 1
                    self.step()
                    continue
                wstop = min(stop, arrive - 1)
            if upcoming > stop:
                break
            if window_after > 0:
                window_after -= 1
                self.cycle = upcoming - 1
                self.step()
            elif self._step_coalesced(wstop):
                wbackoff = 8
                retry = True
            elif retry:
                # in a congested drain a window usually fails on one
                # offending front cycle that the failed call settled, so
                # the first failure after a window gets a free retry;
                # other failures (early drain, uncongested queues — every
                # window has a join landing inside it) back off
                # exponentially
                retry = False
            else:
                window_after = wbackoff
                wbackoff = min(wbackoff * 2, 256)
        if self._in_flight or self._pending is not None:
            if until is None or until > limit:
                raise SimulationError(
                    f"simulation did not drain within {max_cycles} cycles"
                )
            self.cycle = until

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
        """Structure-of-arrays view of every packet injected so far
        (pending arrivals included, stamped with their arrival cycle)."""
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
