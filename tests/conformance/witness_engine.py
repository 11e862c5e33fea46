"""The witness engine: the store-and-forward model one packet at a time.

:class:`NetworkSimulator` runs the model :mod:`repro.simulator.batch_engine`
documents (unit-time links, ``link_capacity`` packets per directed link
per cycle, FIFO per link, source routing, links served in sorted key
order) with one Python :class:`~repro.simulator.packets.Packet` per
message and one deque per link, advancing one cycle per :meth:`step`.
It is too slow to ship, and simple enough to read line by line, so the
test suite holds the shipped :class:`~repro.simulator.batch_engine.BatchEngine`
to it: identical per-packet delivery cycles, drop decisions and
:class:`~repro.simulator.metrics.RunStats` on the same (graph,
injections, fault schedule).  Both engines share the injection
validator (:func:`~repro.simulator.batch_engine.validate_injection`), so
they refuse a bad batch naming the same offender.

:func:`tests.conformance.harness.on_engine` swaps it into a fault
controller.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import SimulationError
from repro.graphs.static_graph import StaticGraph
from repro.simulator.batch_engine import validate_arrivals, validate_injection
from repro.simulator.metrics import PacketArrays, RunStats, summarize
from repro.simulator.packets import Packet

__all__ = ["NetworkSimulator"]


class NetworkSimulator:
    """Synchronous packet simulator over a :class:`StaticGraph`.

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
        self.packets: list[Packet] = []
        self._queues: dict[tuple[int, int], deque] = {}
        self._dead: set[int] = set()
        self._dead_links: set[tuple[int, int]] = set()
        self._next_pid = 0
        # timed multi-hop arrivals due after the clock, in arrival order
        self._pending: deque[tuple[int, Packet]] = deque()
        # latest timed arrival cycle, single-node routes included
        self._last_arrival = -1

    # -- configuration ------------------------------------------------------

    def _pending_until(self) -> int | None:
        """The latest timed arrival cycle while arrivals are pending (one
        is after the clock or waiting to join), else ``None``."""
        if not self._pending and self._last_arrival <= self.cycle:
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

    def disable_node(self, v: int) -> int:
        """Mark a node dead mid-run.  All packets currently queued on links
        into or out of ``v`` are dropped (they were in the failed router).
        Returns the number of packets dropped.

        Raises :class:`SimulationError` when ``v`` is not a node of the
        graph, so a typo'd fault scenario fails loudly instead of silently
        doing nothing, and while arrivals are pending."""
        v = int(v)
        if not 0 <= v < self.graph.node_count:
            raise SimulationError(
                f"cannot disable node {v}: not a node of the graph "
                f"[0, {self.graph.node_count})"
            )
        self._refuse_if_pending(f"disable node {v}")
        self._dead.add(v)
        dropped = 0
        for (a, b), q in list(self._queues.items()):
            if a == v or b == v:
                for pkt, _arr, _hop in q:
                    pkt.dropped = True
                    dropped += 1
                del self._queues[(a, b)]
        return dropped

    def enable_node(self, v: int) -> None:
        """Return a disabled node to service (a ``node_repair`` event):
        routes through ``v`` are accepted again from the next injection
        on.  Packets dropped while it was dead stay dropped — repair is
        not resurrection.

        Raises :class:`SimulationError` when ``v`` is out of range or was
        never disabled, so a mis-scheduled repair fails loudly, and while
        arrivals are pending."""
        v = int(v)
        if not 0 <= v < self.graph.node_count:
            raise SimulationError(
                f"cannot enable node {v}: not a node of the graph "
                f"[0, {self.graph.node_count})"
            )
        if v not in self._dead:
            raise SimulationError(f"cannot enable node {v}: it is not disabled")
        self._refuse_if_pending(f"enable node {v}")
        self._dead.discard(v)

    @property
    def dead_nodes(self) -> frozenset[int]:
        """Nodes disabled so far (routes touching them are rejected at
        injection and their queued packets were dropped)."""
        return frozenset(self._dead)

    def disable_link(self, u: int, v: int) -> int:
        """Fail the undirected link {u, v} mid-run (paper §I: an edge
        fault; tolerated at the construction level by marking an incident
        node faulty — see :mod:`repro.core.edge_faults`).  Packets queued
        on either direction are dropped; returns the drop count.

        Raises :class:`SimulationError` when ``{u, v}`` is not an edge of
        the graph (a typo'd fault scenario would otherwise pass untested)
        and while arrivals are pending."""
        u, v = int(u), int(v)
        n = self.graph.node_count
        if not (0 <= u < n and 0 <= v < n):
            raise SimulationError(
                f"cannot disable link ({u}, {v}): endpoint out of range [0, {n})"
            )
        if not self.graph.has_edge(u, v):
            raise SimulationError(
                f"cannot disable link ({u}, {v}): not an edge of the graph"
            )
        self._refuse_if_pending(f"disable link ({u}, {v})")
        self._dead_links.add((u, v))
        self._dead_links.add((v, u))
        dropped = 0
        for key in ((u, v), (v, u)):
            q = self._queues.pop(key, None)
            if q:
                for pkt, _arr, _hop in q:
                    pkt.dropped = True
                    dropped += 1
        return dropped

    # -- injection ------------------------------------------------------------

    def _fault_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """The fault state as :func:`validate_injection` reads it: a
        dead-node mask and a dead-link mask over CSR slots."""
        dead = np.zeros(self.graph.node_count, dtype=bool)
        dead[list(self._dead)] = True
        links = np.zeros(self.graph.col_indices.size, dtype=bool)
        if self._dead_links:
            us, vs = zip(*self._dead_links)
            links[self.graph.directed_edge_slots(us, vs)] = True
        return dead, links

    def _commit_route(self, route: list[int], at: int | None = None) -> Packet:
        arrive = self.cycle if at is None else at
        pkt = Packet(self._next_pid, route, arrive)
        self._next_pid += 1
        self.packets.append(pkt)
        if len(route) == 1:
            pkt.delivered_at = arrive  # degenerate self-delivery
        elif arrive > self.cycle:
            self._pending.append((arrive, pkt))
        else:
            self._enqueue(pkt, 0)
        return pkt

    def inject_route(self, route: list[int]) -> Packet:
        """Inject one packet with an explicit physical route (a node
        list; ``route[0]`` is the source, ``route[-1]`` the destination).

        Every hop must be an edge, and the route may touch no dead node
        or dead link.  A single-node route is a degenerate self-delivery
        at the current cycle.  Returns the live :class:`Packet` record."""
        flat = np.array([int(v) for v in route], dtype=np.int64)
        return self.inject_routes(flat, np.array([0, flat.size]))[0]

    def inject_routes(
        self, flat: np.ndarray, offsets: np.ndarray, *,
        at: np.ndarray | None = None, hop: np.ndarray | None = None,
    ) -> list[Packet]:
        """Inject a batch of packets in the flattened ``(flat, offsets)``
        layout shared with :class:`repro.simulator.batch_engine.BatchEngine`
        (see :func:`repro.simulator.batch_engine.pack_routes`).

        Validation is all-or-nothing and the batch engine's own
        (:func:`~repro.simulator.batch_engine.validate_injection`): the
        whole batch is checked before the first packet is injected, so an
        invalid route leaves no partial state behind and both engines
        name the same offender.  ``at`` gives each packet an arrival
        cycle, with the batch engine's rules: packets arriving after the
        clock are pending, and :meth:`step` enqueues them at their cycle
        behind that cycle's continuers.  Supplied ``hop`` slots pass the
        same check and must equal the slots this engine's own search
        finds; its queues stay keyed by ``(u, v)``."""
        dead, dead_links = self._fault_masks()
        flat, offsets, lens, slots = validate_injection(
            self.graph, flat, offsets,
            dead_mask=dead, dead_links=dead_links, hop=hop,
        )
        if hop is not None:
            searched = validate_injection(
                self.graph, flat, offsets,
                dead_mask=dead, dead_links=dead_links,
            )[3]
            assert np.array_equal(slots, searched), "supplied slots != searched"
        count = lens.size
        bounds = offsets.tolist()
        flat = flat.tolist()
        routes = [flat[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
        at = validate_arrivals(
            at, count, cycle=self.cycle, pending=self._pending_until()
        )
        if at is None:
            return [self._commit_route(route) for route in routes]
        if count:
            self._last_arrival = int(at[-1])
        return [self._commit_route(r, int(c)) for r, c in zip(routes, at)]

    def _enqueue(self, pkt: Packet, hop_index: int) -> None:
        key = (pkt.route[hop_index], pkt.route[hop_index + 1])
        self._queues.setdefault(key, deque()).append((pkt, self.cycle, hop_index))

    # -- execution --------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Packets currently queued on some link (pending arrivals join
        a queue only at their arrival cycle)."""
        return sum(len(q) for q in self._queues.values())

    def step(self) -> int:
        """Advance one cycle; returns the number of packets delivered.
        The arrivals pending for the new cycle join their first queue
        last, behind the cycle's continuers."""
        self.cycle += 1
        delivered = 0
        moved: list[tuple[Packet, int]] = []
        for key in sorted(self._queues.keys()):
            q = self._queues[key]
            budget = self.link_capacity
            while budget and q and q[0][1] < self.cycle:
                pkt, _arr, hop = q.popleft()
                moved.append((pkt, hop + 1))
                budget -= 1
            if not q:
                del self._queues[key]
        for pkt, hop in moved:
            node = pkt.route[hop]
            if node in self._dead:
                pkt.dropped = True
                continue
            if hop == len(pkt.route) - 1:
                pkt.delivered_at = self.cycle
                delivered += 1
            else:
                nxt = pkt.route[hop + 1]
                if nxt in self._dead or (node, nxt) in self._dead_links:
                    pkt.dropped = True
                    continue
                self._enqueue(pkt, hop)
        while self._pending and self._pending[0][0] <= self.cycle:
            self._enqueue(self._pending.popleft()[1], 0)
        return delivered

    def run(self, max_cycles: int = 1_000_000, *,
            until: int | None = None) -> None:
        """Step until all traffic drains (delivered or dropped) or, with
        ``until``, while traffic is in flight or pending and
        ``cycle < until``.  Raises :class:`SimulationError` when traffic
        is still in flight or pending after cycle ``start + max_cycles``.
        Returns nothing; :meth:`stats` summarizes the run."""
        start = self.cycle
        while (self.in_flight or self._pending) and (
            until is None or self.cycle < until
        ):
            if self.cycle - start >= max_cycles:
                raise SimulationError(
                    f"simulation did not drain within {max_cycles} cycles"
                )
            self.step()

    def packet_records(self) -> PacketArrays:
        """Structure-of-arrays view of every packet injected so far (the
        same accessor :meth:`BatchEngine.packet_records` offers)."""
        return PacketArrays.from_packets(self.packets)

    def stats(self) -> RunStats:
        """Aggregate statistics over everything injected so far."""
        return summarize(self.packets, self.cycle)
