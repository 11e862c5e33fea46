"""Cycle-accurate bus-architecture simulator (paper Section V).

Same packet/route model as the point-to-point
:class:`~repro.simulator.batch_engine.BatchEngine`, but transmission is
bus-mediated under the paper's *restricted usage*: a node only transmits
on the bus it owns, and "only a single value can be transmitted over the
bus in unit time".  Consequently a node that wants to send two different
values in one cycle — legal on point-to-point links — serializes, which
is exactly the source of the paper's ≈2x worst-case slowdown (and of the
no-slowdown case when each processor sends a single value per cycle: both
successors hear the same bus word at once; broadcasts on a bus are free).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

import numpy as np

from repro.errors import SimulationError
from repro.graphs.hypergraph import BusHypergraph
from repro.simulator.metrics import PacketArrays, ShardStats
from repro.simulator.packets import Packet

__all__ = ["BusNetworkSimulator"]


class BusNetworkSimulator:
    """Synchronous simulator over a :class:`BusHypergraph` with owners.

    Routes are node sequences; hop ``(u, v)`` is transmitted on the bus
    owned by ``u`` and requires ``v`` to be a member of that bus.
    """

    def __init__(self, bus_graph: BusHypergraph, *, combine_broadcasts: bool = True):
        if bus_graph.owners is None:
            raise SimulationError("bus simulation requires owner-restricted buses")
        self.bus_graph = bus_graph
        #: when True, packets queued on the same bus by the same transmitter
        #: with the same ``word`` id ride one transaction (bus broadcast).
        self.combine_broadcasts = bool(combine_broadcasts)
        self._bus_of_owner = {int(o): b for b, o in enumerate(bus_graph.owners)}
        self.cycle = 0
        self.packets: list[Packet] = []
        self._queues: dict[int, deque] = {}  # bus id -> deque of entries
        self._dead_nodes: set[int] = set()
        self._dead_buses: set[int] = set()
        self._next_pid = 0

    # -- faults ---------------------------------------------------------------

    def disable_bus(self, b: int) -> int:
        """Fail a bus; per §V this also sidelines its owner (callers should
        reconfigure accordingly).  Queued packets on the bus drop."""
        b = int(b)
        self._dead_buses.add(b)
        dropped = 0
        if b in self._queues:
            for pkt, _arr, _hop in self._queues.pop(b):
                pkt.dropped = True
                dropped += 1
        return dropped

    def disable_node(self, v: int) -> int:
        """Fail a node: it stops transmitting (its owned bus queue drops)
        and stops receiving."""
        v = int(v)
        self._dead_nodes.add(v)
        return self.disable_bus(self._bus_of_owner[v]) if v in self._bus_of_owner else 0

    # -- injection ---------------------------------------------------------------

    def _check_hop(self, u: int, v: int) -> int:
        b = self._bus_of_owner.get(u)
        if b is None:
            raise SimulationError(f"node {u} owns no bus; cannot transmit")
        mem = self.bus_graph.bus_members(b)
        j = int(np.searchsorted(mem, v))
        if j >= mem.size or mem[j] != v:
            raise SimulationError(f"hop ({u}, {v}) not reachable on bus {b}")
        return b

    def inject_route(
        self, route: list[int], *, validate: bool = True, word: int | None = None
    ) -> Packet:
        """Inject one packet with an explicit route over buses.

        ``word`` tags the physical value carried on the first hop; packets
        with equal words from the same transmitter may share a bus cycle
        (see :attr:`combine_broadcasts`).
        """
        if len(route) < 1:
            raise SimulationError("route must contain at least the source")
        route = [int(v) for v in route]
        if validate:
            for a, b_ in zip(route, route[1:]):
                self._check_hop(a, b_)
        for v in route:
            if v in self._dead_nodes:
                raise SimulationError(f"route passes dead node {v}")
        pkt = Packet(self._next_pid, route, self.cycle, word=word)
        self._next_pid += 1
        self.packets.append(pkt)
        if len(route) == 1:
            pkt.delivered_at = self.cycle
        else:
            self._enqueue(pkt, 0)
        return pkt

    def inject(
        self,
        pairs: Iterable[tuple[int, int]] | np.ndarray,
        router: Callable[[int, int], list[int]],
        *,
        validate: bool = True,
    ) -> list[Packet]:
        """Inject a batch of (src, dst) messages routed by ``router``."""
        return [
            self.inject_route(router(int(s), int(d)), validate=validate)
            for s, d in pairs
        ]

    def _enqueue(self, pkt: Packet, hop_index: int) -> None:
        u = pkt.route[hop_index]
        b = self._bus_of_owner.get(u)
        if b is None:
            # reachable only with validate=False on hypergraphs where some
            # node owns no bus: the packet is stranded, not crashed.
            pkt.dropped = True
            return
        self._queues.setdefault(b, deque()).append((pkt, self.cycle, hop_index))

    # -- execution -----------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Packets currently queued on some bus."""
        return sum(len(q) for q in self._queues.values())

    def step(self) -> int:
        """One cycle: each healthy bus transmits one *word*.

        The head-of-queue packet rides; with :attr:`combine_broadcasts`,
        any immediately queued packets from the same transmitter carrying
        the same non-``None`` ``word`` ride the same transaction (a bus is
        a broadcast medium — every member hears the word, so fanning one
        value out to several members is a single cycle, which is why the
        paper finds "little or no slowdown" for one-value-per-cycle
        processors).
        """
        self.cycle += 1
        delivered = 0
        moved: list[tuple[Packet, int]] = []
        for b in sorted(self._queues.keys()):
            if b in self._dead_buses:
                continue
            q = self._queues[b]
            if q and q[0][1] < self.cycle:
                pkt, _arr, hop = q.popleft()
                moved.append((pkt, hop + 1))
                if self.combine_broadcasts and pkt.word is not None:
                    src = pkt.route[hop]
                    while (
                        q
                        and q[0][1] < self.cycle
                        and q[0][0].word == pkt.word
                        and q[0][0].route[q[0][2]] == src
                    ):
                        pkt2, _arr2, hop2 = q.popleft()
                        moved.append((pkt2, hop2 + 1))
            if not q:
                del self._queues[b]
        for pkt, hop in moved:
            node = pkt.route[hop]
            if node in self._dead_nodes:
                pkt.dropped = True
                continue
            if hop == len(pkt.route) - 1:
                pkt.delivered_at = self.cycle
                delivered += 1
            else:
                nxt_owner = pkt.route[hop]
                if (nxt_owner in self._dead_nodes
                        or self._bus_of_owner.get(nxt_owner) in self._dead_buses):
                    pkt.dropped = True
                    continue
                self._enqueue(pkt, hop)
        return delivered

    def run(self, max_cycles: int = 1_000_000) -> None:
        """Step until all traffic drains; :meth:`stats` summarizes the
        run."""
        start = self.cycle
        while self.in_flight:
            if self.cycle - start >= max_cycles:
                raise SimulationError(
                    f"bus simulation did not drain within {max_cycles} cycles"
                )
            self.step()

    def stats(self) -> ShardStats:
        return ShardStats.from_arrays(
            PacketArrays.from_packets(self.packets), self.cycle
        )
