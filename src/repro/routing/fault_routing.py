"""Routing on faulty machines: the reconfigured lift vs. naive detours.

Two strategies are implemented, matching the paper's motivation (§I: in a
constant-degree network "a single processor or link failure can severely
degrade the performance"):

* :class:`ReconfiguredRouter` — the paper's answer.  Logical traffic is
  routed on the *intact* target ``B_{m,h}`` (shift-register or table
  routes) and the path is lifted through the reconfiguration map φ; every
  lifted hop is a physical edge of ``B^k_{m,h}`` by Theorem 1/2, so path
  lengths are *identical* to the fault-free machine.
* :func:`survivor_route_table` — the spare-less baseline: route around
  faults inside the surviving subgraph of the bare target graph.  Paths
  stretch, and with enough faults the survivor graph disconnects
  (Esfahanian–Hakimi territory); the paper-figures ``motiv`` and ``dil``
  tables quantify the gap.
"""

from __future__ import annotations

import numpy as np

from repro.core.debruijn import debruijn
from repro.core.fault_tolerant import ft_debruijn
from repro.core.reconfiguration import Reconfigurator
from repro.errors import RoutingError
from repro.graphs.static_graph import StaticGraph
from repro.routing.shift_register import shift_route, shift_windows_batch

__all__ = [
    "ReconfiguredRouter",
    "lift_slot_table",
    "lifted_routes_batch",
    "survivor_route_table",
]


def lift_slot_table(graph: StaticGraph, m: int, phi: np.ndarray) -> np.ndarray:
    """The lift as an edge map: entry ``u * m + d`` is the CSR slot in
    ``graph`` (the physical ``B^k_{m,h}``) of the logical de Bruijn edge
    ``u -> (m*u + d) mod n`` lifted through ``φ``, or ``-1`` where the
    lift is no edge (a logical self-loop, which no shift route takes).

    One :meth:`~repro.graphs.static_graph.StaticGraph.directed_edge_slots`
    search over the ``n * m`` logical edges: built per routed batch, it
    resolves every hop :func:`lifted_routes_batch` lifts by a gather.
    A stack of ``R`` maps, ``phi`` of shape ``(R, n)``, gives the
    ``(R, n * m)`` tables of all of them from one search; with row ``r``
    shifted into copy ``r`` of a
    :meth:`~repro.graphs.static_graph.StaticGraph.block_union`, the
    tables are in the union's slots."""
    phi = np.asarray(phi, dtype=np.int64)
    n = phi.shape[-1]
    heads = ((m * np.arange(n, dtype=np.int64)[:, None] + np.arange(m)) % n).ravel()
    slots = graph.directed_edge_slots(np.repeat(phi, m, axis=-1), phi.take(heads, axis=-1))
    return slots.reshape(phi.shape[:-1] + (n * m,))


def lifted_routes_batch(
    m: int, h: int, phi: np.ndarray, srcs: np.ndarray, dsts: np.ndarray,
    slots: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shift-register routes for a batch of logical pairs, lifted through
    the reconfiguration map ``φ``, with their queue ids.

    Returns ``(flat, offsets, hop)``: ``(flat, offsets)`` in the
    :func:`repro.routing.shift_register.shift_route_batch` layout, and
    ``hop[i]`` the physical CSR slot of the hop leaving position ``i``
    (``-1`` at each route's end), gathered from ``slots``, the
    :func:`lift_slot_table` of ``φ``, at each position's logical edge
    (its :func:`~repro.routing.shift_register.shift_windows_batch`
    window).  Ready for
    ``BatchEngine.inject_routes(flat, offsets, hop=hop)``, which checks
    every slot against its hop.

    A stack of maps (``phi`` of shape ``(R, n)``, ``slots`` their
    ``(R, n * m)`` tables) lifts the same pairs through each of them
    from one window pass: ``flat`` and ``hop`` are then ``(R, L)``, row
    ``r`` the lift through ``phi[r]``, and ``offsets`` is every row's."""
    win, offsets = shift_windows_batch(srcs, dsts, m, h)
    hop = slots.take(win, axis=-1)
    hop.T[offsets[1:] - 1] = -1  # route ends: the last axis, of one map or a stack
    win //= m  # the logical nodes
    return phi.take(win, axis=-1), offsets, hop


class ReconfiguredRouter:
    """Routes on a reconfigured fault-tolerant de Bruijn machine.

    Parameters
    ----------
    m, h, k:
        Construction parameters of the underlying ``B^k_{m,h}``.

    Logical endpoints are target-graph nodes ``0..m^h - 1``; physical
    routes are returned in fault-tolerant-graph coordinates.
    """

    def __init__(self, m: int, h: int, k: int):
        self.m, self.h, self.k = int(m), int(h), int(k)
        self.target = debruijn(m, h)
        self.ft = ft_debruijn(m, h, k)
        self.reconfigurator = Reconfigurator(self.ft.node_count, self.target.node_count)

    def fail_node(self, physical: int) -> None:
        """Report a physical node failure; the remap updates immediately."""
        self.reconfigurator.fail_node(physical)

    def repair_node(self, physical: int) -> None:
        """Return a physical node to service."""
        self.reconfigurator.repair_node(physical)

    def logical_route(self, src: int, dst: int) -> list[int]:
        """Shift-register route in target coordinates (<= h hops)."""
        return shift_route(src, dst, self.m, self.h)

    def physical_route(self, src: int, dst: int) -> list[int]:
        """The lifted route ``[φ(v) for v in logical_route]``.

        Raises :class:`RoutingError` if any lifted hop is missing from the
        fault-tolerant graph — which Theorems 1/2 guarantee cannot happen
        (the check is kept as a runtime invariant).
        """
        phi = self.reconfigurator.phi()
        route = [int(phi[v]) for v in self.logical_route(src, dst)]
        for a, b in zip(route, route[1:]):
            if a != b and not self.ft.has_edge(a, b):
                raise RoutingError(
                    f"lifted hop ({a}, {b}) missing — invariant violated"
                )
        return route

    def route_length(self, src: int, dst: int) -> int:
        """Hops of the reconfigured route — equal to the fault-free length
        (reconfiguration costs zero dilation; contrast with detours)."""
        return len(self.physical_route(src, dst)) - 1


def survivor_route_table(g: StaticGraph, faults) -> "RouteTable":
    """Compile a detour :class:`~repro.routing.tables.RouteTable` for the
    survivor graph of ``g`` under ``faults``, in *original* node ids.

    The table keeps all ``n`` rows/columns (so batch extraction needs no
    id remapping) and its ranks index ``g``'s own CSR rows, but it is
    compiled as if every faulty node were absent: a faulty or
    disconnected endpoint simply yields the rank sentinel — including a
    faulty node's *diagonal*, so :meth:`RouteTable.reachable` refuses
    even the trivial self-route to a dead endpoint.  Routes are
    hop-optimal in the survivor graph, and each is the path a per-pair
    BFS there returns (see :meth:`RouteTable.compile` for why the two
    are the same; the conformance suite checks it route for route).

    :class:`repro.simulator.faults.DetourController` compiles one for
    each routed batch, against the survivors of the moment (a block,
    one per distinct fault set), and keeps none.  It is
    :meth:`RouteTable.compile` with ``faulty=faults``: no survivor graph
    or masked CSR is ever built.
    """
    from repro.routing.tables import RouteTable

    return RouteTable.compile(g, faulty=faults)
