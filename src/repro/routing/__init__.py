"""Routing: how logical messages become physical node paths.

Four families, all emitting routes the simulation engines inject
directly (single paths as node lists, batches as flattened
``(flat, offsets)`` int64 arrays):

* **shift-register** (:mod:`~repro.routing.shift_register`) — the
  analytic de Bruijn route: shift in the destination's digits, at most
  ``h`` hops; scalar (:func:`shift_route`) and closed-form batch
  (:func:`shift_route_batch`) forms.
* **BFS shortest paths** (:mod:`~repro.routing.shortest_path`) — exact
  hop-optimal paths and the parent trees tables compile from.
* **compiled tables** (:mod:`~repro.routing.tables`) — pickle-safe
  all-pairs next-hop tables (:class:`RouteTable`) that store each hop
  as a ``uint8`` CSR slot rank (``n**2`` bytes on every de Bruijn and
  shuffle-exchange machine): compile once per fault set, extract
  whole batches vectorized; :meth:`RouteTable.next_hops` decodes the
  int64 node-id view.
* **fault routing** (:mod:`~repro.routing.fault_routing`) — the paper's
  reconfigured lift (:class:`ReconfiguredRouter`,
  :func:`lifted_routes_batch`: route on the intact logical graph, lift
  through φ, zero dilation, each hop's physical queue id read from
  φ's edge map :func:`lift_slot_table`) vs the spare-less baseline
  (:func:`survivor_route_table`: a table compiled per routed batch that
  routes around faults in the survivor graph).
"""

from repro.routing.shift_register import (
    overlap_length,
    overlap_length_batch,
    route_length,
    route_length_matrix,
    shift_route,
    shift_route_batch,
)
from repro.routing.shortest_path import (
    bfs_parents,
    eccentricity,
    extract_path,
    shortest_path,
)
from repro.routing.tables import (
    UNREACHABLE,
    RouteTable,
    compile_routing_table,
    validate_routing_table,
)
from repro.routing.fault_routing import (
    ReconfiguredRouter,
    lift_slot_table,
    lifted_routes_batch,
    survivor_route_table,
)

__all__ = [
    "overlap_length",
    "overlap_length_batch",
    "shift_route",
    "shift_route_batch",
    "route_length",
    "route_length_matrix",
    "bfs_parents",
    "extract_path",
    "shortest_path",
    "eccentricity",
    "UNREACHABLE",
    "RouteTable",
    "compile_routing_table",
    "validate_routing_table",
    "ReconfiguredRouter",
    "lift_slot_table",
    "lifted_routes_batch",
    "survivor_route_table",
]
