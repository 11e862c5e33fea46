"""Lossless conversion between :class:`StaticGraph` and :mod:`networkx`.

networkx is used for *cross-validation only* (independent implementations
of isomorphism, connectivity, diameter) — the library's own kernels carry
all hot paths.  The bridge lives with the tests because networkx is a
test dependency: the package imports and simulates with numpy alone.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.errors import GraphFormatError
from repro.graphs.static_graph import StaticGraph

__all__ = ["to_networkx", "from_networkx", "nx_node_connectivity", "nx_is_subgraph_isomorphic"]


def to_networkx(g: StaticGraph) -> nx.Graph:
    """Convert to an undirected :class:`networkx.Graph` with integer nodes.

    The edge list is handed over as one ``(E, 2)`` array materialized from
    the CSR planes (:meth:`~repro.graphs.static_graph.StaticGraph.edges`)
    — python-level per-edge work happens only inside networkx itself.
    """
    out = nx.Graph()
    out.add_nodes_from(range(g.node_count))
    out.add_edges_from(g.edges().tolist())
    return out


def from_networkx(g: nx.Graph) -> StaticGraph:
    """Convert an undirected networkx graph with nodes ``0..n-1`` back to a
    :class:`StaticGraph` (raises on non-integer or gapped labelings)."""
    n = g.number_of_nodes()
    labels = set(g.nodes())
    if labels != set(range(n)):
        raise GraphFormatError(
            "from_networkx requires integer node labels 0..n-1; "
            "relabel with nx.convert_node_labels_to_integers first"
        )
    m = g.number_of_edges()
    flat = np.fromiter(
        (x for uv in g.edges() for x in uv), dtype=np.int64, count=2 * m
    )
    # the StaticGraph constructor canonicalizes (drops self-loops, dedups)
    return StaticGraph(n, flat.reshape(m, 2))


def nx_node_connectivity(g: StaticGraph) -> int:
    """Exact node connectivity via networkx max-flow (small graphs only)."""
    return int(nx.node_connectivity(to_networkx(g)))


def nx_is_subgraph_isomorphic(pattern: StaticGraph, host: StaticGraph) -> bool:
    """Independent subgraph-monomorphism decision via networkx VF2.

    Used to cross-check :func:`repro.graphs.isomorphism.find_embedding`.
    """
    gm = nx.algorithms.isomorphism.GraphMatcher(
        to_networkx(host), to_networkx(pattern)
    )
    return bool(gm.subgraph_is_monomorphic())
