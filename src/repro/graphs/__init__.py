"""Graph substrate: CSR kernel, builders, properties, embeddings, buses."""

from repro.graphs.static_graph import StaticGraph
from repro.graphs.hypergraph import BusHypergraph
from repro.graphs.builders import (
    butterfly,
    complete,
    cube_connected_cycles,
    cycle,
    grid2d,
    hypercube,
    kautz,
    path,
    star,
)
from repro.graphs.properties import (
    DegreeStats,
    average_distance,
    bfs_distances,
    connected_components,
    degree_stats,
    diameter,
    distance_matrix,
    is_connected,
    node_connectivity_lower_bound,
)
from repro.graphs.isomorphism import (
    find_embedding,
    is_subgraph_embeddable,
    verify_embedding,
)

__all__ = [
    "StaticGraph",
    "BusHypergraph",
    "hypercube",
    "cycle",
    "path",
    "complete",
    "star",
    "grid2d",
    "cube_connected_cycles",
    "butterfly",
    "kautz",
    "DegreeStats",
    "average_distance",
    "bfs_distances",
    "connected_components",
    "degree_stats",
    "diameter",
    "distance_matrix",
    "is_connected",
    "node_connectivity_lower_bound",
    "find_embedding",
    "is_subgraph_embeddable",
    "verify_embedding",
]
