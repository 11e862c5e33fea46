"""Round-trip and cross-validation tests for the networkx bridge."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import GraphFormatError
from repro.graphs import StaticGraph, hypercube

from tests.conftest import random_graph
from tests.nx_bridge import from_networkx, nx_node_connectivity, to_networkx


class TestRoundTrip:
    def test_to_networkx(self, petersen):
        nxg = to_networkx(petersen)
        assert nxg.number_of_nodes() == 10
        assert nxg.number_of_edges() == 15

    def test_round_trip_identity(self, rng):
        g = random_graph(20, 0.25, rng)
        assert from_networkx(to_networkx(g)) == g

    def test_isolated_nodes_survive(self):
        g = StaticGraph(5, [(0, 1)])
        assert from_networkx(to_networkx(g)).node_count == 5

    def test_gapped_labels_rejected(self):
        nxg = nx.Graph()
        nxg.add_edge(0, 7)
        with pytest.raises(GraphFormatError):
            from_networkx(nxg)

    def test_string_labels_rejected(self):
        nxg = nx.Graph()
        nxg.add_edge("a", "b")
        with pytest.raises(GraphFormatError):
            from_networkx(nxg)

    def test_self_loops_dropped_on_import(self):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(2))
        nxg.add_edge(0, 0)
        nxg.add_edge(0, 1)
        g = from_networkx(nxg)
        assert g.edge_count == 1


class TestConnectivity:
    def test_hypercube_connectivity(self):
        # Q_d has node connectivity exactly d.
        for d in (2, 3):
            assert nx_node_connectivity(hypercube(d)) == d

    def test_de_bruijn_connectivity_esfahanian_hakimi(self):
        # Esfahanian & Hakimi: base-2 de Bruijn connectivity is 2m - 2 = 2
        # (it contains self-loop-adjacent degree-2 nodes after loop removal).
        from repro.core import debruijn

        assert nx_node_connectivity(debruijn(2, 3)) == 2
        assert nx_node_connectivity(debruijn(2, 4)) == 2
