"""Unit tests for graph property computations, cross-validated vs networkx."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graphs import (
    StaticGraph,
    average_distance,
    bfs_distances,
    connected_components,
    cycle,
    degree_stats,
    diameter,
    distance_matrix,
    hypercube,
    is_connected,
    node_connectivity_lower_bound,
    path,
)

from tests.conftest import random_graph
from tests.nx_bridge import to_networkx


class TestBFS:
    def test_single_node(self):
        assert list(bfs_distances(StaticGraph(1), 0)) == [0]

    def test_path_distances(self):
        g = path(5)
        assert list(bfs_distances(g, 0)) == [0, 1, 2, 3, 4]
        assert list(bfs_distances(g, 2)) == [2, 1, 0, 1, 2]

    def test_unreachable_is_minus_one(self):
        g = StaticGraph(4, [(0, 1)])
        d = bfs_distances(g, 0)
        assert list(d) == [0, 1, -1, -1]

    def test_source_out_of_range(self, triangle):
        with pytest.raises(GraphFormatError):
            bfs_distances(triangle, 9)

    def test_matches_networkx(self, rng):
        g = random_graph(25, 0.15, rng)
        nxg = to_networkx(g)
        for s in (0, 5, 12):
            ours = bfs_distances(g, s)
            theirs = nx.single_source_shortest_path_length(nxg, s)
            for v in range(25):
                assert ours[v] == theirs.get(v, -1)


class TestConnectivity:
    def test_connected_cases(self, petersen):
        assert is_connected(petersen)
        assert is_connected(StaticGraph(0))
        assert is_connected(StaticGraph(1))
        assert not is_connected(StaticGraph(2))

    def test_components(self):
        g = StaticGraph(6, [(0, 1), (2, 3), (3, 4)])
        comp = connected_components(g)
        assert comp[0] == comp[1]
        assert comp[2] == comp[3] == comp[4]
        assert comp[0] != comp[2] != comp[5]

    def test_components_match_networkx(self, rng):
        g = random_graph(30, 0.05, rng)
        ours = connected_components(g)
        theirs = list(nx.connected_components(to_networkx(g)))
        assert len(set(ours.tolist())) == len(theirs)


class TestDistances:
    def test_diameter_cycle(self):
        assert diameter(cycle(8)) == 4
        assert diameter(cycle(9)) == 4

    def test_diameter_disconnected_raises(self):
        with pytest.raises(GraphFormatError):
            diameter(StaticGraph(3, [(0, 1)]))

    def test_diameter_matches_networkx(self, rng):
        for _ in range(3):
            g = random_graph(15, 0.3, rng)
            if is_connected(g):
                assert diameter(g) == nx.diameter(to_networkx(g))

    def test_average_distance_matches_networkx(self, petersen):
        ours = average_distance(petersen)
        theirs = nx.average_shortest_path_length(to_networkx(petersen))
        assert ours == pytest.approx(theirs)

    def test_distance_matrix_symmetric(self, petersen):
        d = distance_matrix(petersen)
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()

    def test_average_distance_trivial(self):
        assert average_distance(StaticGraph(1)) == 0.0


class TestDegreeStats:
    def test_petersen(self, petersen):
        s = degree_stats(petersen)
        assert s.minimum == s.maximum == 3
        assert s.mean == 3.0
        assert s.histogram == {3: 10}

    def test_empty(self):
        s = degree_stats(StaticGraph(0))
        assert s.histogram == {}

    def test_mixed(self):
        s = degree_stats(StaticGraph(3, [(0, 1)]))
        assert s.histogram == {0: 1, 1: 2}


class TestConnectivityProbe:
    def test_hypercube_probe(self, rng):
        # Q3 has node connectivity 3; the probe is a lower bound <= 3.
        g = hypercube(3)
        lb = node_connectivity_lower_bound(g, trials=40, rng=rng)
        assert 1 <= lb <= 3

    def test_path_probe(self, rng):
        lb = node_connectivity_lower_bound(path(6), trials=40, rng=rng)
        assert lb == 0 or lb == 1  # removing an interior node disconnects

    def test_tiny_graph(self, rng):
        assert node_connectivity_lower_bound(StaticGraph(2, [(0, 1)]), 5, rng) == 0
