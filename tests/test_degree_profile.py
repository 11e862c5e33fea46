"""Tests for the degree-profile analysis."""

from __future__ import annotations

import pytest

from repro.analysis import bound_attainment_frontier, degree_profile
from repro.core import ft_debruijn
from repro.errors import ParameterError


class TestDegreeProfile:
    def test_profile_consistency(self):
        p = degree_profile(2, 4, 1)
        g = ft_debruijn(2, 4, 1)
        assert p.maximum == g.max_degree()
        assert sum(p.histogram.values()) == g.node_count
        assert p.minimum <= p.mean <= p.maximum

    def test_tightness_at_h4_k1(self):
        # Cor. 2's bound (8) is attained at h=4
        assert degree_profile(2, 4, 1).tight

    def test_not_tight_at_h3_k1(self):
        # 9 nodes cannot pay 8 distinct block positions
        p = degree_profile(2, 3, 1)
        assert not p.tight
        assert p.maximum < p.bound

    def test_extremal_nodes_have_max_degree(self):
        p = degree_profile(2, 4, 2)
        g = ft_debruijn(2, 4, 2)
        for v in p.extremal_nodes:
            assert g.degree(v) == p.maximum

    def test_mean_below_bound(self):
        p = degree_profile(3, 3, 1)
        assert p.mean < p.bound

    def test_row_shape(self):
        row = degree_profile(2, 4, 1).row()
        assert row["tight"] is True
        assert row["deg<="] == 8


class TestFrontier:
    def test_base2_k1_frontier(self):
        # the k=1 bound becomes exact at h=4
        assert bound_attainment_frontier(2, 1) == 4

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_frontier_exists_for_base2(self, k):
        h = bound_attainment_frontier(2, k, h_max=8)
        assert h is not None and h >= 4
        # and is genuinely the first tight h
        assert not degree_profile(2, h - 1, k).tight

    def test_base3_k1_frontier(self):
        assert bound_attainment_frontier(3, 1, h_max=6) == 4

    def test_frontier_none_when_out_of_range(self):
        # k=4 needs larger h than 3 to pay degree 20
        assert bound_attainment_frontier(2, 4, h_max=3) is None

    def test_validation(self):
        with pytest.raises(ParameterError):
            bound_attainment_frontier(2, 1, h_max=2)
