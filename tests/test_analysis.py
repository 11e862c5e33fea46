"""Tests for the comparison, spares, and reliability analyses."""

from __future__ import annotations

import pytest

from repro.analysis import (
    bare_survival_probability,
    comparison_base2,
    comparison_basem,
    expected_faults_to_failure,
    extra_spare_search,
    generalized_ft_graph,
    monte_carlo_survival,
    reliability_table,
    se_comparison,
    survival_probability,
    window_necessity,
)
from repro.core import debruijn, exhaustive_tolerance_check, ft_debruijn
from repro.errors import ParameterError, ToleranceViolation


class TestComparison:
    def test_base2_rows(self):
        rows = comparison_base2(h_values=(3, 4), k_values=(1, 2))
        assert len(rows) == 4
        for r in rows:
            assert r.ours_nodes == 2 ** r.h + r.k
            assert r.ours_degree_measured <= r.ours_degree_bound
            assert r.sp_nodes == (2 * (r.k + 1)) ** r.h
            assert r.node_ratio >= 7.0  # 64 / 9 at h=3, k=1

    def test_node_ratio_grows_with_k(self):
        rows = comparison_base2(h_values=(4,), k_values=(1, 2, 3))
        ratios = [r.node_ratio for r in rows]
        assert ratios == sorted(ratios)

    def test_basem_rows(self):
        rows = comparison_basem(m_values=(3,), h_values=(3,), k_values=(1, 2))
        assert [r.k for r in rows] == [1, 2]
        for r in rows:
            assert r.ours_degree_bound == 4 * (r.m - 1) * r.k + 2 * r.m
            assert r.sp_degree_quoted == 2 * r.m * r.k + 2
            assert r.ours_degree_measured <= r.ours_degree_bound

    def test_sp_measured_degree_close_to_quoted(self):
        """Measured S–P degree is 2m(k+1) = quoted + 2 (the paper's quote
        appears to discount self-loop nodes); record the relationship."""
        rows = comparison_base2(h_values=(3,), k_values=(1, 2))
        for r in rows:
            assert r.sp_degree_measured is not None
            assert r.sp_degree_quoted <= r.sp_degree_measured <= r.sp_degree_quoted + 2

    def test_as_dict(self):
        d = comparison_base2(h_values=(3,), k_values=(1,))[0].as_dict()
        assert d["m"] == 2 and "node_ratio" in d

    def test_se_comparison(self):
        rows = se_comparison(h_values=(4,), k_values=(1, 2))
        for r in rows:
            assert r["psi_deg="] <= r["psi_deg<="] == 4 * r["k"] + 4
            assert r["natural_deg="] <= r["natural_deg<="] == 6 * r["k"] + 6
            assert r["bus_deg="] == 2 * r["k"] + 3


class TestGeneralizedGraph:
    def test_canonical_window_reproduces_ft(self):
        for h, k in [(3, 1), (3, 2), (4, 1)]:
            g = generalized_ft_graph(h, k, range(-k, k + 2))
            assert g == ft_debruijn(2, h, k)

    def test_negative_spares_rejected(self):
        with pytest.raises(ParameterError):
            generalized_ft_graph(3, -1, [0, 1])

    def test_tiny_window_not_tolerant(self):
        g = generalized_ft_graph(3, 1, [0, 1])
        with pytest.raises(ToleranceViolation):
            exhaustive_tolerance_check(g, debruijn(2, 3), 1)


class TestWindowNecessity:
    @pytest.mark.parametrize("h,k", [(3, 1), (3, 2)])
    def test_every_offset_needed(self, h, k):
        results = window_necessity(h, k)
        assert len(results) == 2 * k + 2
        for res in results:
            assert not res.still_tolerant
            assert res.counterexample is not None


class TestExtraSpares:
    def test_no_improvement_at_small_scale(self):
        """Empirical §VI answer (monotone-remap family, small h): extra
        spares do NOT shrink the required window."""
        for res in extra_spare_search(3, 1, max_extra=2):
            assert res.window_size == res.canonical_window_size
            assert not res.improves_on_canonical

    def test_search_returns_requested_range(self):
        out = extra_spare_search(3, 1, max_extra=2)
        assert [r.spares for r in out] == [1, 2, 3]


class TestReliability:
    def test_survival_closed_form(self):
        # k=0: survives iff zero failures
        assert survival_probability(16, 0, 0.1) == pytest.approx(0.9 ** 16)
        # q=0: always survives
        assert survival_probability(16, 3, 0.0) == 1.0
        # q=1: never (k < n)
        assert survival_probability(16, 3, 1.0) == pytest.approx(0.0)

    def test_bare_machine(self):
        assert bare_survival_probability(10, 0.05) == pytest.approx(0.95 ** 10)

    def test_ft_beats_bare(self):
        for q in (0.001, 0.01, 0.05):
            assert survival_probability(64, 2, q) > bare_survival_probability(64, q)

    def test_monotone_in_k(self):
        # every added spare strictly raises survival
        for q in (0.01, 0.03):
            probs = [survival_probability(64, k, q) for k in range(5)]
            assert all(a < b for a, b in zip(probs, probs[1:]))

    def test_monte_carlo_agrees(self, rng):
        exact = survival_probability(32, 2, 0.03)
        mc = monte_carlo_survival(32, 2, 0.03, trials=20000, rng=rng)
        assert mc == pytest.approx(exact, abs=0.02)

    def test_expected_faults(self):
        assert expected_faults_to_failure(0) == 1
        assert expected_faults_to_failure(4) == 5
        with pytest.raises(ParameterError):
            expected_faults_to_failure(-1)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            survival_probability(16, 1, 1.5)
        with pytest.raises(ParameterError):
            survival_probability(0, 1, 0.5)
        with pytest.raises(ParameterError):
            bare_survival_probability(16, -0.1)

    def test_reliability_table(self):
        rows = reliability_table(64, k_values=(0, 2), q_values=(0.01,))
        assert len(rows) == 1
        assert rows[0]["k=2"] > rows[0]["bare"]
