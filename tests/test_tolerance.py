"""Tests for the (k, G)-tolerance engines — Theorems 1 and 2, executable."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    adversarial_fault_sets,
    debruijn,
    embed_after_faults,
    exhaustive_tolerance_check,
    ft_debruijn,
    max_tolerated_faults,
    psi_map,
    random_tolerance_check,
    shuffle_exchange,
)
from repro.errors import EmbeddingError, FaultSetError, ToleranceViolation
from repro.graphs import StaticGraph, cycle


class TestTheorem1:
    """Theorem 1: B^k_{2,h} is (k, B_{2,h})-tolerant."""

    @pytest.mark.parametrize(
        "h,k", [(3, 0), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)]
    )
    def test_exhaustive(self, h, k):
        rep = exhaustive_tolerance_check(ft_debruijn(2, h, k), debruijn(2, h), k)
        assert rep.ok and rep.exhaustive
        assert rep.checked == rep.total

    @pytest.mark.parametrize("h,k", [(5, 2), (6, 1), (7, 2)])
    def test_randomized_larger(self, h, k, rng):
        rep = random_tolerance_check(
            ft_debruijn(2, h, k), debruijn(2, h), k, samples=150, rng=rng
        )
        assert rep.ok

    def test_fewer_than_k_faults_also_fine(self):
        # tolerance for j <= k faults follows by padding; check directly
        ft = ft_debruijn(2, 3, 3)
        g = debruijn(2, 3)
        for j in range(4):
            assert exhaustive_tolerance_check(ft, g, j).ok


class TestTheorem2:
    """Theorem 2: B^k_{m,h} is (k, B_{m,h})-tolerant."""

    @pytest.mark.parametrize("m,h,k", [(3, 3, 1), (3, 3, 2), (4, 3, 1), (5, 3, 1)])
    def test_exhaustive(self, m, h, k):
        rep = exhaustive_tolerance_check(ft_debruijn(m, h, k), debruijn(m, h), k)
        assert rep.ok

    def test_randomized_basem(self, rng):
        rep = random_tolerance_check(
            ft_debruijn(3, 4, 2), debruijn(3, 4), 2, samples=100, rng=rng
        )
        assert rep.ok


class TestEmbedAfterFaults:
    def test_returns_valid_map(self):
        ft = ft_debruijn(2, 4, 2)
        g = debruijn(2, 4)
        phi = embed_after_faults(ft, g, faults=[0, 9])
        assert 0 not in phi and 9 not in phi
        assert len(set(map(int, phi))) == 16

    def test_with_logical_map(self):
        h, k = 3, 2
        ft = ft_debruijn(2, h, k)
        se = shuffle_exchange(h)
        nm = embed_after_faults(ft, se, faults=[1, 5], logical_map=psi_map(h))
        assert 1 not in nm and 5 not in nm

    def test_empty_fault_set(self):
        ft = ft_debruijn(2, 3, 1)
        phi = embed_after_faults(ft, debruijn(2, 3), faults=[])
        assert list(phi) == list(range(8))

    def test_broken_host_raises(self):
        # removing the FT window edges breaks the certificate
        g = debruijn(2, 3)
        bad_host = StaticGraph(9, g.edges())  # plain B_{2,3} + 1 isolated spare
        with pytest.raises(EmbeddingError):
            embed_after_faults(bad_host, g, faults=[0])


class TestViolationDetection:
    """The engine must actually detect broken constructions."""

    def test_plain_debruijn_plus_spare_is_not_tolerant(self):
        g = debruijn(2, 3)
        fake_ft = StaticGraph(9, g.edges())
        with pytest.raises(ToleranceViolation) as ei:
            exhaustive_tolerance_check(fake_ft, g, 1)
        assert len(ei.value.fault_set) == 1

    def test_collect_mode_gathers_failures(self):
        g = debruijn(2, 3)
        fake_ft = StaticGraph(9, g.edges())
        rep = exhaustive_tolerance_check(fake_ft, g, 1, collect=True)
        assert not rep.ok
        assert len(rep.failures) > 0
        assert rep.checked == rep.total == 9

    def test_shrunken_window_not_tolerant(self):
        """Ablation: drop the r = k+1 offset from the FT window and
        tolerance must break (the proof's s = k+1 case is necessary)."""
        h, k = 3, 1
        n = 2 ** h + k
        xs = np.arange(n, dtype=np.int64)
        edges = []
        for r in range(-k, k + 1):  # omit k+1
            edges.append(np.column_stack([xs, (2 * xs + r) % n]))
        shrunk = StaticGraph(n, np.vstack(edges))
        with pytest.raises(ToleranceViolation):
            exhaustive_tolerance_check(shrunk, debruijn(2, h), k)

    def test_random_check_detects_break(self, rng):
        g = debruijn(2, 3)
        fake_ft = StaticGraph(9, g.edges())
        rep = random_tolerance_check(fake_ft, g, 1, samples=50, rng=rng, collect=True)
        assert not rep.ok


class TestSearchStrategy:
    """The full Hayes-model fallback (any embedding, not just φ)."""

    def test_paper_construction_passes_both(self):
        ft = ft_debruijn(2, 3, 1)
        g = debruijn(2, 3)
        assert exhaustive_tolerance_check(ft, g, 1, strategy="monotone").ok
        assert exhaustive_tolerance_check(ft, g, 1, strategy="search").ok

    def test_search_accepts_what_monotone_rejects(self):
        """A cycle + fully-wired spare is Hayes-tolerant but not
        monotone-remap-tolerant: the strategies must disagree."""
        target = cycle(6)
        ft = StaticGraph(7, list(target.iter_edges()) + [(6, v) for v in range(6)])
        with pytest.raises(ToleranceViolation):
            exhaustive_tolerance_check(ft, target, 1, strategy="monotone")
        assert exhaustive_tolerance_check(ft, target, 1, strategy="search").ok

    def test_search_rejects_truly_broken_designs(self):
        g = debruijn(2, 3)
        fake = StaticGraph(9, g.edges())  # isolated spare
        with pytest.raises(ToleranceViolation):
            exhaustive_tolerance_check(fake, g, 1, strategy="search")

    def test_unknown_strategy(self):
        with pytest.raises(FaultSetError):
            exhaustive_tolerance_check(
                ft_debruijn(2, 3, 1), debruijn(2, 3), 1, strategy="magic"
            )


class TestHelpers:
    def test_adversarial_sets_sizes(self):
        for fs in adversarial_fault_sets(20, 3):
            assert len(fs) == 3
            assert len(set(map(int, fs))) == 3

    def test_adversarial_sets_k0(self):
        sets = list(adversarial_fault_sets(10, 0))
        assert len(sets) == 1 and sets[0].size == 0

    def test_max_tolerated_faults(self):
        # B^2_{2,3} sustains exactly 2 via the monotone remap
        ft = ft_debruijn(2, 3, 2)
        assert max_tolerated_faults(ft, debruijn(2, 3)) == 2

    def test_max_tolerated_faults_cap(self):
        ft = ft_debruijn(2, 3, 3)
        assert max_tolerated_faults(ft, debruijn(2, 3), k_cap=1) == 1

    def test_k_negative_rejected(self):
        with pytest.raises(FaultSetError):
            exhaustive_tolerance_check(ft_debruijn(2, 3, 1), debruijn(2, 3), -1)

    def test_too_small_ft_rejected(self):
        with pytest.raises(FaultSetError):
            exhaustive_tolerance_check(debruijn(2, 3), debruijn(2, 3), 1)

    def test_report_str(self):
        rep = exhaustive_tolerance_check(ft_debruijn(2, 3, 1), debruijn(2, 3), 1)
        assert "OK" in str(rep)
