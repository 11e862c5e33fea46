"""Tests for the baselines: Samatham–Pradhan and natural-labeling FT-SE."""

from __future__ import annotations

import pytest

from repro.core import (
    debruijn,
    exhaustive_tolerance_check,
    ft_node_count,
    natural_ft_se_degree_bound,
    natural_ft_shuffle_exchange,
    samatham_pradhan,
    shuffle_exchange,
    sp_colour_copies,
    sp_node_count,
    sp_reconfigure,
    sp_reported_degree,
)
from repro.errors import FaultSetError, ParameterError
from repro.graphs import verify_embedding


class TestSamathamPradhan:
    @pytest.mark.parametrize("m,h,k", [(2, 3, 1), (2, 3, 2), (3, 3, 1)])
    def test_node_count(self, m, h, k):
        g = samatham_pradhan(m, h, k)
        assert g.node_count == (m * (k + 1)) ** h == sp_node_count(m, h, k)

    def test_node_blowup_vs_ours(self):
        """The paper's headline comparison: S–P needs N^{log_m m(k+1)}
        nodes, we need N + k."""
        for m, h, k in [(2, 4, 1), (2, 4, 3), (3, 3, 2)]:
            assert sp_node_count(m, h, k) > 4 * ft_node_count(m, h, k)

    def test_reported_degree(self):
        assert sp_reported_degree(2, 1) == 6   # 4k+2
        assert sp_reported_degree(3, 2) == 14  # 2mk+2

    @pytest.mark.parametrize("m,h,k", [(2, 3, 1), (2, 3, 2), (3, 3, 1)])
    def test_colour_copies_are_embeddings(self, m, h, k):
        big = samatham_pradhan(m, h, k)
        target = debruijn(m, h)
        copies = sp_colour_copies(m, h, k)
        assert len(copies) == k + 1
        for c in copies:
            assert verify_embedding(target, big, c)

    def test_colour_copies_disjoint(self):
        copies = sp_colour_copies(2, 3, 2)
        seen: set[int] = set()
        for c in copies:
            s = set(map(int, c))
            assert not (seen & s)
            seen |= s

    def test_reconfigure_avoids_faults(self, rng):
        m, h, k = 2, 3, 2
        for _ in range(20):
            faults = rng.choice(sp_node_count(m, h, k), size=k, replace=False)
            copy = sp_reconfigure(m, h, k, faults)
            assert not set(map(int, faults)) & set(map(int, copy))

    def test_reconfigure_pigeonhole_guarantee(self):
        """<= k faults can never kill all k+1 disjoint copies."""
        m, h, k = 2, 3, 1
        copies = sp_colour_copies(m, h, k)
        # worst case: faults placed inside distinct copies
        faults = [int(copies[0][0])]
        copy = sp_reconfigure(m, h, k, faults)
        assert verify_embedding(debruijn(m, h), samatham_pradhan(m, h, k), copy)

    def test_reconfigure_raises_when_all_copies_hit(self):
        m, h, k = 2, 3, 1
        copies = sp_colour_copies(m, h, k)
        faults = [int(copies[0][0]), int(copies[1][0])]  # k+1 faults
        with pytest.raises(FaultSetError):
            sp_reconfigure(m, h, k, faults)

    def test_sp_is_k_tolerant_small(self):
        """Full tolerance check of the S–P construction itself (k=1, h=3,
        base 2; 64-node FT graph, 64 fault sets) using copy selection
        rather than the monotone remap."""
        m, h, k = 2, 3, 1
        big = samatham_pradhan(m, h, k)
        target = debruijn(m, h)
        for f in range(big.node_count):
            copy = sp_reconfigure(m, h, k, [f])
            assert verify_embedding(target, big, copy)

    def test_validation(self):
        with pytest.raises(ParameterError):
            samatham_pradhan(1, 3, 1)
        with pytest.raises(ParameterError):
            samatham_pradhan(2, 3, -1)
        with pytest.raises(ParameterError):
            sp_node_count(2, 3, -1)


class TestNaturalFTSE:
    @pytest.mark.parametrize("h,k", [(3, 1), (3, 2), (4, 1), (4, 2)])
    def test_tolerant_under_identity_labeling(self, h, k):
        nat = natural_ft_shuffle_exchange(h, k)
        rep = exhaustive_tolerance_check(nat, shuffle_exchange(h), k)
        assert rep.ok

    @pytest.mark.parametrize("h,k", [(4, 1), (5, 1), (5, 2), (6, 2), (6, 3)])
    def test_degree_bound(self, h, k):
        nat = natural_ft_shuffle_exchange(h, k)
        assert nat.max_degree() <= natural_ft_se_degree_bound(k)

    def test_loses_to_psi_relabeling(self):
        """The §I punchline: natural labeling costs ~6k, the de Bruijn
        relabeling costs 4k+4."""
        from repro.core import ft_shuffle_exchange

        h = 6
        gaps = [
            natural_ft_shuffle_exchange(h, k).max_degree()
            - ft_shuffle_exchange(h, k).max_degree()
            for k in (1, 2, 3)
        ]
        assert all(gap > 0 for gap in gaps)
        assert gaps == sorted(gaps)  # and widens with k

    def test_contains_band_edges(self):
        nat = natural_ft_shuffle_exchange(3, 2)
        for a in range(0, 7):
            for d in (1, 2, 3):
                if a + d < nat.node_count:
                    assert nat.has_edge(a, a + d)

    def test_validation(self):
        with pytest.raises(ParameterError):
            natural_ft_se_degree_bound(-1)
