"""Differential conformance: ``route_mode="table"`` vs the BFS reference.

Hypothesis drives random machine sizes x fault sets x batches through
both :class:`~repro.simulator.faults.DetourController` backends and
asserts the equivalence contract the tentpole lands under: identical
admission decisions, identical per-pair hop counts, and independently
verified validity + hop-optimality of every emitted route.  Paths
themselves are *allowed* to differ (BFS tie-breaking is not part of the
contract) — the suite proves that wherever they do, it cannot matter.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import DetourController
from tests.conformance.harness import (
    assert_valid_survivor_routes,
    hop_histogram,
)

SIZES = [(2, 3), (2, 4), (3, 3), (2, 5)]


def _controllers(m, h, fault_nodes):
    pair = []
    for mode in ("bfs", "table"):
        ctrl = DetourController(m, h, engine="batch", route_mode=mode)
        for v in fault_nodes:
            ctrl.fail_node(int(v))
        pair.append(ctrl)
    return pair


def _charged(ctrl, pairs) -> int:
    """Refusals the closed-loop driver charges for one batch: the route
    hook only reports them, ``run_workload`` counts them."""
    ctrl.run_workload([pairs.copy()])
    return ctrl.unreachable_pairs


def _scenario(size_idx, n_faults, seed, packets):
    m, h = SIZES[size_idx]
    n = m ** h
    rng = np.random.default_rng(seed)
    n_faults = min(n_faults, n - 2)
    faults = rng.choice(n, size=n_faults, replace=False)
    pairs = np.column_stack(
        [rng.integers(0, n, packets), rng.integers(0, n, packets)]
    ).astype(np.int64)
    return m, h, faults, pairs


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        size_idx=st.integers(min_value=0, max_value=len(SIZES) - 1),
        n_faults=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        packets=st.integers(min_value=1, max_value=80),
    )
    def test_admission_hops_and_validity_agree(
        self, size_idx, n_faults, seed, packets
    ):
        m, h, faults, pairs = _scenario(size_idx, n_faults, seed, packets)
        bfs_ctrl, tab_ctrl = _controllers(m, h, faults)

        bf, bo, bk = bfs_ctrl.detour_routes_batch(pairs.copy())
        tf, to, tk = tab_ctrl.detour_routes_batch(pairs.copy())

        # identical admission decisions and refusal accounting
        assert np.array_equal(bk, tk)
        refused = pairs.shape[0] - bk.size
        assert _charged(bfs_ctrl, pairs) == _charged(tab_ctrl, pairs) == refused

        # identical per-pair hop counts (so every hop-derived statistic
        # is exchangeable), even where the paths differ
        assert np.array_equal(np.diff(bo), np.diff(to))
        assert hop_histogram(bo) == hop_histogram(to)

        # both backends emit valid, hop-optimal survivor-graph routes
        # (the oracle recomputes distances independently of either)
        assert_valid_survivor_routes(
            tf, to, pairs[tk], tab_ctrl.target, faults
        )
        assert_valid_survivor_routes(
            bf, bo, pairs[bk], bfs_ctrl.target, faults
        )

    @settings(max_examples=15, deadline=None)
    @given(
        size_idx=st.integers(min_value=0, max_value=len(SIZES) - 1),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_disconnecting_fault_sets_refuse_identically(
        self, size_idx, seed
    ):
        """Hammer the failure mode: enough faults to shatter the survivor
        graph.  Both backends must agree pair-by-pair on who is refused."""
        m, h = SIZES[size_idx]
        n = m ** h
        rng = np.random.default_rng(seed)
        faults = rng.choice(n, size=n // 2, replace=False)
        pairs = np.column_stack(
            [rng.integers(0, n, 60), rng.integers(0, n, 60)]
        ).astype(np.int64)
        bfs_ctrl, tab_ctrl = _controllers(m, h, faults)
        _, bo, bk = bfs_ctrl.detour_routes_batch(pairs.copy())
        tf, to, tk = tab_ctrl.detour_routes_batch(pairs.copy())
        assert np.array_equal(bk, tk)
        assert np.array_equal(np.diff(bo), np.diff(to))
        assert _charged(bfs_ctrl, pairs) == _charged(tab_ctrl, pairs)
        assert_valid_survivor_routes(
            tf, to, pairs[tk], tab_ctrl.target, faults
        )

    def test_identical_closed_loop_run_stats_counts(self):
        """End-to-end: draining the same workload under both backends
        yields identical delivery/refusal counts and hop statistics
        (latency is *not* compared — different equal-length paths contend
        differently; ``test_stats_equivalence`` covers the contract)."""
        from repro.simulator import make_pattern

        pairs = make_pattern(32, "uniform", 400, np.random.default_rng(5))
        stats = {}
        for mode in ("bfs", "table"):
            ctrl = DetourController(2, 5, engine="batch", route_mode=mode)
            ctrl.fail_node(3)
            ctrl.fail_node(20)
            stats[mode] = (ctrl, ctrl.run_workload([pairs.copy()]))
        (cb, sb), (ct, st_) = stats["bfs"], stats["table"]
        assert sb.injected == st_.injected
        assert sb.delivered == st_.delivered
        assert sb.dropped == st_.dropped
        assert sb.mean_hops == st_.mean_hops
        assert cb.unreachable_pairs == ct.unreachable_pairs > 0
