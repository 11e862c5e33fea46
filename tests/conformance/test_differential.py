"""Differential conformance: the detour router vs the per-pair BFS witness.

Hypothesis drives random fault sets x batches on every machine size in
``SIZES`` through :class:`~repro.simulator.faults.DetourController`'s
route hook (one compiled survivor table per fault epoch) and the
harness's per-pair BFS witness
(:func:`tests.conformance.harness.bfs_detour_routes`), and asserts the
contract the router lands under: the two return the same
``(flat, offsets, kept)`` route for route — both take the shortest
survivor path whose CSR slot ranks are lexicographically smallest — and
every emitted route is independently verified valid and hop-optimal.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import DetourController
from tests.conformance.harness import (
    WitnessDetourController,
    assert_valid_survivor_routes,
    bfs_detour_routes,
)

# (5, 2) has degree-9 rows, whose slot ranks need four bit-planes
SIZES = [(2, 3), (2, 4), (3, 3), (2, 5), (4, 3), (5, 2)]


def _controller(m, h, fault_nodes):
    ctrl = DetourController(m, h)
    for v in fault_nodes:
        ctrl.fail_node(int(v))
    return ctrl


def _assert_witness_routes(ctrl, pairs):
    """The route hook's ``(flat, offsets, kept)`` equals the per-pair
    BFS witness's; returns the hook's output."""
    got = ctrl.detour_routes_batch(pairs.copy())
    want = bfs_detour_routes(ctrl.target, ctrl.faults, pairs)
    for name, a, b in zip(("flat", "offsets", "kept"), got, want):
        np.testing.assert_array_equal(a, b, err_msg=name)
    return got


def _charged(ctrl, pairs) -> int:
    """Refusals the closed-loop driver charges for one batch: the route
    hook only reports them, ``run_workload`` counts them."""
    ctrl.run_workload([pairs.copy()])
    return ctrl.unreachable_pairs


def _scenario(m, h, n_faults, seed, packets):
    n = m ** h
    rng = np.random.default_rng(seed)
    n_faults = min(n_faults, n - 2)
    faults = rng.choice(n, size=n_faults, replace=False)
    pairs = np.column_stack(
        [rng.integers(0, n, packets), rng.integers(0, n, packets)]
    ).astype(np.int64)
    return faults, pairs


class TestDifferential:
    @pytest.mark.parametrize("m,h", SIZES)
    @settings(max_examples=15, deadline=None)
    @given(
        n_faults=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        packets=st.integers(min_value=1, max_value=80),
    )
    def test_admission_hops_and_validity_agree(
        self, m, h, n_faults, seed, packets
    ):
        faults, pairs = _scenario(m, h, n_faults, seed, packets)
        ctrl = _controller(m, h, faults)

        # identical routes, hence identical admission and hop counts
        flat, offsets, kept = _assert_witness_routes(ctrl, pairs)
        assert _charged(ctrl, pairs) == pairs.shape[0] - kept.size

        # valid, hop-optimal survivor-graph routes (the oracle recomputes
        # distances independently of both routers)
        assert_valid_survivor_routes(
            flat, offsets, pairs[kept], ctrl.target, faults
        )

    @pytest.mark.parametrize("m,h", SIZES)
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_disconnecting_fault_sets_refuse_identically(self, m, h, seed):
        """Hammer the failure mode: enough faults to shatter the survivor
        graph.  The router and the witness must agree pair by pair on who
        is refused and on every admitted route."""
        n = m ** h
        rng = np.random.default_rng(seed)
        faults = rng.choice(n, size=n // 2, replace=False)
        pairs = np.column_stack(
            [rng.integers(0, n, 60), rng.integers(0, n, 60)]
        ).astype(np.int64)
        ctrl = _controller(m, h, faults)
        flat, offsets, kept = _assert_witness_routes(ctrl, pairs)
        assert _charged(ctrl, pairs) == pairs.shape[0] - kept.size
        assert_valid_survivor_routes(
            flat, offsets, pairs[kept], ctrl.target, faults
        )

    def test_identical_closed_loop_run_stats_counts(self):
        """End-to-end: draining the same workload through the router and
        through the witness gives the same run, latencies included."""
        from repro.simulator import make_pattern

        pairs = make_pattern(32, "uniform", 400, np.random.default_rng(5))
        runs = []
        for cls in (DetourController, WitnessDetourController):
            ctrl = cls(2, 5)
            ctrl.fail_node(3)
            ctrl.fail_node(20)
            runs.append((ctrl, ctrl.run_workload([pairs.copy()])))
        (ct, st_), (cw, sw) = runs
        assert st_ == sw
        assert ct.unreachable_pairs == cw.unreachable_pairs > 0
