"""Differential conformance: the detour router vs the per-pair BFS witness.

Hypothesis drives random fault sets x batches on every machine size in
``SIZES`` through :class:`~repro.simulator.faults.DetourController`'s
route hook (a survivor table compiled per routed batch) and the
harness's per-pair BFS witness
(:func:`tests.conformance.harness.bfs_detour_routes`), and asserts the
contract the router lands under: the two return the same
``(flat, offsets, kept)`` route for route — both take the shortest
survivor path whose CSR slot ranks are lexicographically smallest — and
every emitted route is independently verified valid and hop-optimal.
The hook's fourth value, each position's CSR slot gathered from the
table's ranks, must equal one ``directed_edge_slots`` search over the
same routes (:func:`tests.conformance.harness.searched_slots`).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.builders import star
from repro.routing import survivor_route_table
from repro.simulator import DetourController
from tests.conformance.harness import (
    WitnessDetourController,
    assert_valid_survivor_routes,
    bfs_detour_routes,
    searched_slots,
)

# (5, 2) has degree-9 rows, whose slot ranks need four bit-planes
SIZES = [(2, 3), (2, 4), (3, 3), (2, 5), (4, 3), (5, 2)]


def _controller(m, h, fault_nodes):
    ctrl = DetourController(m, h)
    for v in fault_nodes:
        ctrl.fail_node(int(v))
    return ctrl


def _assert_slots(g, flat, offsets, hop):
    """A route hook's ``hop`` equals the search's slots over its own
    routes, ``-1`` at route ends."""
    assert hop.dtype == np.int64
    np.testing.assert_array_equal(hop, searched_slots(g, flat, offsets))


def _assert_witness_routes(ctrl, pairs):
    """The route hook's ``(flat, offsets, kept)`` equals the per-pair
    BFS witness's, and its ``hop`` the search's slots; returns the
    hook's output."""
    got = ctrl._route(pairs.copy())
    want = bfs_detour_routes(ctrl.target, ctrl.faults, pairs)
    for name, a, b in zip(("flat", "offsets", "kept"), got, want):
        np.testing.assert_array_equal(a, b, err_msg=name)
    _assert_slots(ctrl.target, *got[:2], got[3])
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
        flat, offsets, kept, _ = _assert_witness_routes(ctrl, pairs)
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
        flat, offsets, kept, _ = _assert_witness_routes(ctrl, pairs)
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


class TestSlotParity:
    """``routes_batch_masked``'s ``hop`` (one rank gather over the
    finished routes) equals one ``directed_edge_slots`` search over the
    same routes, ``-1`` at route ends, on every pair of each machine,
    on the ``uint16`` rank path and on degenerate batches."""

    @staticmethod
    def _all_pairs(n):
        srcs, dsts = np.divmod(np.arange(n * n, dtype=np.int64), n)
        return srcs, dsts

    @pytest.mark.parametrize("m,h", SIZES)
    @pytest.mark.parametrize("faults", [(), (1,), "half"],
                             ids=["fault_free", "one_fault", "disconnecting"])
    def test_every_pair(self, m, h, faults):
        n = m ** h
        if faults == "half":
            faults = np.random.default_rng(n).choice(n, size=n // 2, replace=False)
        ctrl = _controller(m, h, faults)
        srcs, dsts = self._all_pairs(n)
        flat, offsets, kept, hop = ctrl._route(
            np.column_stack([srcs, dsts])
        )
        assert kept.size and offsets.size == kept.size + 1
        _assert_slots(ctrl.target, flat, offsets, hop)

    def test_uint16_hub_table(self):
        g = star(300)  # the hub's ranks reach 298: the uint16 rank path
        table = survivor_route_table(g, [7])
        assert table.table.dtype == np.uint16
        srcs, dsts = self._all_pairs(g.node_count)
        flat, offsets, kept, hop = table.routes_batch_masked(srcs, dsts)
        assert hop.max() > np.iinfo(np.uint8).max
        _assert_slots(g, flat, offsets, hop)

    @pytest.mark.parametrize("srcs, dsts, routes", [
        ([], [], 0),                     # empty batch
        ([3, 0, 3, 5], [1, 3, 3, 3], 0),  # every pair touches dead node 3
        ([0, 6, 2, 3], [0, 6, 2, 3], 3),  # self-pairs; 3 is dead
    ], ids=["empty", "all_refused", "self_pairs"])
    def test_degenerate_batches(self, srcs, dsts, routes):
        ctrl = _controller(2, 3, [3])
        flat, offsets, kept, hop = ctrl._route(
            np.column_stack([srcs, dsts]).astype(np.int64)
        )
        assert kept.size == routes and offsets.size == routes + 1
        _assert_slots(ctrl.target, flat, offsets, hop)
        assert (hop == -1).all()  # no route here leaves its source
