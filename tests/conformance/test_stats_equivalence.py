"""Whole-run equivalence: the detour router and the per-pair BFS witness
drive the same run.

The compiled survivor table returns the BFS witness's routes
(``test_differential.py`` checks them route for route), so a run routed
through either one is the same run: identical per-packet records,
:class:`~repro.simulator.metrics.ShardStats`, refusal accounting and fault
logs — on every engine, closed-loop and streaming, under contention
and without it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulator import (
    DetourController,
    FaultScenario,
    PoissonSource,
    make_pattern,
    run_stream,
)
from tests.conformance.harness import WitnessDetourController, on_engine

M, H, N = 2, 5, 32
FAULTS = [3, 20]


def _controllers(engine, faults=FAULTS, capacity=1):
    """The router's controller and the witness's, same faults."""
    out = []
    for cls in (DetourController, WitnessDetourController):
        ctrl = on_engine(cls(M, H, link_capacity=capacity), engine)
        for v in faults:
            ctrl.fail_node(v)
        out.append(ctrl)
    return out


def _batches(packets=400, pattern="uniform", seed=5):
    pairs = make_pattern(N, pattern, packets, np.random.default_rng(seed))
    return np.array_split(pairs, 4)


def _assert_same_run(a, b) -> None:
    ra, rb = a.sim.packet_records(), b.sim.packet_records()
    for name in ("injected_at", "delivered_at", "hops", "dropped"):
        np.testing.assert_array_equal(getattr(ra, name), getattr(rb, name))
    assert a.sim.stats() == b.sim.stats()
    assert a.unreachable_pairs == b.unreachable_pairs
    assert a.lost_to_faults == b.lost_to_faults
    assert a.fault_log == b.fault_log


class TestClosedLoopEquivalence:
    @pytest.mark.parametrize("engine", ["object", "batch"])
    @pytest.mark.parametrize("pattern", ["uniform", "hotspot", "descend"])
    def test_runs_match_witness(self, engine, pattern):
        table, witness = _controllers(engine)
        for ctrl in (table, witness):
            ctrl.run_workload([b.copy() for b in _batches(pattern=pattern)])
        _assert_same_run(table, witness)
        assert table.unreachable_pairs > 0

    def test_uncontended_runs_match_witness(self):
        """With capacity ample enough that no link queues, latency is
        pure path length."""
        table, witness = _controllers("batch", capacity=400)
        for ctrl in (table, witness):
            ctrl.run_workload([b.copy() for b in _batches()])
        _assert_same_run(table, witness)

    @pytest.mark.parametrize("engine", ["object", "batch"])
    def test_fault_free_runs_match_witness(self, engine):
        table, witness = _controllers(engine, faults=())
        for ctrl in (table, witness):
            ctrl.run_workload([b.copy() for b in _batches(packets=200)])
        _assert_same_run(table, witness)
        assert table.sim.stats().delivered == 200


class TestStreamingEquivalence:
    @pytest.mark.parametrize("engine", ["object", "batch"])
    def test_stream_matches_witness(self, engine):
        """Open-loop, with a fault epoch opening mid-stream: the same
        records, refusals and :class:`StreamStats`."""
        results = []
        for ctrl in _controllers(engine, faults=()):
            ctrl.schedule(FaultScenario([(0, 3), (80, 9)]))
            stats = run_stream(
                ctrl, PoissonSource(N, 3.0, seed=7), cycles=300, warmup=50
            )
            results.append((ctrl, stats))
        (ct, st_), (cw, sw) = results
        _assert_same_run(ct, cw)
        assert st_ == sw
        assert ct.unreachable_pairs > 0
        assert ct.fault_log == [(0, 3), (80, 9)]
