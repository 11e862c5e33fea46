"""Golden conformance: the detour router's outputs are *pinned*.

The differential suite proves the router's routes equal to the per-pair
BFS witness's; this module freezes its runs against **themselves** so
future refactors (a faster compile, a different frontier order, a new
engine) cannot silently move the outputs the repo publishes (the golden
files keep the ``"route_mode": "table"`` label they were written with):

* ``workload_table.json`` — closed-loop batches with faults at cycle 0:
  per-packet records and the drained :class:`RunStats` bit-identical on
  the batch engine and the per-packet witness engine (``"object"``).
* ``workload_table_midrun.json`` — a fault that comes due *mid-drain*
  of the first batch: it fires on its cycle, takes the packets queued in
  the failed router down with it, and the later batches route on a
  recompiled survivor table.  Per-packet records pinned for both
  engines, and equal to the per-cycle drain witness
  (:func:`tests.conformance.harness.per_cycle_workload`).
* ``stream_table.json`` — open-loop streaming with a *mid-stream* fault
  epoch: per-packet records, the fault log, and the refusal accounting
  pinned bit-identically for both engines.

Regenerate (after an *intentional* change only) with::

    PYTHONPATH=src:. python tests/conformance/test_goldens.py --regen
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.simulator import (
    DetourController,
    FaultScenario,
    PacketArrays,
    PoissonSource,
    make_pattern,
    run_stream,
)
from tests.conformance.harness import on_engine, per_cycle_workload

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"

M, H, N = 2, 5, 32
WORKLOAD_FAULTS = [(0, 3), (0, 17)]
MIDRUN_FAULTS = [(0, 3), (5, 17)]
STREAM_FAULTS = [(0, 3), (60, 9)]
STREAM_RATE = 10.0  # hot enough that the cycle-60 fault drops queued packets


def _records(ctrl) -> PacketArrays:
    return ctrl.sim.packet_records()


def _records_payload(rec: PacketArrays) -> dict:
    return {
        "injected_at": rec.injected_at.tolist(),
        "delivered_at": rec.delivered_at.tolist(),
        "hops": rec.hops.tolist(),
        "dropped": [bool(x) for x in rec.dropped],
    }


def _workload_batches():
    pairs = make_pattern(N, "uniform", 240, np.random.default_rng(11))
    return np.array_split(pairs, 3)


def run_workload_case(engine: str, faults) -> tuple[DetourController, object]:
    ctrl = on_engine(DetourController(M, H), engine)
    ctrl.schedule(FaultScenario([tuple(f) for f in faults]))
    stats = ctrl.run_workload([b.copy() for b in _workload_batches()])
    return ctrl, stats


def run_stream_case(engine: str) -> tuple[DetourController, object]:
    ctrl = on_engine(DetourController(M, H), engine)
    ctrl.schedule(FaultScenario([tuple(f) for f in STREAM_FAULTS]))
    src = PoissonSource(N, STREAM_RATE, seed=3)
    stats = run_stream(ctrl, src, cycles=240, warmup=40, window=40)
    return ctrl, stats


def _workload_golden(faults) -> dict:
    ctrl, stats = run_workload_case("batch", faults)
    return {
        "machine": {"m": M, "h": H},
        "route_mode": "table",
        "faults": [list(f) for f in faults],
        "records": _records_payload(_records(ctrl)),
        "run_stats": dataclasses.asdict(stats),
        "unreachable_pairs": ctrl.unreachable_pairs,
        "fault_log": [list(f) for f in ctrl.fault_log],
    }


def _stream_golden() -> dict:
    ctrl, stats = run_stream_case("batch")
    return {
        "machine": {"m": M, "h": H},
        "route_mode": "table",
        "faults": [list(f) for f in STREAM_FAULTS],
        "records": _records_payload(_records(ctrl)),
        "unreachable_pairs": ctrl.unreachable_pairs,
        "lost_to_faults": ctrl.lost_to_faults,
        "fault_log": [list(f) for f in ctrl.fault_log],
        "stream": {
            "offered": stats.offered,
            "delivered": stats.delivered,
            "dropped": stats.dropped,
            "unadmitted": stats.unadmitted,
            "final_occupancy": stats.final_occupancy,
        },
    }


GOLDENS = {
    "workload_table.json": lambda: _workload_golden(WORKLOAD_FAULTS),
    "workload_table_midrun.json": lambda: _workload_golden(MIDRUN_FAULTS),
    "stream_table.json": _stream_golden,
}


def _load(name: str) -> dict:
    path = GOLDEN_DIR / name
    if not path.exists():  # pragma: no cover - only before first regen
        pytest.fail(
            f"golden file {path} missing — run "
            f"PYTHONPATH=src:. python tests/conformance/test_goldens.py --regen"
        )
    return json.loads(path.read_text())


def _assert_records_match(rec: PacketArrays, golden: dict) -> None:
    assert rec.injected_at.tolist() == golden["injected_at"]
    assert rec.delivered_at.tolist() == golden["delivered_at"]
    assert rec.hops.tolist() == golden["hops"]
    assert [bool(x) for x in rec.dropped] == golden["dropped"]


class TestWorkloadGoldens:
    @pytest.mark.parametrize("engine", ["object", "batch"])
    def test_per_packet_records_pinned(self, engine):
        golden = _load("workload_table.json")
        ctrl, _ = run_workload_case(engine, WORKLOAD_FAULTS)
        _assert_records_match(_records(ctrl), golden["records"])
        assert ctrl.unreachable_pairs == golden["unreachable_pairs"]
        assert [list(f) for f in ctrl.fault_log] == golden["fault_log"]

    @pytest.mark.parametrize("engine", ["object", "batch"])
    def test_run_stats_pinned_all_engines(self, engine):
        golden = _load("workload_table.json")
        ctrl, stats = run_workload_case(engine, WORKLOAD_FAULTS)
        assert dataclasses.asdict(stats) == golden["run_stats"]
        assert ctrl.unreachable_pairs == golden["unreachable_pairs"]

    @pytest.mark.parametrize("engine", ["object", "batch"])
    def test_midrun_fault_epoch_pinned(self, engine):
        """The fault comes due mid-drain: it fires on its own cycle, the
        compiled-table cache is invalidated, and the later batches route
        on the new survivor graph — pinned packet-for-packet."""
        golden = _load("workload_table_midrun.json")
        ctrl, stats = run_workload_case(engine, MIDRUN_FAULTS)
        _assert_records_match(_records(ctrl), golden["records"])
        assert dataclasses.asdict(stats) == golden["run_stats"]
        assert ctrl.unreachable_pairs == golden["unreachable_pairs"]
        # both faults fired on their scheduled cycles, the second one
        # mid-drain, where it dropped queued packets
        assert [list(f) for f in ctrl.fault_log] == golden["fault_log"]
        assert ctrl.fault_log == [tuple(f) for f in MIDRUN_FAULTS]
        assert ctrl.lost_to_faults > 0

    @pytest.mark.parametrize("engine", ["object", "batch"])
    def test_midrun_golden_is_the_per_cycle_witness(self, engine):
        """The golden is what a per-cycle ``step()`` +
        ``fire_due_events()`` drain produces, not merely what the
        event-bounded drain produced when it was last regenerated."""
        golden = _load("workload_table_midrun.json")
        ref = on_engine(DetourController(M, H), engine)
        ref.schedule(FaultScenario([tuple(f) for f in MIDRUN_FAULTS]))
        refused = per_cycle_workload(ref, _workload_batches())
        _assert_records_match(_records(ref), golden["records"])
        assert dataclasses.asdict(ref.sim.stats()) == golden["run_stats"]
        assert refused == golden["unreachable_pairs"]
        assert [list(f) for f in ref.fault_log] == golden["fault_log"]


class TestStreamGoldens:
    @pytest.mark.parametrize("engine", ["object", "batch"])
    def test_mid_stream_epoch_pinned(self, engine):
        golden = _load("stream_table.json")
        ctrl, stats = run_stream_case(engine)
        _assert_records_match(_records(ctrl), golden["records"])
        assert ctrl.unreachable_pairs == golden["unreachable_pairs"]
        assert ctrl.lost_to_faults == golden["lost_to_faults"]
        assert [list(f) for f in ctrl.fault_log] == golden["fault_log"]
        s = golden["stream"]
        assert stats.offered == s["offered"]
        assert stats.delivered == s["delivered"]
        assert stats.dropped == s["dropped"]
        assert stats.unadmitted == s["unadmitted"]
        assert stats.final_occupancy == s["final_occupancy"]

    def test_stream_fault_epoch_did_bite(self):
        """Guard the scenario itself: the golden is only interesting if
        the mid-stream fault dropped queued packets and refused traffic
        both before and after the epoch change."""
        golden = _load("stream_table.json")
        assert golden["lost_to_faults"] > 0
        assert golden["stream"]["dropped"] >= golden["lost_to_faults"]
        assert golden["unreachable_pairs"] > 0
        assert golden["fault_log"] == [[0, 3], [60, 9]]


def regen() -> None:  # pragma: no cover - maintenance entry point
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, build in GOLDENS.items():
        payload = build()
        (GOLDEN_DIR / name).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {GOLDEN_DIR / name}")


if __name__ == "__main__":  # pragma: no cover
    import sys

    if "--regen" in sys.argv:
        regen()
    else:
        print(__doc__)
