"""Integration tests for fault scenarios and controllers — the §I story."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.errors import FaultSetError, SimulationError
from repro.simulator import (
    DetourController,
    FaultScenario,
    ReconfigurationController,
    uniform_traffic,
)
from tests.conformance.harness import on_engine


class TestReconfigurationController:
    def test_fault_free_delivery(self, rng):
        ctrl = ReconfigurationController(2, 4, 1)
        batches = [uniform_traffic(16, 50, rng)]
        st = ctrl.run_workload(batches)
        assert st.delivered == 50 and st.dropped == 0

    def test_full_delivery_after_fault(self, rng):
        ctrl = ReconfigurationController(2, 4, 2)
        ctrl.schedule(FaultScenario([(0, 3), (0, 11)]))
        batches = [uniform_traffic(16, 60, rng) for _ in range(2)]
        st = ctrl.run_workload(batches)
        assert st.delivered == 120
        assert ctrl.rec.faults == (3, 11)

    def test_router_avoids_faults(self, rng):
        ctrl = ReconfigurationController(2, 4, 1)
        ctrl.schedule(FaultScenario([(0, 5)]))
        ctrl.fire_due_events()
        pairs = np.array([(s, d) for s in range(16) for d in (0, 7, 15)])
        flat, offsets, kept, hop = ctrl._route(pairs)
        assert kept.tolist() == list(range(len(pairs)))
        assert offsets.size == len(pairs) + 1
        assert 5 not in flat.tolist()

    def test_latency_identical_pre_and_post_fault(self, rng):
        """The zero-dilation claim at the system level: the same workload
        has the same latency profile before and after reconfiguration."""
        pairs = uniform_traffic(16, 200, np.random.default_rng(5))
        a = ReconfigurationController(2, 4, 1)
        sa = a.run_workload([pairs.copy()])
        b = ReconfigurationController(2, 4, 1)
        b.schedule(FaultScenario([(0, 8)]))
        sb = b.run_workload([pairs.copy()])
        assert sa.delivered == sb.delivered
        assert sa.mean_hops == sb.mean_hops  # identical logical routes
        assert sa.mean_latency == pytest.approx(sb.mean_latency, rel=0.25)

    def test_mid_run_fault_drops_then_recovers(self, rng):
        """Honest timing: a fault at cycle 1 fires mid-drain of the first
        batch (taking whatever was queued in the dead router with it);
        the post-fault batch routes around the dead node and every packet
        is accounted for as delivered or dropped."""
        ctrl = ReconfigurationController(2, 4, 1)
        ctrl.schedule(FaultScenario([(1, 6)]))
        b1 = uniform_traffic(16, 40, rng)
        b2 = uniform_traffic(16, 40, rng)
        st = ctrl.run_workload([b1, b2], cycles_per_batch=2)
        assert ctrl.fault_log == [(1, 6)]
        assert st.delivered + st.dropped == 80
        assert st.delivered >= 40  # the post-fault batch flows untouched

    def test_fault_fires_at_scheduled_cycle(self, rng):
        """Regression for the mid-batch timing bug: a fault scheduled at
        cycle c fires at exactly cycle c — mid-drain or inside an idle
        gap — never a full batch late."""
        ctrl = ReconfigurationController(2, 4, 2)
        ctrl.schedule(FaultScenario([(5, 3), (12, 11)]))
        batches = [uniform_traffic(16, 40, rng) for _ in range(3)]
        ctrl.run_workload(batches, cycles_per_batch=10)
        assert ctrl.fault_log == [(5, 3), (12, 11)]

    def test_idle_gap_honors_fixed_timeline(self):
        """cycles_per_batch idles *before* each subsequent batch, so an
        all-empty workload still advances the clock and fires the fault
        scheduled inside the second gap at its exact cycle."""
        ctrl = ReconfigurationController(2, 4, 1)
        ctrl.schedule(FaultScenario([(7, 5)]))
        empty = np.empty((0, 2), dtype=np.int64)
        st = ctrl.run_workload([empty, empty, empty], cycles_per_batch=5)
        assert ctrl.fault_log == [(7, 5)]
        assert st.cycles == 10

    def test_budget_violation_raises(self, rng):
        ctrl = ReconfigurationController(2, 3, 1)
        ctrl.schedule(FaultScenario([(0, 1), (0, 2)]))
        with pytest.raises(Exception):
            ctrl.run_workload([uniform_traffic(8, 10, rng)])


class TestDetourController:
    def test_fault_free(self, rng):
        det = DetourController(2, 4)
        st = det.run_workload([uniform_traffic(16, 50, rng)])
        assert st.delivered == 50
        assert det.unreachable_pairs == 0

    def test_faults_lose_traffic(self, rng):
        det = DetourController(2, 4)
        det.fail_node(0)
        det.fail_node(9)
        batches = [uniform_traffic(16, 200, rng)]
        st = det.run_workload(batches)
        assert det.unreachable_pairs > 0
        assert st.delivered + det.unreachable_pairs == 200

    def test_scheduled_fault_fires_on_its_cycle(self, rng):
        """The detour baseline's event clock: a fault due mid-drain
        fires on exactly its cycle, so later batches detour around it
        and traffic to it is refused."""
        det = DetourController(2, 4)
        det.schedule(FaultScenario([(1, 5)]))
        to_dead = np.array([[0, 5]] * 10, dtype=np.int64)
        det.run_workload([uniform_traffic(16, 40, rng), to_dead])
        assert det.fault_log == [(1, 5)]
        assert det.unreachable_pairs >= 10  # the whole second batch

    def test_fail_node_counts_lost_packets(self):
        """Packets queued in a router when it dies are charged to
        lost_to_faults, mirroring the reconfiguration controller."""
        det = DetourController(2, 4)
        flat, offsets, _, hop = det._route(
            np.array([[5, 0], [5, 2]], dtype=np.int64)
        )
        det.sim.inject_routes(flat, offsets, hop=hop)
        det.fail_node(5)  # both packets still sit in node 5's queue
        assert det.lost_to_faults == 2

    def test_rejected_fault_node_does_not_poison_state(self):
        """An out-of-range node must be rejected *before* it enters the
        fault set — otherwise every later routing batch would raise."""
        det = DetourController(2, 4)
        with pytest.raises(SimulationError):
            det.fail_node(99)
        assert det.faults == set()
        pairs = np.array([[0, 7]], dtype=np.int64)
        _, _, kept, _ = det._route(pairs)
        assert kept.tolist() == [0]  # routing still works

    def test_loss_grows_with_fault_count(self):
        """The bare machine loses more pairs with every fault: the
        same traffic on B_{2,5} with one, two and three dead nodes."""
        lost = []
        for faults in ([5], [5, 9], [5, 9, 22]):
            det = DetourController(2, 5)
            for f in faults:
                det.fail_node(f)
            det.run_workload([uniform_traffic(32, 300, np.random.default_rng(1))])
            lost.append(det.unreachable_pairs)
        assert lost[0] > 0
        assert lost == sorted(lost)

    def test_detour_vs_reconfig_comparison(self, rng):
        """The MOTIV experiment in miniature: the FT machine delivers
        everything, the bare machine cannot."""
        pairs = uniform_traffic(16, 150, np.random.default_rng(17))
        ft = ReconfigurationController(2, 4, 1)
        ft.schedule(FaultScenario([(0, 4)]))
        s_ft = ft.run_workload([pairs.copy()])
        bare = DetourController(2, 4)
        bare.fail_node(4)
        s_bare = bare.run_workload([pairs.copy()])
        assert s_ft.delivered == 150
        assert s_bare.delivered < 150
        assert bare.unreachable_pairs == 150 - s_bare.delivered


class TestFaultClock:
    """The controllers' fault clock: ``schedule`` merges
    :meth:`FaultScenario.events` by cycle and ``fire_due_events``
    consumes it from the front, on both engines."""

    @staticmethod
    def _ctrl(controller, engine):
        if controller == "reconfig":
            return on_engine(ReconfigurationController(2, 4, 3), engine)
        return on_engine(DetourController(2, 4), engine)

    @pytest.mark.parametrize("engine", ["object", "batch"])
    @pytest.mark.parametrize("controller", ["reconfig", "detour"])
    def test_firing_order(self, controller, engine):
        """Within a cycle an earlier schedule's events fire first (node 3
        fails before the later schedule repairs it); within one schedule
        repairs fire before faults (node 1 heals, then fails again)."""
        ctrl = self._ctrl(controller, engine)
        ctrl.schedule(FaultScenario([(5, 3), (2, 1)]))
        ctrl.schedule(FaultScenario([(5, 1), (5, 9)], [(5, 3), (5, 1)]))
        fired = []
        for c in range(8):
            ctrl.sim.cycle = c
            fired.append(ctrl.fire_due_events())
        assert fired == [0, 0, 1, 0, 0, 5, 0, 0]
        assert ctrl.fault_log == [(2, 1), (5, 3), (5, 1), (5, 9)]
        assert ctrl.repair_log == [(5, 3), (5, 1)]
        assert ctrl.sim.dead_nodes == {1, 9}

    @pytest.mark.parametrize("engine", ["object", "batch"])
    @pytest.mark.parametrize("controller", ["reconfig", "detour"])
    def test_partial_firing(self, controller, engine):
        ctrl = self._ctrl(controller, engine)
        ctrl.schedule(FaultScenario([(9, 4), (1, 2)]))
        assert ctrl.next_event_cycle() == 1
        ctrl.sim.cycle = 5
        assert ctrl.fire_due_events() == 1
        assert ctrl.next_event_cycle() == 9
        ctrl.sim.cycle = 9
        assert ctrl.fire_due_events() == 1
        assert ctrl.next_event_cycle() is None
        # an event fires, and is logged, at the clock it was fired on
        assert ctrl.fault_log == [(5, 2), (9, 4)]

    @pytest.mark.parametrize("engine", ["object", "batch"])
    @pytest.mark.parametrize("controller", ["reconfig", "detour"])
    def test_past_schedule_rejected(self, controller, engine):
        ctrl = self._ctrl(controller, engine)
        ctrl.sim.cycle = 10
        ctrl.fire_due_events()
        with pytest.raises(SimulationError, match="cannot schedule"):
            ctrl.schedule(FaultScenario([(12, 3), (5, 6)]))
        assert ctrl.next_event_cycle() is None  # nothing of it was queued
        ctrl.schedule(FaultScenario([(10, 6)]))  # the last fired cycle is fine
        assert ctrl.fire_due_events() == 1

    @pytest.mark.parametrize("engine", ["object", "batch"])
    @pytest.mark.parametrize("controller", ["reconfig", "detour"])
    def test_backwards_firing_rejected(self, controller, engine):
        ctrl = self._ctrl(controller, engine)
        ctrl.schedule(FaultScenario([(5, 6)]))
        ctrl.sim.cycle = 10
        ctrl.fire_due_events()
        ctrl.sim.cycle = 3
        with pytest.raises(SimulationError, match="cannot fire"):
            ctrl.fire_due_events()
        assert ctrl.fault_log == [(10, 6)]

    @pytest.mark.parametrize("engine", ["object", "batch"])
    def test_refused_event_is_consumed(self, engine):
        """An event leaves the schedule before it fires, so one past the
        spare budget raises once and is gone, not retried."""
        ctrl = on_engine(ReconfigurationController(2, 3, 1), engine)
        ctrl.schedule(FaultScenario([(0, 1), (0, 2), (4, 5)]))
        with pytest.raises(FaultSetError):
            ctrl.fire_due_events()
        assert ctrl.fault_log == [(0, 1)]
        assert ctrl.next_event_cycle() == 4


class TestControllerLifetime:
    @pytest.mark.parametrize("make", [
        lambda: ReconfigurationController(2, 4, 2),
        lambda: DetourController(2, 4),
    ], ids=["reconfig", "detour"])
    def test_finished_controller_freed_without_gc(self, make, rng):
        # reference counting alone must free a controller, its engine and
        # the engine's per-packet arrays: no cycle may wait for a
        # generation-2 collection
        ctrl = make()
        ctrl.schedule(FaultScenario([(0, 3), (4, 9)]))
        ctrl.run_workload([uniform_traffic(16, 60, rng) for _ in range(2)])
        assert ctrl.fault_log
        refs = (weakref.ref(ctrl), weakref.ref(ctrl.sim))
        gc.collect()
        gc.disable()
        try:
            del ctrl
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


class TestDrainSummaries:
    """The drains build no summary they would throw away: engine ``run``
    returns nothing, ``run_stream`` never calls ``stats()`` and
    ``run_workload`` calls it once, for the summary it returns."""

    @staticmethod
    def _controller(controller, engine, monkeypatch):
        if controller == "reconfig":
            ctrl = on_engine(ReconfigurationController(2, 4, 3), engine)
        else:
            ctrl = on_engine(DetourController(2, 4), engine)
        # faults mid-drain and mid-stream, so each drain runs in pieces
        ctrl.schedule(FaultScenario([(2, 3), (5, 9), (40, 12)]))
        calls: list[int] = []
        real = type(ctrl.sim).stats

        def spy(sim):
            calls.append(sim.cycle)
            return real(sim)

        monkeypatch.setattr(type(ctrl.sim), "stats", spy)
        return ctrl, calls

    @pytest.mark.parametrize("engine", ["object", "batch"])
    @pytest.mark.parametrize("controller", ["reconfig", "detour"])
    def test_run_workload_summarizes_once(self, controller, engine,
                                          monkeypatch, rng):
        ctrl, calls = self._controller(controller, engine, monkeypatch)
        st = ctrl.run_workload([uniform_traffic(16, 60, rng) for _ in range(2)])
        assert len(ctrl.fault_log) == 2  # the drain stopped on both
        assert calls == [ctrl.sim.cycle]
        assert st.injected == 120 - ctrl.unreachable_pairs

    @pytest.mark.parametrize("engine", ["object", "batch"])
    @pytest.mark.parametrize("controller", ["reconfig", "detour"])
    def test_run_stream_never_summarizes(self, controller, engine,
                                         monkeypatch):
        from repro.simulator import PoissonSource, run_stream

        ctrl, calls = self._controller(controller, engine, monkeypatch)
        stats = run_stream(ctrl, PoissonSource(16, 2.0, seed=3), cycles=80)
        assert len(ctrl.fault_log) == 3
        assert stats.offered > 0
        assert calls == []


class TestOneRouteHook:
    """A controller routing alone calls its class's block hook, the one
    router each controller has, on a block of one: itself."""

    @pytest.mark.parametrize("kind", [ReconfigurationController, DetourController])
    @pytest.mark.parametrize("drive", ["run_workload", "run_stream"])
    def test_solo_runs_route_as_a_block_of_one(self, kind, drive, monkeypatch, rng):
        from repro.simulator import PoissonSource, run_stream

        blocks: list[list] = []
        real = kind._block_routes

        def spy(controllers, pairs):
            blocks.append(list(controllers))
            return real(controllers, pairs)

        monkeypatch.setattr(kind, "_block_routes", staticmethod(spy))
        ctrl = kind(2, 4, 3) if kind is ReconfigurationController else kind(2, 4)
        ctrl.schedule(FaultScenario([(0, 3), (5, 9)]))
        if drive == "run_workload":  # one route call per batch
            ctrl.run_workload([uniform_traffic(16, 60, rng) for _ in range(2)])
        else:  # one route call per fault epoch: [0, 5) and [5, 40)
            run_stream(ctrl, PoissonSource(16, 2.0, seed=3), cycles=40)
        assert ctrl.fault_log == [(0, 3), (5, 9)]
        assert [len(b) for b in blocks] == [1, 1]
        assert all(b[0] is ctrl for b in blocks)


class TestFaultScenario:
    def test_events(self):
        """The one firing order: by cycle, repairs before faults within a
        cycle, list order (not node order) within each kind."""
        sc = FaultScenario([(7, 2), (3, 4), (3, 1)], [(3, 9), (0, 2)])
        assert sc.events() == [
            (0, False, 2), (3, False, 9), (3, True, 4), (3, True, 1), (7, True, 2),
        ]
        assert FaultScenario().events() == []

    def test_fault_count(self):
        assert FaultScenario([(0, 1)]).fault_count == 1
