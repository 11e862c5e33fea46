"""Open-loop streaming: batch engine vs witness engine goldens, window
accounting, saturation detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.experiments import ExperimentSpec
from repro.simulator import (
    DetourController,
    FaultScenario,
    PacketArrays,
    PoissonSource,
    ReconfigurationController,
    TraceSource,
    find_saturation,
    realize_fault_model,
    run_grid,
    run_stream,
)
from tests.conformance.harness import on_engine, per_cycle_stream


def _records(ctrl) -> PacketArrays:
    return ctrl.sim.packet_records()


def _stream(engine, faults=(), *, controller="reconfig", rate=2.0,
            cycles=300, warmup=50, window=50, capacity=1):
    if controller == "detour":
        ctrl = on_engine(DetourController(2, 5, link_capacity=capacity), engine)
        if faults:
            ctrl.schedule(FaultScenario(list(faults)))
    else:
        ctrl = on_engine(
            ReconfigurationController(2, 5, 2, link_capacity=capacity), engine
        )
        if faults:
            ctrl.schedule(FaultScenario(list(faults)))
    src = PoissonSource(32, rate, seed=3)
    stats = run_stream(ctrl, src, cycles=cycles, warmup=warmup, window=window)
    return ctrl, stats


class TestGoldenEquivalence:
    """The batch engine and the per-packet witness engine must agree
    packet-for-packet on the same seeded streaming workload."""

    @pytest.mark.parametrize("faults", [
        (), ((50, 9),), ((40, 3), (120, 17)),
        # events on consecutive cycles, and one past the horizon
        ((70, 9), (71, 17), (400, 3)),
    ])
    def test_bit_identical_records(self, faults):
        co, so = _stream("object", faults)
        cb, sb = _stream("batch", faults)
        po, pb = _records(co), _records(cb)
        assert np.array_equal(po.injected_at, pb.injected_at)
        assert np.array_equal(po.delivered_at, pb.delivered_at)
        assert np.array_equal(po.hops, pb.hops)
        assert np.array_equal(po.dropped, pb.dropped)
        assert co.fault_log == cb.fault_log
        assert so == sb  # StreamStats incl. the full window series

    def test_identical_under_capacity(self):
        _, so = _stream("object", capacity=2, rate=6.0)
        _, sb = _stream("batch", capacity=2, rate=6.0)
        assert so == sb

    def test_detour_streaming_identical(self):
        co, so = _stream("object", ((0, 3),), controller="detour", rate=1.0)
        cb, sb = _stream("batch", ((0, 3),), controller="detour", rate=1.0)
        assert so == sb
        assert co.unreachable_pairs == cb.unreachable_pairs > 0
        assert so.unadmitted == co.unreachable_pairs

    def test_detour_mid_stream_fault_identical(self):
        """A detour fault firing *mid-stream* opens a new routing epoch
        (it recompiles the survivor table) — both engines must agree
        packet-for-packet through the transition."""
        faults = ((0, 3), (60, 9))
        co, so = _stream("object", faults, controller="detour", rate=3.0)
        cb, sb = _stream("batch", faults, controller="detour", rate=3.0)
        po, pb = _records(co), _records(cb)
        assert np.array_equal(po.injected_at, pb.injected_at)
        assert np.array_equal(po.delivered_at, pb.delivered_at)
        assert np.array_equal(po.hops, pb.hops)
        assert np.array_equal(po.dropped, pb.dropped)
        assert so == sb
        assert co.fault_log == cb.fault_log == [(0, 3), (60, 9)]
        assert co.unreachable_pairs == cb.unreachable_pairs > 0
        assert so.unadmitted == co.unreachable_pairs

    def test_mid_stream_fault_drops_queued_packets(self):
        """A fault mid-stream must take down in-flight traffic and
        reroute everything injected afterwards."""
        ctrl, stats = _stream("batch", ((60, 9),), rate=4.0)
        assert ctrl.fault_log == [(60, 9)]
        assert stats.totals.dropped == ctrl.lost_to_faults > 0


def _churn():
    """A realized churn universe: four fail/heal cycles over 240 cycles."""
    return realize_fault_model(
        {"name": "churn", "p": 0.9, "mean_downtime": 20, "rounds": 2,
         "window": [0, 240]},
        n=32, cycles=300, rng=np.random.default_rng([17, 0]),
    )


#: run_stream vs the per-cycle witness: (scenario, rate, options)
_WITNESS_CASES = {
    # faults at t0, on consecutive cycles, and past the horizon
    "fault-timing": (lambda: FaultScenario([(0, 3), (70, 9), (71, 17),
                                            (400, 5)]), 3.0, {}),
    "churn": (_churn, 2.0, {}),
    "capacity-2": (lambda: FaultScenario([(40, 3), (120, 17)]), 6.0,
                   {"capacity": 2}),
    "warmup-window": (lambda: FaultScenario([(60, 9)], [(150, 9)]), 3.0,
                      {"warmup": 50, "window": 40}),
}


class TestPerCycleWitness:
    """The epoch drain (timed injection, ``run(until=<next event>)``)
    matches ``per_cycle_stream``, which fires, routes, injects and steps
    one cycle at a time: both controllers, both engines."""

    @pytest.mark.parametrize("case", sorted(_WITNESS_CASES))
    @pytest.mark.parametrize("engine", ["object", "batch"])
    @pytest.mark.parametrize("controller", ["reconfig", "detour"])
    def test_drain_matches_witness(self, controller, engine, case):
        scenario, rate, opts = _WITNESS_CASES[case]
        capacity = opts.get("capacity", 1)
        runs = []
        for drive in (run_stream, per_cycle_stream):
            if controller == "detour":
                ctrl = on_engine(
                    DetourController(2, 5, link_capacity=capacity), engine
                )
            else:
                ctrl = on_engine(
                    ReconfigurationController(2, 5, 3, link_capacity=capacity),
                    engine,
                )
            ctrl.schedule(scenario())
            stats = drive(ctrl, PoissonSource(32, rate, seed=3), cycles=300,
                          warmup=opts.get("warmup", 0),
                          window=opts.get("window", 0))
            runs.append((ctrl, stats))
        (a, sa), (b, sb) = runs
        got, want = a.sim.packet_records(), b.sim.packet_records()
        for name in ("injected_at", "delivered_at", "hops", "dropped"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert a.sim.cycle == b.sim.cycle == 300
        assert a.fault_log == b.fault_log != []
        assert a.repair_log == b.repair_log
        assert a.lost_to_faults == b.lost_to_faults
        assert a.unreachable_pairs == b.unreachable_pairs
        assert sa == sb
        if case == "fault-timing":
            assert a.fault_log == [(0, 3), (70, 9), (71, 17)]
        if controller == "detour":
            assert a.unreachable_pairs > 0


class TestDetourTableCache:
    """The detour router has no table cache: it compiles one survivor
    table per routed batch, against the fault set of the moment, and
    keeps none.  A fault epoch of a stream is one routed batch, so a
    fault recompiles before the first arrivals after it."""

    def _spy_compiles(self, monkeypatch):
        import repro.simulator.faults as faults_mod

        calls: list[frozenset] = []
        real = faults_mod.survivor_route_table

        def spy(g, fs):
            calls.append(frozenset(int(v) for v in fs))
            return real(g, fs)

        monkeypatch.setattr(faults_mod, "survivor_route_table", spy)
        return calls

    def test_one_compile_per_routed_batch_closed_loop(self, monkeypatch):
        from repro.simulator import make_pattern

        calls = self._spy_compiles(monkeypatch)
        ctrl = DetourController(2, 5)
        ctrl.fail_node(3)
        pairs = make_pattern(32, "uniform", 160, np.random.default_rng(1))
        ctrl.run_workload(list(np.array_split(pairs, 4)))
        # four batches in one fault epoch -> one compile per batch
        assert calls == [frozenset({3})] * 4

    def test_mid_stream_fault_recompiles_before_next_arrivals(
        self, monkeypatch
    ):
        calls = self._spy_compiles(monkeypatch)
        ctrl = DetourController(2, 5)
        ctrl.schedule(FaultScenario([(60, 9)]))
        run_stream(ctrl, PoissonSource(32, 2.0, seed=3), cycles=200)
        # epoch 0 (fault-free) + the post-fault epoch, nothing else —
        # the recompile happens at the fault cycle, before the next
        # arrival batch is injected
        assert calls == [frozenset(), frozenset({9})]
        assert ctrl.fault_log == [(60, 9)]
        # traffic addressed at the dead node after cycle 60 was refused
        # by the *recompiled* table
        assert ctrl.unreachable_pairs > 0

    def test_cycle_zero_fault_compiles_once(self, monkeypatch):
        """Events due at the start cycle fire before the first routing
        pass, so a cycle-0 scheduled fault costs one compile, not a
        discarded fault-free compile plus a recompile."""
        calls = self._spy_compiles(monkeypatch)
        ctrl = DetourController(2, 5)
        ctrl.schedule(FaultScenario([(0, 3)]))
        run_stream(ctrl, PoissonSource(32, 2.0, seed=3), cycles=100)
        assert calls == [frozenset({3})]

    def test_no_table_outlives_its_routes(self, monkeypatch):
        """The solo path keeps no survivor table: each one is dead as
        soon as the route call that compiled it returns, and none is
        alive while the engine runs a stream's epoch."""
        import weakref

        import repro.simulator.faults as faults_mod
        from repro.simulator.batch_engine import BatchEngine

        tables: list[weakref.ref] = []
        real = faults_mod.survivor_route_table

        def spy(g, fs):
            table = real(g, fs)
            tables.append(weakref.ref(table.table))
            return table

        monkeypatch.setattr(faults_mod, "survivor_route_table", spy)
        ctrl = DetourController(2, 5)
        pairs = np.array([[0, 5], [1, 6]], dtype=np.int64)
        ctrl._route(pairs)
        ctrl.fail_node(3)
        ctrl._route(pairs)
        assert len(tables) == 2
        assert [ref() is None for ref in tables] == [True, True]

        held: list[int] = []    # per engine run: tables still alive
        run = BatchEngine.run

        def counted(sim, *args, **kwargs):
            held.append(sum(ref() is not None for ref in tables))
            return run(sim, *args, **kwargs)

        monkeypatch.setattr(BatchEngine, "run", counted)
        ctrl = DetourController(2, 5)
        ctrl.schedule(FaultScenario([(60, 9)], [(140, 9)]))
        run_stream(ctrl, PoissonSource(32, 2.0, seed=3), cycles=220)
        assert len(tables) == 5 and len(held) == 3
        assert not any(held), "a survivor table outlived its routes"

    def test_repair_epoch_recompiles_table(self, monkeypatch):
        """Churn golden: a mid-stream node_repair reopens a routing
        epoch, so the table recompiles against the healed survivor set —
        fault-free, post-fault, post-repair, one compile each."""
        calls = self._spy_compiles(monkeypatch)
        ctrl = DetourController(2, 5)
        ctrl.schedule(FaultScenario([(60, 9)], [(140, 9)]))
        run_stream(ctrl, PoissonSource(32, 2.0, seed=3), cycles=220)
        assert calls == [frozenset(), frozenset({9}), frozenset()]
        assert ctrl.fault_log == [(60, 9)]
        assert ctrl.repair_log == [(140, 9)]
        assert ctrl.faults == set()

    def test_churn_universe_epochs_pin_compiles(self, monkeypatch):
        """A realized churn universe drives one compile per distinct
        consecutive fault set — never a redundant recompile, and the
        fired repair timeline matches the drawn schedule exactly."""
        calls = self._spy_compiles(monkeypatch)
        scenario = realize_fault_model(
            {"name": "churn", "p": 0.9, "mean_downtime": 20, "rounds": 2,
             "window": [0, 240]},
            n=32, cycles=300, rng=np.random.default_rng([17, 0]),
        )
        assert scenario.node_faults and scenario.node_repairs
        ctrl = DetourController(2, 5)
        ctrl.schedule(scenario)
        run_stream(ctrl, PoissonSource(32, 2.0, seed=3), cycles=300)
        # every fault and repair fired at exactly its drawn cycle
        assert ctrl.fault_log == sorted(scenario.node_faults)
        assert ctrl.repair_log == sorted(scenario.node_repairs)
        assert ctrl.faults == set()  # round windows cap every downtime
        # compiles: lazily per routed epoch, consecutive sets distinct
        assert len(calls) >= 3
        assert all(a != b for a, b in zip(calls, calls[1:]))

    @pytest.mark.parametrize("engine", ["object", "batch"])
    def test_churn_stream_routes_each_arrival_once(self, engine, monkeypatch):
        """run_stream routes one fault epoch between scheduled events at a
        time, so the pairs handed to the controller's route hook sum to
        the source's arrivals: no fault or repair epoch re-routes
        arrivals already routed."""
        routed: list[int] = []
        real = DetourController._route

        def spy(self, pairs):
            routed.append(len(pairs))
            return real(self, pairs)

        monkeypatch.setattr(DetourController, "_route", spy)
        scenario = realize_fault_model(
            {"name": "churn", "p": 0.9, "mean_downtime": 20, "rounds": 2,
             "window": [0, 240]},
            n=32, cycles=300, rng=np.random.default_rng([17, 0]),
        )
        ctrl = on_engine(DetourController(2, 5), engine)
        ctrl.schedule(scenario)
        source = PoissonSource(32, 2.0, seed=3)
        run_stream(ctrl, source, cycles=300)
        arrivals = source.schedule(300)[0].size
        assert len(routed) > 3  # one call per epoch between events
        assert sum(routed) == arrivals

    def test_object_batch_identical_under_repair(self):
        """The repair path keeps the engines semantic twins: identical
        records and logs through a fail/heal cycle."""
        results = []
        for engine in ("object", "batch"):
            ctrl = on_engine(DetourController(2, 5), engine)
            ctrl.schedule(FaultScenario([(50, 9)], [(120, 9)]))
            stats = run_stream(ctrl, PoissonSource(32, 2.0, seed=3),
                               cycles=200)
            results.append((ctrl, stats))
        (co, so), (cb, sb) = results
        po, pb = _records(co), _records(cb)
        assert np.array_equal(po.delivered_at, pb.delivered_at)
        assert np.array_equal(po.dropped, pb.dropped)
        assert co.repair_log == cb.repair_log == [(120, 9)]
        assert so == sb


class TestWindowAccounting:
    def test_series_sums_match_totals(self):
        ctrl, stats = _stream("batch", rate=3.0, cycles=400, window=40)
        w = stats.windows
        assert len(w) == 10
        rec = _records(ctrl)
        assert int(w.injected.sum()) == rec.injected_at.size
        delivered_total = int(
            np.count_nonzero(
                (rec.delivered_at >= 0) & (rec.delivered_at <= 400)
            )
        )
        assert int(w.delivered.sum()) == delivered_total

    def test_occupancy_final_window_matches(self):
        _, stats = _stream("batch", rate=3.0, cycles=400, window=40)
        assert stats.windows.occupancy[-1] == stats.final_occupancy
        assert stats.peak_occupancy >= stats.final_occupancy

    def test_offered_rate_tracks_source(self):
        _, stats = _stream("batch", rate=2.0, cycles=600, warmup=100)
        assert stats.offered_rate == pytest.approx(2.0, rel=0.2)
        assert 0.9 <= stats.delivery_ratio <= 1.1

    def test_trace_source_exact_latency(self):
        """One lonely packet on an idle machine: latency == hops."""
        ctrl = ReconfigurationController(2, 5, 1)
        src = TraceSource(32, np.array([10]), np.array([[0, 31]]))
        stats = run_stream(ctrl, src, cycles=50)
        assert stats.delivered == 1
        rec = _records(ctrl)
        assert rec.delivered_at[0] - rec.injected_at[0] == rec.hops[0]


class TestValidation:
    def test_sharded_engine_rejected(self):
        """The removed multi-process engine cannot reach run_stream: a
        stream spec naming any engine is refused at the door."""
        with pytest.raises(ParameterError, match="key 'engine' was removed"):
            ExperimentSpec.from_dict(
                {"m": 2, "h": 5, "k": 1, "loop": "stream", "engine": "sharded"}
            )

    def test_source_size_mismatch(self):
        ctrl = ReconfigurationController(2, 5, 1)
        with pytest.raises(ParameterError, match="logical nodes"):
            run_stream(ctrl, PoissonSource(16, 1.0), cycles=10)

    def test_warmup_bounds(self):
        ctrl = ReconfigurationController(2, 5, 1)
        with pytest.raises(ParameterError):
            run_stream(ctrl, PoissonSource(32, 1.0), cycles=10, warmup=10)

    def test_scenario_validates(self):
        with pytest.raises(ParameterError):
            ExperimentSpec(m=2, h=4, k=1, loop="stream", fault_model={
                "name": "fixed", "faults": [[0, 1], [0, 2]]})
        with pytest.raises(ParameterError):
            ExperimentSpec(m=2, h=4, loop="stream", source="nope")


class TestSaturation:
    """Saturation-curve smoke test on a tiny machine with one fault."""

    BASE = ExperimentSpec(m=2, h=4, k=1, loop="stream", cycles=400,
                          warmup=80, seed=0,
                          fault_model={"name": "fixed", "faults": [[0, 5]]})

    def _ladder(self, rates, workers):
        specs = [self.BASE.with_rate(r) for r in rates]
        return run_grid(specs, workers=workers).results

    def test_low_rate_is_stable_high_rate_is_not(self):
        points = self._ladder([0.5, 16.0], workers=0)
        assert points[0].stable(0.95)
        assert not points[1].stable(0.95)
        # past saturation the backlog explodes
        assert (points[1].stats.final_occupancy
                > 10 * points[0].stats.final_occupancy)

    def test_find_saturation_brackets_the_knee(self):
        res = find_saturation(
            self.BASE, [1, 2, 4, 8, 16], bisect=3, workers=0
        )
        assert res.bracketed
        assert res.stable_rate <= res.saturation_rate <= res.unstable_rate
        assert 1.0 < res.saturation_rate < 16.0
        # curve rows are sorted by rate and carry the documented fields
        curve = res.curve()
        rates = [row["rate"] for row in curve]
        assert rates == sorted(rates)
        assert {"offered_rate", "delivered_rate", "delivery_ratio",
                "backlog"} <= set(curve[0])

    def test_delivered_throughput_monotone_below_saturation(self):
        res = find_saturation(self.BASE, [1, 2, 4], bisect=0, workers=0)
        ladder = [p.stats.delivered_rate for p in res.points]
        assert ladder == sorted(ladder)

    def test_deterministic_across_runs(self):
        a = self.BASE.run().stats
        b = self.BASE.run().stats
        assert a == b

    def test_sweep_parallel_matches_inline(self):
        """The shard-driver plumbing must not change any number."""
        inline = self._ladder([1.0, 4.0], workers=0)
        pooled = self._ladder([1.0, 4.0], workers=2)
        for a, b in zip(inline, pooled):
            assert a.stats == b.stats

    def test_result_records_workers(self):
        res = find_saturation(self.BASE, [1.0, 16.0], bisect=0, workers=0)
        assert res.workers == 0


class TestBracketing:
    """First-crossing bracket logic on synthetic ladders (pure, no sim)."""

    class _P:
        def __init__(self, rate, ratio):
            from types import SimpleNamespace

            self.spec = SimpleNamespace(rate=rate)
            self._ratio = ratio

        def stable(self, threshold):
            return self._ratio >= threshold

    def _bracket(self, ratios):
        from repro.simulator.streaming import _bracket_first_crossing

        ladder = [self._P(r, q) for r, q in ratios]
        return _bracket_first_crossing(ladder, 0.95)

    def test_clean_crossing(self):
        lo, hi, ok, sat = self._bracket(
            [(1, 1.0), (2, 0.99), (4, 0.90), (8, 0.5)]
        )
        assert (lo, hi, ok) == (2, 4, True)
        assert sat == 3.0

    def test_noisy_stable_rung_above_crossing_does_not_widen(self):
        """A stable point past the first unstable one (threshold noise)
        must not produce stable_rate > unstable_rate."""
        lo, hi, ok, sat = self._bracket(
            [(4, 1.0), (8, 0.94), (10, 0.96), (16, 0.5)]
        )
        assert (lo, hi, ok) == (4, 8, True)
        assert lo < hi

    def test_all_stable_is_lower_bound(self):
        lo, hi, ok, sat = self._bracket([(1, 1.0), (2, 0.99)])
        assert not ok and hi == float("inf") and sat == lo == 2

    def test_all_unstable_is_upper_bound(self):
        lo, hi, ok, sat = self._bracket([(1, 0.5), (2, 0.4)])
        assert not ok and lo == 0.0 and sat == hi == 1
