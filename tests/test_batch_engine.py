"""Golden equivalence tests: ``BatchEngine`` against the per-packet
witness engine (``NetworkSimulator`` in ``tests/conformance/``).

Every test runs the same (graph, injections, fault schedule) through
both engines and asserts *bit-identical* ``RunStats`` plus identical
per-packet delivery cycles and drop decisions — across all seven traffic
patterns, a small ``(m, h, k)`` grid, node and link faults, staggered
injections, and link capacities.  The ``"object"`` parameter is the
witness, swapped into a controller by
:func:`tests.conformance.harness.on_engine`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import debruijn
from repro.errors import SimulationError
from repro.experiments import ExperimentSpec
from repro.graphs import StaticGraph, path
from repro.routing import shift_route
from repro.simulator import (
    BatchEngine,
    DetourController,
    FaultScenario,
    PacketArrays,
    ReconfigurationController,
    hotspot_traffic,
    make_pattern,
    pack_routes,
    summarize,
    uniform_traffic,
)
from repro.simulator.traffic import PATTERNS
from tests.conformance.harness import (
    NetworkSimulator,
    on_engine,
    per_cycle_workload,
    searched_slots,
    witness_run,
)


def object_records(sim: NetworkSimulator) -> tuple[np.ndarray, np.ndarray]:
    """(delivered_at, dropped) arrays in pid order from the witness engine."""
    delivered = np.array(
        [-1 if p.delivered_at is None else p.delivered_at for p in sim.packets],
        dtype=np.int64,
    )
    dropped = np.array([p.dropped for p in sim.packets], dtype=bool)
    return delivered, dropped


def assert_twins(sim: NetworkSimulator, be: BatchEngine) -> None:
    """Full equivalence check: stats, delivery cycles, drop decisions."""
    assert sim.cycle == be.cycle
    assert sim.stats() == be.stats()
    obj_delivered, obj_dropped = object_records(sim)
    np.testing.assert_array_equal(obj_delivered, be.delivered_at)
    np.testing.assert_array_equal(obj_dropped, be.dropped_mask)


class TestGoldenEquivalenceGrid:
    """All seven patterns, with and without faults, over an (m, h, k) grid."""

    @pytest.mark.parametrize("pattern", PATTERNS.names())
    @pytest.mark.parametrize("m,h,k", [(2, 3, 1), (2, 4, 2), (3, 3, 1)])
    def test_pattern_no_faults(self, pattern, m, h, k):
        n = m ** h
        if pattern in ("transpose",) and int(round(n ** 0.5)) ** 2 != n:
            pytest.skip("transpose needs a square node count")
        if pattern in ("bit-reversal", "descend") and n & (n - 1):
            pytest.skip("pattern needs a power-of-two node count")
        pairs = make_pattern(n, pattern, 200, np.random.default_rng(5))
        a = on_engine(ReconfigurationController(m, h, k), "object")
        sa = a.run_workload([pairs.copy()])
        b = ReconfigurationController(m, h, k)
        sb = b.run_workload([pairs.copy()])
        assert sa == sb
        assert_twins(a.sim, b.sim)

    @pytest.mark.parametrize("pattern", PATTERNS.names())
    def test_pattern_with_mid_run_node_faults(self, pattern):
        m, h, k = 2, 4, 2
        n = m ** h
        pairs = make_pattern(n, pattern, 150, np.random.default_rng(11))
        batches = [pairs[: len(pairs) // 2], pairs[len(pairs) // 2:]]
        scenario = FaultScenario([(2, 6), (8, 11)])
        a = on_engine(ReconfigurationController(m, h, k), "object")
        a.schedule(scenario)
        sa = a.run_workload([x.copy() for x in batches], cycles_per_batch=3)
        b = ReconfigurationController(m, h, k)
        b.schedule(FaultScenario(list(scenario.node_faults)))
        sb = b.run_workload([x.copy() for x in batches], cycles_per_batch=3)
        assert sa == sb
        assert a.fault_log == b.fault_log
        assert a.lost_to_faults == b.lost_to_faults
        assert_twins(a.sim, b.sim)

    # heavier single-batch workloads: (pattern, m, h, k, packets,
    # (cycle, node) faults); each fault fires mid-drain and drops queued
    # packets.  Hotspot is the long congested drain where the batch
    # engine settles coalesced windows instead of stepping.
    @pytest.mark.parametrize("capacity", [1, 2])
    @pytest.mark.parametrize("pattern,m,h,k,packets,faults", [
        pytest.param("uniform", 2, 7, 1, 5_000, [], id="uniform-B1_2_7"),
        pytest.param("uniform", 2, 6, 1, 4_000, [(3, 9)], id="uniform-B1_2_6"),
        pytest.param("hotspot", 2, 6, 1, 4_000, [(3, 9)], id="hotspot-B1_2_6"),
        pytest.param("transpose", 2, 8, 2, 4_000, [(5, 40)], id="transpose-B2_2_8"),
        pytest.param("descend", 2, 8, 2, 4_000, [(2, 40)], id="descend-B2_2_8"),
    ])
    def test_heavy_workload(self, pattern, m, h, k, packets, faults, capacity,
                            monkeypatch):
        pairs = make_pattern(m ** h, pattern, packets, np.random.default_rng(0))
        windows = []
        real = BatchEngine._step_coalesced

        def spy(self, stop, limit=64):
            settled = real(self, stop, limit)
            windows.append(settled)
            return settled

        monkeypatch.setattr(BatchEngine, "_step_coalesced", spy)
        runs = []
        for engine in ("object", "batch"):
            ctrl = on_engine(
                ReconfigurationController(m, h, k, link_capacity=capacity), engine
            )
            ctrl.schedule(FaultScenario(faults))
            runs.append((ctrl, ctrl.run_workload([pairs.copy()])))
        (a, sa), (b, sb) = runs
        assert sa == sb
        assert_twins(a.sim, b.sim)
        assert a.fault_log == b.fault_log == faults
        assert a.lost_to_faults == b.lost_to_faults
        assert (a.lost_to_faults > 0) == bool(faults)  # the fault bit
        if pattern == "hotspot":
            assert sum(windows) >= 1


class TestControllerEventTiming:
    """Both controllers drain through one ``run(until=...)`` loop on
    both engines; events must still fire on their exact cycle, as in
    the per-cycle witness.  :class:`TestDetourEventTiming` re-runs every
    test on the detour baseline."""

    pairs = uniform_traffic(16, 80, np.random.default_rng(4))
    batches = [pairs[:40], pairs[40:]]
    controller = "reconfig"
    #: the second early fault: a spare with nothing queued at cycle 3
    #: (an idle router mid-drain)
    idle = 17

    def _make(self, engine):
        if self.controller == "reconfig":
            return on_engine(ReconfigurationController(2, 4, 2), engine)
        return on_engine(DetourController(2, 4), engine)

    def _run(self, engine, scenario, **kwargs):
        ctrl = self._make(engine)
        ctrl.schedule(scenario)
        stats = ctrl.run_workload([b.copy() for b in self.batches], **kwargs)
        return ctrl, stats

    def _scenario(self, gap):
        """Events mid-drain (node 2 carries traffic at cycle 2), on the
        last departure, inside the idle gap, and one that never fires."""
        early = [(2, 2), (3, self.idle)]
        probe = self._make("batch")
        probe.schedule(FaultScenario(early))
        probe.run_workload([self.batches[0].copy()])
        last = probe.sim.cycle  # batch 1's last departure
        end = last + gap  # batch 2 is injected here
        scenario = FaultScenario(
            early + [(end + 2, 5), (10_000, 9)],  # mid-drain, never fires
            [(last, 2), (last + 2, self.idle)],  # last departure, gap
        )
        return scenario, early, last, end

    def test_event_landings_object_equals_batch(self):
        gap = 4
        scenario, early, last, end = self._scenario(gap)
        runs = [self._run(e, scenario, cycles_per_batch=gap)
                for e in ("object", "batch")]
        (a, sa), (b, sb) = runs
        assert sa == sb
        assert_twins(a.sim, b.sim)
        assert a.lost_to_faults == b.lost_to_faults > 0
        assert a.unreachable_pairs == b.unreachable_pairs
        for ctrl in (a, b):
            assert ctrl.fault_log == early + [(end + 2, 5)]
            assert ctrl.repair_log == [(last, 2), (last + 2, self.idle)]
            assert ctrl.sim.cycle > end + 2  # the last fault was mid-drain

    @pytest.mark.parametrize("engine", ["object", "batch"])
    @pytest.mark.parametrize("gap", [0, 4])
    def test_drain_matches_per_cycle_witness(self, engine, gap):
        scenario, *_ = self._scenario(gap)
        ctrl, stats = self._run(engine, scenario, cycles_per_batch=gap)
        ref = self._make(engine)
        ref.schedule(scenario)
        refused = per_cycle_workload(
            ref, [b.copy() for b in self.batches], cycles_per_batch=gap
        )
        assert stats == ref.sim.stats()
        assert ctrl.sim.cycle == ref.sim.cycle
        got, want = ctrl.sim.packet_records(), ref.sim.packet_records()
        for name in ("injected_at", "delivered_at", "hops", "dropped"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert ctrl.fault_log == ref.fault_log
        assert ctrl.repair_log == ref.repair_log
        assert ctrl.lost_to_faults == ref.lost_to_faults
        assert ctrl.unreachable_pairs == refused

    @pytest.mark.parametrize("engine", ["object", "batch"])
    def test_max_cycles_still_raises(self, engine):
        scenario = FaultScenario([(2, 2)])
        with pytest.raises(SimulationError, match="did not drain within 4 "):
            self._run(engine, scenario, max_cycles=4)
        ctrl, _ = self._run(engine, scenario, max_cycles=40)
        assert ctrl.fault_log == [(2, 2)]

    def test_repair_spec_object_equals_batch(self):
        spec = dict(m=2, h=3, k=1, packets=200, seed=0, pattern="uniform",
                    controller=self.controller,
                    fault_model={"name": "fixed", "faults": [[3, 2]],
                                 "repairs": [[6, 2]]})
        spec = ExperimentSpec(**spec)
        a, a_stats = witness_run(spec)
        b = spec.run()
        assert a_stats == b.stats
        assert a.sim.stats() == b.run_stats
        assert a.lost_to_faults == b.lost_to_faults
        c = spec.build_controller()
        c.run_workload(spec.injection_batches())
        assert_twins(a.sim, c.sim)
        assert a.fault_log == c.fault_log
        assert a.repair_log == c.repair_log


class TestDetourEventTiming(TestControllerEventTiming):
    """The same event landings on the spare-less baseline."""

    controller = "detour"
    idle = 12  # any second node: the baseline has no spares


class TestEngineDirectEquivalence:
    """Drive both engines by hand: staggered injections, link faults,
    capacities."""

    def _routes(self, h=5, count=300, seed=3):
        pairs = uniform_traffic(2 ** h, count, np.random.default_rng(seed))
        return [shift_route(int(s), int(d), 2, h) for s, d in pairs]

    @pytest.mark.parametrize("capacity", [1, 2, 4])
    def test_capacity_equivalence(self, capacity):
        g = debruijn(2, 5)
        routes = self._routes()
        sim = NetworkSimulator(g, link_capacity=capacity)
        for r in routes:
            sim.inject_route(r)
        sim.run()
        be = BatchEngine(g, link_capacity=capacity)
        be.inject_routes(*pack_routes(routes))
        be.run()
        assert_twins(sim, be)

    def test_staggered_injection_equivalence(self):
        g = debruijn(2, 5)
        routes = self._routes(count=400, seed=9)
        sim, be = NetworkSimulator(g), BatchEngine(g)
        for lo, hi, steps in [(0, 150, 2), (150, 300, 3), (300, 400, 0)]:
            for r in routes[lo:hi]:
                sim.inject_route(r)
            be.inject_routes(*pack_routes(routes[lo:hi]))
            for _ in range(steps):
                sim.step()
                be.step()
        sim.run()
        be.run()
        assert_twins(sim, be)

    def test_mid_run_link_fault_equivalence(self):
        g = debruijn(2, 5)
        routes = self._routes(seed=13)
        edge = tuple(map(int, g.edges()[7]))

        def drive(engine):
            if isinstance(engine, BatchEngine):
                engine.inject_routes(*pack_routes(routes))
            else:
                for r in routes:
                    engine.inject_route(r)
            engine.step()
            engine.step()
            drops = engine.disable_link(*edge)
            engine.run()
            return drops

        sim, be = NetworkSimulator(g), BatchEngine(g)
        assert drive(sim) == drive(be)
        assert_twins(sim, be)

    def test_mid_run_node_fault_drop_counts(self):
        g = debruijn(2, 5)
        routes = self._routes(seed=21)
        sim, be = NetworkSimulator(g), BatchEngine(g)
        for r in routes:
            sim.inject_route(r)
        be.inject_routes(*pack_routes(routes))
        sim.step()
        be.step()
        assert sim.disable_node(11) == be.disable_node(11)
        sim.run()
        be.run()
        assert_twins(sim, be)

    def test_repaired_node_queues_start_empty(self):
        # the dropped backlog on link (1, 2) must not delay a packet that
        # joins the link after node 2 is repaired
        g = debruijn(2, 3)
        sim, be = NetworkSimulator(g), BatchEngine(g)
        for engine in (sim, be):
            engine.inject_routes(*pack_routes([[1, 2]] * 4))
            assert engine.disable_node(2) == 4
            engine.enable_node(2)
            engine.inject_routes(*pack_routes([[1, 2]]))
            engine.run()
        assert_twins(sim, be)
        assert be.delivered_at[4] == 1

    def test_emptied_bucket_is_taken_once(self):
        # disable_node empties the cycle-1 bucket; refilling that cycle
        # must not give the calendar a second entry for it
        g = debruijn(2, 3)
        sim, be = NetworkSimulator(g), BatchEngine(g)
        for engine in (sim, be):
            engine.inject_routes(*pack_routes([[6, 4]]))
            engine.disable_node(4)
            engine.inject_routes(*pack_routes([[6, 5], [3, 6, 5, 2]]))
            engine.run()
        assert_twins(sim, be)
        assert be.delivered_at.tolist() == [-1, 1, 3]

    def test_same_cycle_departures_into_one_node(self):
        # (0, 2) and (1, 2) are rank-adjacent queues into node 2: all four
        # packets leave them in cycle 1, and the three from (0, 2) must
        # join (2, 3) ahead of the one from (1, 2), as the service order
        # (cycle, then u * n + v, then FIFO) says
        g = StaticGraph(4, [(0, 2), (1, 2), (2, 3)])
        routes = [[1, 2, 3]] + [[0, 2, 3]] * 3
        sim, be = NetworkSimulator(g, 3), BatchEngine(g, 3)
        for engine in (sim, be):
            engine.inject_routes(*pack_routes(routes))
            engine.run()
        assert_twins(sim, be)
        assert be.delivered_at.tolist() == [3, 2, 2, 2]

    def test_self_delivery_and_single_hop(self):
        g = path(3)
        sim, be = NetworkSimulator(g), BatchEngine(g)
        routes = [[1], [0, 1], [2, 1, 0]]
        for r in routes:
            sim.inject_route(r)
        be.inject_routes(*pack_routes(routes))
        sim.run()
        be.run()
        assert_twins(sim, be)
        assert be.delivered_at[0] == 0  # degenerate self-delivery at cycle 0

    def test_supplied_slots_run_as_the_search(self):
        """Routes injected with their slots (``hop=``, route ends
        ignored and left as the caller wrote them) run exactly as the
        search's; the witness asserts the slots equal its own search."""
        g = debruijn(2, 5)
        flat, offsets = pack_routes(self._routes(seed=5))
        hop = np.append(g.directed_edge_slots(flat[:-1], flat[1:]), -1)
        hop[offsets[1:] - 1] = 12345
        sim, be, searched = NetworkSimulator(g), BatchEngine(g), BatchEngine(g)
        sim.inject_routes(flat, offsets, hop=hop)
        be.inject_routes(flat, offsets, hop=hop)
        assert (hop[offsets[1:] - 1] == 12345).all()
        searched.inject_routes(flat, offsets)
        for engine in (sim, be, searched):
            engine.run()
        assert_twins(sim, be)
        assert plain_records(be) == plain_records(searched)


class TestRunUntil:
    """``run(until=c)`` processes exactly the departures at cycles
    ``<= c`` on both engines."""

    @pytest.mark.parametrize("engine", [NetworkSimulator, BatchEngine])
    def test_until_contract(self, engine):
        sim = engine(debruijn(2, 3))
        sim.inject_routes(*pack_routes([[0, 1, 2, 4]]))
        sim.run(until=0)
        assert (sim.cycle, sim.in_flight) == (0, 1)  # until <= cycle: no-op
        sim.run(until=2)
        assert (sim.cycle, sim.in_flight) == (2, 1)  # stops on until
        sim.run(until=9)
        assert (sim.cycle, sim.in_flight) == (3, 0)  # drained first
        sim.run(until=9)
        assert sim.cycle == 3  # nothing in flight: the clock stays

    def test_until_cuts_a_coalesced_drain(self):
        # a long hotspot drain where the batch engine settles coalesced
        # windows and the terminal tail: no kernel may run past a stop
        g = debruijn(2, 5)
        pairs = hotspot_traffic(32, 600, np.random.default_rng(2),
                                hotspot=5, heat=0.9)
        routes = pack_routes([shift_route(int(s), int(d), 2, 5) for s, d in pairs])
        sim, be = NetworkSimulator(g), BatchEngine(g)
        for engine in (sim, be):
            engine.inject_routes(*routes)
        for until in (60, 133, 200, 271, 340):
            for engine in (sim, be):
                engine.run(until=until)
            assert_twins(sim, be)
            if until == 133:
                assert sim.disable_node(9) == be.disable_node(9)
        sim.run()
        be.run()
        assert_twins(sim, be)

    @pytest.mark.parametrize("engine", [NetworkSimulator, BatchEngine])
    def test_until_within_budget_does_not_raise(self, engine):
        sim = engine(debruijn(2, 3))
        sim.inject_routes(*pack_routes([[0, 1, 2, 4]]))
        sim.run(2, until=2)
        assert sim.cycle == 2
        with pytest.raises(SimulationError, match="did not drain within 0"):
            sim.run(0, until=3)

    @pytest.mark.parametrize("engine", [NetworkSimulator, BatchEngine])
    def test_budget_past_until_raises(self, engine):
        sim = engine(debruijn(2, 3))
        sim.inject_routes(*pack_routes([[0, 1, 2, 4]]))
        with pytest.raises(SimulationError, match="did not drain within 1"):
            sim.run(1, until=5)


# one engine operation: (kind, a, b) on the 8 nodes of B_{2,3}; see
# TestRunUntilDifferential.  Injections aim a share of their packets at
# one hot node so that queues back up before faults and repairs hit them;
# raw injections walk random edges in either direction, so they reach
# queues no shift route uses.  A stray injection adds one hop that is not
# an edge to a batch of raw walks, searched or with supplied slots: both
# engines refuse the batch naming that hop and change nothing.  Timed
# injections (at=) mix shift and raw routes with single-node routes and
# spread their arrivals from the clock (or the last pending arrival) over
# 1, 6 or 60 cycles; while they are pending, untimed injections and fault
# operations are refused.  disable_nodes kills 1-3 nodes in one
# batch-engine call and one disable_node call each on the witness.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("inject"), st.integers(0, 2**16), st.integers(1, 40)),
        st.tuples(st.just("inject_raw"), st.integers(0, 2**16), st.integers(1, 12)),
        st.tuples(st.just("inject_stray"), st.integers(0, 2**16), st.integers(0, 8)),
        st.tuples(st.just("inject_at"), st.integers(0, 2**16), st.integers(1, 30)),
        st.tuples(st.just("step"), st.just(0), st.just(0)),
        st.tuples(st.just("disable_node"), st.integers(0, 7), st.just(0)),
        st.tuples(st.just("disable_nodes"),
                  st.lists(st.integers(0, 7), min_size=1, max_size=3), st.just(0)),
        st.tuples(st.just("enable_node"), st.integers(0, 7), st.just(0)),
        st.tuples(st.just("disable_link"), st.integers(0, 10**6), st.just(0)),
        st.tuples(st.just("run"), st.integers(-2, 16), st.integers(0, 40)),
    ),
    min_size=1, max_size=16,
)


class TestRunUntilDifferential:
    """Random inject / timed inject / step / fault / repair /
    ``run(until=c)`` sequences: both engines keep identical packet
    records and clocks after every operation, and refuse the same
    operations with the same message."""

    @staticmethod
    def _records(sim):
        r = sim.packet_records()
        return (sim.cycle, sim.in_flight, r.injected_at.tolist(),
                r.delivered_at.tolist(), r.dropped.tolist())

    @staticmethod
    def _raw_routes(g, seed, count, dead, dead_links):
        """Random walks along edges of ``g`` that avoid dead nodes and
        dead links, taking any live next hop."""
        rng = np.random.default_rng(seed)
        live = [v for v in range(g.node_count) if v not in dead]
        routes = []
        for _ in range(count if live else 0):
            route = [int(rng.choice(live))]
            for _ in range(int(rng.integers(1, 6))):
                nxt = [int(v) for v in g.neighbors(route[-1])
                       if v not in dead and (route[-1], v) not in dead_links]
                if not nxt:
                    break
                route.append(int(rng.choice(nxt)))
            routes.append(route)
        return routes

    def _stray(self, g, seed, count, dead, dead_links):
        """A batch of raw walks plus one route whose last hop is not an
        edge, as ``(flat, offsets, hop, message)``: ``hop`` is ``None``
        or the search's slots (``-1`` on the stray hop), and ``message``
        the refusal naming that hop."""
        rng = np.random.default_rng(seed)
        routes = self._raw_routes(g, seed, count + 1, dead, dead_links)
        if not routes:  # every node dead: walk from a dead node
            routes = [[int(rng.integers(g.node_count))]]
        i = int(rng.integers(len(routes)))
        u = routes[i][-1]
        v = int(rng.choice([w for w in range(g.node_count)
                            if not g.has_edge(u, w)]))
        routes[i] = routes[i] + [v]
        flat, offsets = pack_routes(routes)
        hop = searched_slots(g, flat, offsets) if seed % 2 else None
        return flat, offsets, hop, f"route hop ({u}, {v}) is not an edge"

    def _batch(self, g, kind, seed, count, dead, dead_links, floor):
        """One injection op as ``(routes, at)``."""
        raw = kind == "inject_raw" or (kind == "inject_at" and seed % 2 == 1)
        if raw:
            routes = self._raw_routes(g, seed, count, dead, dead_links)
        else:
            pairs = hotspot_traffic(8, count, np.random.default_rng(seed),
                                    hotspot=seed % 8, heat=0.6)
            routes = [shift_route(int(s), int(d), 2, 3) for s, d in pairs]
            routes = [
                r for r in routes
                if not dead.intersection(r)
                and not dead_links.intersection(zip(r, r[1:]))
            ]
        if kind != "inject_at":
            return routes, None
        routes = [r[:1] if i % 3 == 0 else r for i, r in enumerate(routes)]
        span = (1, 6, 60)[seed % 3]
        rng = np.random.default_rng(seed + 1)
        at = np.sort(floor + rng.integers(0, span, size=len(routes)))
        return routes, at

    @staticmethod
    def _apply(engines, op) -> list | None:
        """Apply ``op`` to both engines: both refuse it with the same
        :class:`SimulationError` message or neither does.  Returns
        ``None`` when both refused, else the two engines' results."""
        results, refusals = [], []
        for sim in engines:
            try:
                results.append(op(sim))
            except SimulationError as exc:
                refusals.append(str(exc))
        assert len(refusals) in (0, len(engines)), refusals
        assert len(set(refusals)) <= 1, refusals
        return None if refusals else results

    @settings(max_examples=100, deadline=None)
    @given(ops=_ops, capacity=st.integers(1, 3))
    # packets queued on the second node's links when both die at once
    @example(ops=[("inject", 0, 7), ("disable_nodes", [0, 1], 0)], capacity=1)
    def test_engines_agree(self, ops, capacity):
        g = debruijn(2, 3)
        edges = [tuple(map(int, e)) for e in g.edges()]
        engines = (NetworkSimulator(g, capacity), BatchEngine(g, capacity))
        dead, dead_links = set(), set()
        last = -1  # latest timed arrival; pending while ahead of the clock
        for kind, a, b in ops:
            pending = last > engines[0].cycle
            if kind == "inject_stray":
                flat, offsets, hop, message = self._stray(
                    g, a, b, dead, dead_links
                )
                before = [self._records(sim) for sim in engines]
                for sim in engines:
                    with pytest.raises(SimulationError) as refused:
                        sim.inject_routes(flat, offsets, hop=hop)
                    assert str(refused.value) == message
                assert [self._records(sim) for sim in engines] == before
            elif kind.startswith("inject"):
                routes, at = self._batch(
                    g, kind, a, b, dead, dead_links, max(engines[0].cycle, last)
                )
                injected = self._apply(engines, lambda sim: sim.inject_routes(
                    *pack_routes(routes), at=at))
                assert (injected is None) == (
                    pending and at is None and bool(routes))
                if at is not None and len(at):
                    last = max(last, int(at[-1]))
            elif kind == "step":
                for sim in engines:
                    sim.step()
            elif kind == "disable_node":
                drops = self._apply(engines, lambda sim: sim.disable_node(a))
                assert (drops is None) == pending
                if drops is not None:
                    assert drops[0] == drops[1]
                    dead.add(a)
            elif kind == "disable_nodes":
                drops, refusals = [], []
                for sim in engines:
                    try:
                        drops.append(
                            sim.disable_nodes(a) if isinstance(sim, BatchEngine)
                            else sum(sim.disable_node(v) for v in a)
                        )
                    except SimulationError as exc:
                        refusals.append(str(exc))
                assert len(refusals) == (2 if pending else 0), refusals
                assert all("while arrivals are pending" in r for r in refusals)
                if drops:
                    assert drops[0] == drops[1]
                    dead.update(a)
            elif kind == "enable_node":
                if dead:
                    v = sorted(dead)[a % len(dead)]
                    revived = self._apply(engines, lambda sim: sim.enable_node(v))
                    assert (revived is None) == pending
                    if revived is not None:
                        dead.discard(v)
            elif kind == "disable_link":
                u, v = edges[a % len(edges)]
                drops = self._apply(engines, lambda sim: sim.disable_link(u, v))
                assert (drops is None) == pending
                if drops is not None:
                    assert drops[0] == drops[1]
                    dead_links.update({(u, v), (v, u)})
            else:
                until = engines[0].cycle + a
                if self._apply(engines, lambda sim: sim.run(b, until=until)) is None:
                    return  # both ran out of budget: clocks may differ
            assert self._records(engines[0]) == self._records(engines[1])
        for sim in engines:
            sim.run()
        assert self._records(engines[0]) == self._records(engines[1])


def plain_records(sim):
    """Clock plus every packet record, as plain lists."""
    r = sim.packet_records()
    return (sim.cycle, r.injected_at.tolist(), r.delivered_at.tolist(),
            r.hops.tolist(), r.dropped.tolist())


class TestTimedInjection:
    """``inject_routes(..., at=...)`` on both engines: a pending arrival
    joins behind its cycle's continuers, no coalesced window spans one,
    and a refused call leaves no partial state."""

    @pytest.mark.parametrize("engine", [NetworkSimulator, BatchEngine])
    @pytest.mark.parametrize("capacity", [1, 2])
    def test_arrival_joins_behind_the_cycles_continuers(self, engine, capacity):
        # packet 0 crosses (0, 1) at cycle 1 and joins (1, 2) there; packet
        # 1 arrives on (1, 2) at cycle 1 and queues behind it, exactly as
        # if it were injected after the step to cycle 1
        timed, stepped = engine(path(3), capacity), engine(path(3), capacity)
        for sim in (timed, stepped):
            sim.inject_route([0, 1, 2])
        timed.inject_routes(*pack_routes([[1, 2]]), at=[1])
        assert timed.in_flight == 1  # the arrival waits outside the queues
        stepped.step()
        stepped.inject_route([1, 2])
        for sim in (timed, stepped):
            sim.run()
            records = sim.packet_records()
            assert records.injected_at.tolist() == [0, 1]
            assert records.delivered_at.tolist() == (
                [2, 3] if capacity == 1 else [2, 2]
            )

    def test_window_never_spans_a_pending_arrival(self, monkeypatch):
        g = debruijn(2, 5)
        pairs = hotspot_traffic(32, 600, np.random.default_rng(2),
                                hotspot=5, heat=0.9)
        bulk = pack_routes([shift_route(int(s), int(d), 2, 5) for s, d in pairs])
        # more hotspot traffic, arriving mid-drain and after it
        late = [shift_route(s, 5, 2, 5) for s in (0, 9, 17, 30, 12)]
        at = [150, 151, 260, 261, 900]
        windows = []
        real = BatchEngine._step_coalesced

        def spy(self, stop, limit=64):
            arrive = None if self._pending is None else int(self._pending[0, 0])
            settled = real(self, stop, limit)
            windows.append((arrive, stop, self.cycle, settled))
            return settled

        monkeypatch.setattr(BatchEngine, "_step_coalesced", spy)
        timed, twin = BatchEngine(g), BatchEngine(g)
        timed.inject_routes(*bulk)
        timed.inject_routes(*pack_routes(late), at=at)
        timed.run()
        twin.inject_routes(*bulk)
        for route, c in zip(late, at):
            twin.run(until=c)
            twin.cycle = c  # the twin drains before the last arrival
            twin.inject_route(route)
        twin.run()
        assert plain_records(timed) == plain_records(twin)
        spanned = [w for w in windows if w[0] is not None]
        assert all(stop < arrive and clock < arrive
                   for arrive, stop, clock, _ in spanned)
        assert any(settled for *_, settled in spanned)

    @pytest.mark.parametrize("engine", [NetworkSimulator, BatchEngine])
    # the pending arrivals: two multi-hop routes, or one single-node
    # route, which is delivered at once but still arrives at cycle 6
    @pytest.mark.parametrize("timed", [
        ([[2, 4], [4, 1]], [4, 6]),
        ([[3]], [6]),
    ], ids=["multi_hop", "single_node"])
    @pytest.mark.parametrize("bad, match", [
        ("unsorted", "must be sorted"),
        ("before_clock", "before the clock"),
        ("before_pending", "precedes the pending arrival"),
        ("length", "1 arrival cycles for 2 routes"),
        ("untimed", "precedes the pending arrival"),
        ("disable_node", "while arrivals are pending"),
        ("disable_link", "while arrivals are pending"),
        ("enable_node", "while arrivals are pending"),
        # supplied slots (hop=) for the routes [0, 1] and [1, 3]
        ("hop_other_edge", r"route hop \(0, 1\) is not an edge"),
        ("hop_out_of_range", r"route hop \(0, 1\) is not an edge"),
        ("hop_end_inside", r"route hop \(1, 3\) is not an edge"),
        ("hop_length", "hop= holds 3 slots for 4 route positions"),
    ])
    def test_refusal_leaves_no_partial_state(self, engine, timed, bad, match):
        def machine():
            sim = engine(debruijn(2, 3))
            sim.disable_node(7)  # a dead node for enable_node to revive
            sim.inject_routes(*pack_routes([[0, 1, 2], [1, 2, 4]]))
            sim.step()
            sim.step()
            routes, at = timed
            sim.inject_routes(*pack_routes(routes), at=at)
            return sim

        sim, twin = machine(), machine()
        routes = pack_routes([[0, 1], [1, 3]])
        s01, s13 = sim.graph.directed_edge_slots([0, 1], [1, 3]).tolist()
        edges = sim.graph.directed_edge_keys.size

        def with_hop(hop):  # accepted with hop=[s01, -1, s13, -1]
            return lambda: sim.inject_routes(*routes, at=[9, 9], hop=hop)

        refused = {
            "unsorted": lambda: sim.inject_routes(*routes, at=[8, 7]),
            "before_clock": lambda: sim.inject_routes(*routes, at=[1, 9]),
            "before_pending": lambda: sim.inject_routes(*routes, at=[5, 9]),
            "length": lambda: sim.inject_routes(*routes, at=[9]),
            "untimed": lambda: sim.inject_routes(*routes),
            "disable_node": lambda: sim.disable_node(3),
            "disable_link": lambda: sim.disable_link(0, 1),
            "enable_node": lambda: sim.enable_node(7),
            "hop_other_edge": with_hop([s13, -1, s13, -1]),
            "hop_out_of_range": with_hop([edges, -1, s13, -1]),
            "hop_end_inside": with_hop([s01, -1, -1, -1]),
            "hop_length": with_hop([s01, -1, s13]),
        }[bad]
        with pytest.raises(SimulationError, match=match):
            refused()
        for s in (sim, twin):
            s.run()
        assert plain_records(sim) == plain_records(twin)

    def test_key_limit_counts_the_latest_arrival(self):
        be = BatchEngine(path(3))
        be.cycle = 2**31 - 10
        with pytest.raises(SimulationError, match=r"2\*\*31 - 1"):
            be.inject_routes(*pack_routes([[0, 1, 2]]), at=[2**31 - 3])
        assert be.injected == 0 and be.in_flight == 0
        be.inject_routes(*pack_routes([[0, 1, 2]]), at=[2**31 - 4])
        be.run()
        assert be.delivered_at.tolist() == [2**31 - 2]


class TestCalendarKeyLimits:
    """Values the int64 calendar key cannot hold are refused up front."""

    def test_queue_slots_refused_at_construction(self):
        # path(3) has 4 directed links: 4 * 2**31 slots exceed 2**32
        with pytest.raises(SimulationError, match=r"2\*\*32 service slots"):
            BatchEngine(path(3), link_capacity=2**31)
        BatchEngine(path(3), link_capacity=2**30)  # exactly 2**32 fits

    def test_departure_past_the_cycle_limit_refused(self):
        be = BatchEngine(path(3))
        be.cycle = 2**31 - 3
        with pytest.raises(SimulationError, match=r"2\*\*31 - 1"):
            be.inject_route([0, 1, 2])
        assert be.injected == 0
        be.cycle = 2**31 - 4
        be.inject_route([0, 1, 2])
        be.run()
        assert be.delivered_at.tolist() == [2**31 - 2]


class TestBatchEngineValidation:
    """The batch engine enforces the same injection/fault protocol."""

    def test_invalid_route_rejected(self):
        be = BatchEngine(path(3))
        with pytest.raises(SimulationError):
            be.inject_route([0, 2])

    def test_empty_route_rejected(self):
        be = BatchEngine(path(2))
        with pytest.raises(SimulationError):
            be.inject_route([])

    def test_dead_link_injection_rejected(self):
        be = BatchEngine(path(3))
        be.disable_link(1, 2)
        with pytest.raises(SimulationError):
            be.inject_route([0, 1, 2])

    def test_dead_node_injection_rejected(self):
        be = BatchEngine(path(3))
        be.disable_node(1)
        with pytest.raises(SimulationError):
            be.inject_route([0, 1, 2])

    def test_disable_nodes_refuses_before_any_node_dies(self):
        be = BatchEngine(path(4))
        be.inject_routes(*pack_routes([[0, 1, 2, 3], [3, 2]]))
        with pytest.raises(SimulationError, match="cannot disable node 7: not a node"):
            be.disable_nodes([1, 7])
        assert be.dead_nodes == frozenset() and be.in_flight == 2
        assert be.disable_nodes([]) == 0
        # one call drops what the single calls drop together
        assert be.disable_nodes([3, 1, 3]) == 2
        assert be.dead_nodes == {1, 3} and be.in_flight == 0
        be = BatchEngine(path(4))
        be.inject_routes(*pack_routes([[0, 1]]), at=[5])
        with pytest.raises(SimulationError,
                           match=r"cannot disable nodes \[1, 2\] while arrivals"):
            be.disable_nodes([1, 2])

    def test_disable_link_requires_real_edge(self):
        be = BatchEngine(path(3))
        with pytest.raises(SimulationError):
            be.disable_link(0, 2)
        with pytest.raises(SimulationError):
            be.disable_link(0, 9)

    def test_disable_node_requires_real_node(self):
        be = BatchEngine(path(3))
        with pytest.raises(SimulationError):
            be.disable_node(5)

    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            BatchEngine(path(2), link_capacity=0)

    def test_run_guard(self):
        be = BatchEngine(debruijn(2, 3))
        be.inject_route([0, 1, 2])
        with pytest.raises(SimulationError):
            be.run(max_cycles=0)

    def test_malformed_offsets_rejected(self):
        be = BatchEngine(path(3))
        with pytest.raises(SimulationError):
            be.inject_routes(np.array([0, 1]), np.array([0, 1]))  # bad tail

    @pytest.mark.parametrize("engine", [NetworkSimulator, BatchEngine])
    def test_engines_name_the_same_offender(self, engine):
        """One validator for both engines: it checks the whole batch one
        kind of fault at a time, so a non-edge in the second route is
        named before a dead node in the first, whether the engine
        searches for the slots or checks supplied ones (``hop=``; the
        non-edge's slot can only be -1)."""
        sim = engine(debruijn(2, 3))
        sim.disable_node(3)
        flat, offsets = pack_routes([[0, 1, 3], [0, 2]])
        hop = np.append(sim.graph.directed_edge_slots(flat[:-1], flat[1:]), -1)
        for slots in (None, hop):
            with pytest.raises(SimulationError,
                               match=r"^route hop \(0, 2\) is not an edge$"):
                sim.inject_routes(flat, offsets, hop=slots)
        assert sim.packet_records().injected_at.size == 0

    @pytest.mark.parametrize("engine", [NetworkSimulator, BatchEngine])
    def test_supplied_slot_on_an_edgeless_graph(self, engine):
        sim = engine(StaticGraph(2, []))
        with pytest.raises(SimulationError,
                           match=r"^route hop \(0, 1\) is not an edge$"):
            sim.inject_routes(np.array([0, 1]), np.array([0, 2]), hop=[0, -1])


class TestVectorizedSummarize:
    def test_packet_arrays_summarize_matches_object_path(self):
        g = path(4)
        sim = NetworkSimulator(g)
        sim.inject_route([0, 1, 2, 3])
        sim.inject_route([3, 2])
        sim.run()
        records = PacketArrays(
            injected_at=np.array([0, 0], dtype=np.int64),
            delivered_at=np.array(
                [sim.packets[0].delivered_at, sim.packets[1].delivered_at],
                dtype=np.int64,
            ),
            hops=np.array([3, 1], dtype=np.int64),
            dropped=np.array([False, False]),
        )
        assert summarize(records, sim.cycle) == sim.stats()

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            PacketArrays(
                injected_at=np.zeros(2, dtype=np.int64),
                delivered_at=np.zeros(3, dtype=np.int64),
                hops=np.zeros(2, dtype=np.int64),
                dropped=np.zeros(2, dtype=bool),
            )


class TestControllersOnBatchEngine:
    def test_detour_controller_batch_engine(self):
        from repro.simulator import DetourController

        pairs = uniform_traffic(16, 150, np.random.default_rng(17))
        a = on_engine(DetourController(2, 4), "object")
        a.fail_node(4)
        sa = a.run_workload([pairs.copy()])
        b = DetourController(2, 4)
        b.fail_node(4)
        sb = b.run_workload([pairs.copy()])
        assert sa == sb
        assert a.unreachable_pairs == b.unreachable_pairs

    def test_unknown_engine_rejected(self):
        # the controllers always run the batch engine; a spec naming any
        # engine is refused with a ValueError naming the removed key
        from repro.errors import ParameterError

        with pytest.raises(ParameterError, match="'engine' was removed"):
            ExperimentSpec.from_dict({"m": 2, "h": 3, "k": 1,
                                      "engine": "quantum"})

    def test_ft_full_delivery_after_fault_batch(self):
        ctrl = ReconfigurationController(2, 4, 2)
        ctrl.schedule(FaultScenario([(0, 3), (0, 11)]))
        batches = [uniform_traffic(16, 60, np.random.default_rng(1)) for _ in range(2)]
        st = ctrl.run_workload(batches)
        assert st.delivered == 120
        assert ctrl.rec.faults == (3, 11)
