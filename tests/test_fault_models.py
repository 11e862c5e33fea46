"""The declarative fault-universe API: FAULT_MODELS registry semantics,
fixed-model bit-equivalence on both engines, seeded replica
determinism, repair (enable_node) paths, and the spec/grid plumbing
(including the refusal of removed keys)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.debruijn import debruijn
from repro.errors import ParameterError, SimulationError
from repro.experiments import ExperimentGrid, ExperimentSpec
from repro.experiments import run_grid
from repro.simulator import (
    FAULT_MODELS,
    BatchEngine,
    DetourController,
    FaultScenario,
    ReconfigurationController,
    realize_fault_model,
    validate_fault_model,
)
from tests.conformance.harness import NetworkSimulator, witness_run
from tests.nx_bridge import to_networkx


def _run_stats(ctrl, pairs, batches=2):
    ctrl.run_workload(list(np.array_split(pairs, batches)))
    return ctrl.sim.stats()


class TestRegistry:
    def test_four_models_registered(self):
        assert set(FAULT_MODELS.names()) >= {"fixed", "iid", "burst", "churn"}

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ParameterError, match="fixed"):
            validate_fault_model({"name": "meteor"})

    def test_model_must_be_mapping_with_name(self):
        with pytest.raises(ParameterError, match="name"):
            validate_fault_model(["iid", 0.9])
        with pytest.raises(ParameterError, match="name"):
            validate_fault_model({"p": 0.9})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ParameterError, match="radius"):
            validate_fault_model({"name": "iid", "p": 0.9, "radius": 2})

    def test_canonicalization_is_idempotent(self):
        model = {"name": "fixed", "faults": [(0, 1), (3, 2)]}
        canon = validate_fault_model(model)
        assert canon == validate_fault_model(canon)
        assert canon["faults"] == [[0, 1], [3, 2]]


class TestParamValidation:
    @pytest.mark.parametrize("p", [0.0, -0.1, 1.5])
    def test_probability_bounds(self, p):
        for name in ("iid", "churn"):
            with pytest.raises(ParameterError, match="0 < p <= 1"):
                validate_fault_model({"name": name, "p": p})

    def test_probability_required(self):
        with pytest.raises(ParameterError, match="requires"):
            validate_fault_model({"name": "iid"})

    def test_burst_radius(self):
        with pytest.raises(ParameterError, match="radius"):
            validate_fault_model({"name": "burst"})
        with pytest.raises(ParameterError, match=">= 0"):
            validate_fault_model({"name": "burst", "radius": -1})

    def test_window_ordering(self):
        with pytest.raises(ParameterError, match="lo < hi"):
            validate_fault_model({"name": "iid", "p": 0.9, "window": [5, 5]})
        with pytest.raises(ParameterError, match="lo < hi"):
            validate_fault_model({"name": "iid", "p": 0.9, "window": [-1, 5]})

    def test_churn_downtime_and_rounds(self):
        with pytest.raises(ParameterError, match="mean_downtime"):
            validate_fault_model(
                {"name": "churn", "p": 0.9, "mean_downtime": 0.5}
            )
        with pytest.raises(ParameterError, match="rounds"):
            validate_fault_model({"name": "churn", "p": 0.9, "rounds": 0})

    def test_spec_validates_at_construction(self):
        # a bad model never reaches a worker — it raises where it's typed
        with pytest.raises(ParameterError, match="0 < p <= 1"):
            ExperimentSpec(m=2, h=4, k=1, fault_model={"name": "iid", "p": 2})


# hypothesis strategy: up to 3 distinct faulty nodes of B_{2,4}'s 16,
# each failing at a small cycle
_fault_sets = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 15)),
    max_size=3, unique_by=lambda cv: cv[1],
).map(lambda pairs: tuple(sorted(pairs)))


class TestFixedModelEquivalence:
    """A `fixed` schedule runs bit for bit alike on the batch engine and
    the witness engine."""

    @settings(max_examples=20, deadline=None)
    @given(faults=_fault_sets)
    def test_spec_runs_bit_identical(self, faults):
        spec = ExperimentSpec(
            m=2, h=4, k=3, packets=120, batches=2, seed=1,
            fault_model={"name": "fixed", "faults": [list(p) for p in faults]},
        )
        res = spec.run()
        ctrl, stats = witness_run(spec)
        assert stats == res.stats
        assert ctrl.lost_to_faults == res.lost_to_faults

    def test_fixed_ignores_rng(self):
        model = {"name": "fixed", "faults": [[0, 1], [5, 2]]}
        a = realize_fault_model(model, n=16, cycles=10,
                                rng=np.random.default_rng(0))
        b = realize_fault_model(model, n=16, cycles=10,
                                rng=np.random.default_rng(999))
        assert a.node_faults == b.node_faults == [(0, 1), (5, 2)]


class TestReplicaDeterminism:
    SPEC = ExperimentSpec(
        m=2, h=5, k=1, controller="detour", route_mode="table",
        packets=300, replicas=6, seed=11,
        fault_model={"name": "iid", "p": 0.9},
    )

    def test_same_seed_index_same_realization(self):
        a = self.SPEC.realize_faults(4)
        b = self.SPEC.realize_faults(4)
        assert (a.node_faults, a.node_repairs) == (b.node_faults, b.node_repairs)

    def test_replicas_differ(self):
        draws = {tuple(self.SPEC.realize_faults(i).node_faults)
                 for i in range(6)}
        assert len(draws) > 1  # p=0.9 over 32 nodes: all-equal is ~impossible

    def test_realized_replica_is_frozen_fixed(self):
        rep = self.SPEC.realize_replica(2)
        assert rep.fault_model["name"] == "fixed"
        assert rep.replicas == 1
        # realizing the realized spec is a fixed point
        assert rep.realize_replica(0) == rep

    def test_each_replica_is_drawn_once(self, monkeypatch):
        """``replica_blocks`` draws each replica's schedule once, and the
        worker side of a block (``build_controller`` on each realized
        replica) reads the frozen ``fixed`` schedule without drawing or
        validating it again."""
        import repro.experiments.spec as spec_mod

        draws = []
        real = spec_mod.realize_fault_model

        def counted(*args, **kwargs):
            draws.append(kwargs["rng"])
            return real(*args, **kwargs)

        monkeypatch.setattr(spec_mod, "realize_fault_model", counted)
        blocks = self.SPEC.replica_blocks()
        assert len(draws) == self.SPEC.replicas
        draws.clear()
        ctrls = [rep.build_controller() for block in blocks for rep in block]
        assert len(ctrls) == self.SPEC.replicas and draws == []
        for i, ctrl in enumerate(ctrls):
            ctrl.fire_due_events()  # the closed iid window: every fault at cycle 0
            assert ctrl.fault_log == [(0, v) for _, v in self.SPEC.realize_faults(i).node_faults]

    def test_traffic_held_fixed_across_replicas(self):
        a = self.SPEC.realize_replica(0).traffic()
        b = self.SPEC.realize_replica(5).traffic()
        assert np.array_equal(a, b)

    def test_pool_and_sequential_identical(self):
        sequential = self.SPEC.run()
        inline = run_grid([self.SPEC], workers=0)
        pooled = run_grid([self.SPEC], workers=2)
        assert inline.results[0].stats == sequential.stats
        assert pooled.results[0].stats == sequential.stats
        assert pooled.results[0].spec == self.SPEC

    def test_replica_row_columns(self):
        row = run_grid([self.SPEC], workers=0).results[0].row()
        assert row["fault_model"] == self.SPEC.fault_model
        assert row["replicas"] == 6
        # legacy cells carry neither column
        legacy = ExperimentSpec(m=2, h=4, k=1, packets=50).run().row()
        assert "fault_model" not in legacy and "replicas" not in legacy


class TestFaultCount:
    def test_distinct_nodes_counted_once(self):
        sc = FaultScenario([(0, 3), (10, 3), (20, 5)], [(5, 3)])
        assert sc.fault_count == 2

    def test_spec_budget_counts_concurrent_nodes(self):
        # same node failing twice with a repair between: one spare needed
        model = {"name": "fixed", "faults": [[0, 1], [10, 1]],
                 "repairs": [[5, 1]]}
        spec = ExperimentSpec(m=2, h=4, k=1, fault_model=model, packets=20)
        assert spec._fixed_faults() is not None
        # two concurrently dead nodes still exceed one spare
        with pytest.raises(ParameterError, match="spares"):
            ExperimentSpec(m=2, h=4, k=1, packets=20,
                           fault_model={"name": "fixed",
                                        "faults": [[0, 1], [0, 2]]})

    def test_repair_frees_spare_for_next_fault(self):
        model = {"name": "fixed", "faults": [[0, 1], [10, 2]],
                 "repairs": [[5, 1]]}
        spec = ExperimentSpec(m=2, h=4, k=1, fault_model=model, packets=60)
        result = spec.run()  # would raise FaultSetError if the budget broke
        assert result.stats.delivered > 0


class TestEnableNode:
    @pytest.mark.parametrize("make", [
        lambda g: NetworkSimulator(g),
        lambda g: BatchEngine(g),
    ], ids=["object", "batch"])
    def test_enable_reverses_disable(self, make):
        sim = make(debruijn(2, 4))
        sim.disable_node(3)
        assert 3 in sim.dead_nodes
        sim.enable_node(3)
        assert 3 not in sim.dead_nodes

    @pytest.mark.parametrize("make", [
        lambda g: NetworkSimulator(g),
        lambda g: BatchEngine(g),
    ], ids=["object", "batch"])
    def test_enable_rejects_bad_targets(self, make):
        sim = make(debruijn(2, 4))
        with pytest.raises(SimulationError, match="not a node"):
            sim.enable_node(99)
        with pytest.raises(SimulationError, match="not disabled"):
            sim.enable_node(3)

    def test_detour_repair_restores_routing(self):
        ctrl = DetourController(2, 4)
        ctrl.fail_node(3)
        pairs = np.array([[3, 5]], dtype=np.int64)
        _, _, kept, _ = ctrl._route(pairs)
        assert kept.size == 0  # dead endpoint refused
        ctrl.repair_node(3)
        _, _, kept, _ = ctrl._route(pairs)
        assert kept.size == 1  # healed endpoint routes again
        with pytest.raises(SimulationError, match="not faulty"):
            ctrl.repair_node(3)

    def test_reconfig_repair_reclaims_spare(self):
        ctrl = ReconfigurationController(2, 4, 1)
        ctrl.schedule(FaultScenario([(0, 3), (10, 5)], [(5, 3)]))
        pairs = ExperimentSpec(m=2, h=4, k=1, packets=80, seed=0).traffic()
        stats = _run_stats(ctrl, pairs, batches=4)
        assert ctrl.fault_log[0] == (0, 3)
        assert [v for _, v in ctrl.repair_log] == [3]
        # the second fault fit the single spare only because the repair
        # reclaimed it first
        assert [v for _, v in ctrl.fault_log] == [3, 5]
        assert stats.delivered > 0


class TestModelSemantics:
    def test_iid_fault_probability(self):
        # p=0.75 over 4096 draws: expect ~1024 failures, loose 5-sigma band
        sc = realize_fault_model({"name": "iid", "p": 0.75}, n=4096, cycles=1,
                                 rng=np.random.default_rng(5))
        assert 900 < sc.fault_count < 1150
        assert all(c == 0 for c, _ in sc.node_faults)  # window [0, 1)

    def test_iid_window_bounds_arrivals(self):
        sc = realize_fault_model(
            {"name": "iid", "p": 0.5, "window": [10, 20]}, n=64, cycles=100,
            rng=np.random.default_rng(2),
        )
        assert sc.node_faults and all(10 <= c < 20 for c, _ in sc.node_faults)

    @pytest.mark.parametrize("seed", [0, 3, 11, 42])
    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_burst_is_a_radius_ball(self, radius, seed):
        """A burst fails exactly the hop ball of ``radius`` around the
        center it draws first, held to networkx's BFS as the witness."""
        g = debruijn(2, 5)
        sc = realize_fault_model({"name": "burst", "radius": radius}, n=32,
                                 cycles=1, rng=np.random.default_rng(seed),
                                 graph=g)
        center = int(np.random.default_rng(seed).integers(32))
        ball = nx.single_source_shortest_path_length(
            to_networkx(g), center, cutoff=radius
        )
        assert [v for _, v in sc.node_faults] == sorted(ball)

    def test_burst_radius_zero_is_one_node(self):
        sc = realize_fault_model({"name": "burst", "radius": 0}, n=32,
                                 cycles=1, rng=np.random.default_rng(4),
                                 graph=debruijn(2, 5))
        assert sc.fault_count == 1

    def test_burst_requires_graph(self):
        with pytest.raises(ParameterError, match="graph"):
            realize_fault_model({"name": "burst", "radius": 1}, n=32,
                                cycles=1, rng=np.random.default_rng(0))

    def test_churn_repairs_follow_faults(self):
        sc = realize_fault_model(
            {"name": "churn", "p": 0.8, "mean_downtime": 10, "rounds": 2,
             "window": [0, 200]},
            n=64, cycles=200, rng=np.random.default_rng(6),
        )
        assert sc.node_repairs
        down: dict[int, list[int]] = {}
        for c, v in sc.node_faults:
            down.setdefault(v, []).append(c)
        heals: dict[int, list[int]] = {}
        for c, v in sc.node_repairs:
            heals.setdefault(v, []).append(c)
        assert set(heals) == set(down)  # every failure is eventually repaired
        for v, fs in down.items():
            for f, h in zip(sorted(fs), sorted(heals[v])):
                assert h > f  # downtime >= 1 cycle

    def test_churn_runs_under_reconfig_within_budget(self):
        # a tiny universe whose realizations fit one spare: re-fail after
        # repair exercises the repair_node path end to end
        ctrl = ReconfigurationController(2, 4, 1)
        ctrl.schedule(FaultScenario([(0, 7), (40, 7)], [(20, 7)]))
        pairs = ExperimentSpec(m=2, h=4, k=1, packets=200, seed=3).traffic()
        stats = _run_stats(ctrl, pairs, batches=8)
        assert ctrl.repair_log and ctrl.fault_log[-1][1] == 7
        assert stats.delivered > 0


class TestSerialization:
    def test_round_trip_with_fault_model(self):
        spec = ExperimentSpec(
            m=2, h=5, k=1, controller="detour", packets=100, replicas=8,
            fault_model={"name": "churn", "p": 0.95, "rounds": 2},
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("cls,fields,key,value,replacement", [
        (ExperimentSpec, {"m": 2, "h": 4}, "engine", "batch", "batch engine"),
        (ExperimentSpec, {"m": 2, "h": 4}, "faults", [[0, 1]],
         'fault_model={"name": "fixed"'),
        (ExperimentSpec, {"m": 2, "h": 4}, "faults", [],
         'fault_model={"name": "fixed"'),
        (ExperimentSpec, {"m": 2, "h": 4}, "shards", 1, "replica blocks"),
        (ExperimentGrid, {"mhk": [[2, 4, 1]]}, "engine", "batch",
         "batch engine"),
        (ExperimentGrid, {"mhk": [[2, 4, 1]]}, "fault_sets", [[[0, 1]]],
         'fault_models=[{"name": "fixed"'),
        (ExperimentGrid, {"mhk": [[2, 4, 1]]}, "shards", 1, "replica blocks"),
    ])
    def test_removed_key_refused_naming_replacement(
        self, cls, fields, key, value, replacement
    ):
        """``from_dict`` refuses each removed key, at any value, with a
        message naming the key and what replaces it."""
        with pytest.raises(ParameterError) as info:
            cls.from_dict({**fields, key: value})
        message = str(info.value)
        assert message.startswith(f"{cls.__name__} key {key!r} was removed: ")
        assert replacement in message


class TestGridAxis:
    def test_fault_models_axis_expands(self):
        grid = ExperimentGrid(
            mhk=[(2, 4, 1)], controller="detour", loads=[50], replicas=4,
            fault_models=({"name": "iid", "p": 0.95},
                          {"name": "iid", "p": 0.9}),
        )
        cells = grid.expand()
        assert len(grid) == len(cells) == 2
        assert [c.fault_model["p"] for c in cells] == [0.95, 0.9]
        assert all(c.replicas == 4 for c in cells)
        # without the axis every cell is fault-free
        bare = ExperimentGrid(mhk=[(2, 4, 1)], seeds=[0, 1]).expand()
        assert [c.fault_model for c in bare] == [None, None]


    def test_grid_round_trips(self):
        grid = ExperimentGrid(
            mhk=[(2, 4, 1)], controller="detour", loads=[50], replicas=3,
            fault_models=({"name": "burst", "radius": 1},),
        )
        assert ExperimentGrid.from_json(grid.to_json()) == grid

    def test_replicated_grid_aggregate_matches_inline(self):
        grid = ExperimentGrid(
            mhk=[(2, 4, 1)], controller="detour", loads=[80], replicas=5,
            seeds=[4], fault_models=({"name": "iid", "p": 0.9},),
        )
        pooled = run_grid(grid, workers=2)
        inline = run_grid(grid, workers=0)
        assert pooled.aggregate == inline.aggregate
        assert [r.stats for r in pooled.results] == \
               [r.stats for r in inline.results]
