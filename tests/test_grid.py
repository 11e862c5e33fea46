"""Tests for grid execution on the worker pool and the exact merge.

The load-bearing property: merged ``ShardStats`` from N shards is
*bit-identical* to a single-process ``BatchEngine`` run draining the
concatenated workload batch by batch — across traffic patterns, fault
scenarios, link capacities and arbitrary shard splits (hypothesis
explores the split space).  Everything else (grid expansion, per-batch
shards through ``run_grid``) builds on that.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import debruijn, ft_debruijn
from repro.errors import ParameterError, SimulationError
from repro.experiments import ExperimentGrid, ExperimentSpec
from repro.routing import lift_slot_table, lifted_routes_batch
from repro.simulator import (
    BatchEngine,
    FaultScenario,
    ReconfigurationController,
    ShardStats,
    make_pattern,
    pack_routes,
    run_grid,
)
from repro.simulator.grid import WorkerPool
from repro.simulator.traffic import PATTERN_NAMES


def _identity_lift(ft, m, h, pairs):
    """Shift-register routes for ``pairs`` lifted through the identity
    (the fault-free φ): ``(flat, offsets, hop)``."""
    phi = np.arange(m ** h, dtype=np.int64)
    slots = lift_slot_table(ft, m, phi)
    return lifted_routes_batch(m, h, phi, pairs[:, 0], pairs[:, 1], slots)


def _route_batches(m, h, k, pairs, splits):
    """Shift-register routes for ``pairs`` lifted through the identity,
    split into ``len(splits)`` injection batches."""
    ft = ft_debruijn(m, h, k)
    batches = []
    for part in np.array_split(pairs, splits):
        flat, off, _ = _identity_lift(ft, m, h, part)
        batches.append((flat, off))
    return ft, batches


def _sequential_reference(graph, batches, capacity=1):
    """One engine, inject + drain per batch — the single-process truth."""
    be = BatchEngine(graph, capacity)
    for flat, off in batches:
        be.inject_routes(flat, off)
        if be.in_flight:
            be.run()
    return be


def _merged_shards(graph, batches, capacity=1):
    """Each batch in a fresh engine, reduced through ShardStats.merge."""
    shards = []
    for flat, off in batches:
        be = BatchEngine(graph, capacity)
        be.inject_routes(flat, off)
        if be.in_flight:
            be.run()
        shards.append(ShardStats.from_arrays(be.packet_records(), be.cycle))
    return ShardStats.merge(shards)


class TestShardStatsMerge:
    """The reducer is exact: merge(N shards) == sequential single engine."""

    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    def test_merge_matches_sequential_all_patterns(self, pattern):
        m, h, k = 2, 4, 1
        pairs = make_pattern(m ** h, pattern, 120, np.random.default_rng(3))
        ft, batches = _route_batches(m, h, k, pairs, 3)
        ref = _sequential_reference(ft, batches)
        merged = _merged_shards(ft, batches)
        assert merged.to_run_stats() == ref.stats()

    @pytest.mark.parametrize("capacity", [1, 2, 3])
    def test_merge_matches_sequential_capacities(self, capacity):
        m, h, k = 2, 4, 1
        pairs = make_pattern(m ** h, "hotspot", 150, np.random.default_rng(8))
        ft, batches = _route_batches(m, h, k, pairs, 4)
        ref = _sequential_reference(ft, batches, capacity)
        merged = _merged_shards(ft, batches, capacity)
        assert merged.to_run_stats() == ref.stats()

    def test_merge_matches_sequential_with_fault_drops(self):
        """A fault firing after shard 1's injection drops its queued
        packets; later shards inherit the dead node.  The sequential
        single-engine run sees exactly the same timeline, so the merge
        stays bit-identical — drops included."""
        m, h, k = 2, 4, 1
        ft = ft_debruijn(m, h, k)
        dead = 5
        pairs = make_pattern(m ** h, "uniform", 200, np.random.default_rng(4))
        first, rest = pairs[:80], pairs[80:]
        flat0, off0, hop0 = _identity_lift(ft, m, h, first)
        safe_batches = []
        for part in np.array_split(rest, 3):
            flat, off, _ = _identity_lift(ft, m, h, part)
            keep = [
                i for i in range(off.size - 1)
                if dead not in flat[off[i]: off[i + 1]]
            ]
            routes = [flat[off[i]: off[i + 1]].tolist() for i in keep]
            safe_batches.append(pack_routes(routes))

        # sequential reference: fault fires right after batch 0 injects
        ref = BatchEngine(ft)
        ref.inject_routes(flat0, off0, hop=hop0)
        ref_dropped = ref.disable_node(dead)
        ref.run()
        for flat, off in safe_batches:
            ref.inject_routes(flat, off)
            if ref.in_flight:
                ref.run()

        # shard 0 replays the mid-injection fault; later shards start with
        # the node already dead
        shards = []
        be = BatchEngine(ft)
        be.inject_routes(flat0, off0)
        assert be.disable_node(dead) == ref_dropped
        be.run()
        shards.append(ShardStats.from_arrays(be.packet_records(), be.cycle))
        for flat, off in safe_batches:
            be = BatchEngine(ft)
            be.disable_node(dead)
            be.inject_routes(flat, off)
            if be.in_flight:
                be.run()
            shards.append(ShardStats.from_arrays(be.packet_records(), be.cycle))

        merged = ShardStats.merge(shards)
        assert merged.to_run_stats() == ref.stats()
        # the fault actually bit: queue drops plus en-route arrivals at the
        # dead node
        assert merged.dropped >= ref_dropped > 0

    @settings(max_examples=25, deadline=None)
    @given(
        n_shards=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        capacity=st.integers(min_value=1, max_value=3),
    )
    def test_merge_property_random_splits(self, n_shards, seed, capacity):
        """Hypothesis: any shard count, any seed, any capacity — the merge
        reproduces the sequential run bit-for-bit."""
        m, h, k = 2, 4, 1
        pairs = make_pattern(m ** h, "uniform", 90, np.random.default_rng(seed))
        ft, batches = _route_batches(m, h, k, pairs, n_shards)
        ref = _sequential_reference(ft, batches, capacity)
        merged = _merged_shards(ft, batches, capacity)
        assert merged.to_run_stats() == ref.stats()

    def test_merge_empty_and_identities(self):
        empty = ShardStats.empty()
        assert ShardStats.merge([]) == empty
        assert empty.to_run_stats().injected == 0
        assert empty.to_run_stats().mean_latency == 0.0
        one = ShardStats(
            cycles=5, injected=2, delivered=1, dropped=1,
            lat_values=np.array([3], dtype=np.int64),
            lat_counts=np.array([1], dtype=np.int64),
            hop_values=np.array([2], dtype=np.int64),
            hop_counts=np.array([1], dtype=np.int64),
        )
        merged = ShardStats.merge([one])
        assert merged.to_run_stats() == one.to_run_stats()

    def test_merge_all_dropped(self):
        g = debruijn(2, 3)
        be = BatchEngine(g)
        be.disable_node(2)
        with pytest.raises(SimulationError):
            be.inject_route([0, 2])  # routes through a dead node refuse
        s = ShardStats.from_arrays(be.packet_records(), be.cycle)
        assert s.injected == s.delivered == 0
        assert ShardStats.merge([s, s]).to_run_stats().throughput == 0.0


class TestShardDriver:
    """The map contract ``run_grid`` dispatches on, through the
    ``WorkerPool`` this module re-exports."""

    def test_inline_map_preserves_order(self):
        with WorkerPool(workers=0) as pool:
            assert pool.map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]

    def test_pool_propagates_worker_errors(self):
        with WorkerPool(workers=2) as pool:
            with pytest.raises(SimulationError, match="boom"):
                pool.map(_explode, [1, 2, 3])

    def test_dead_worker_detected_not_hung(self):
        """A worker killed without reporting (simulated os._exit) raises
        instead of blocking forever."""
        with WorkerPool(workers=2, chunk_size=1) as pool:
            with pytest.raises(SimulationError, match="died without reporting"):
                pool.map(_die_hard, [1, 2, 3, 4])

    def test_empty_task_list(self):
        with WorkerPool(workers=2) as pool:
            assert pool.map(_square, []) == []


def _square(x):
    return x * x


def _explode(x):
    raise ValueError("boom")


def _die_hard(x):
    os._exit(13)  # no exception, no result message — a hard crash


class TestRunGrid:
    def test_multiprocess_matches_inline(self):
        grid = ExperimentGrid(
            mhk=[(2, 4, 1), (2, 5, 1)],
            patterns=["uniform"],
            loads=[150],
            fault_sets=[(), ((0, 4),)],
            seeds=[0, 1],
        )
        inline = run_grid(grid, workers=0)
        pooled = run_grid(grid, workers=2)
        assert inline.aggregate_stats == pooled.aggregate_stats
        for a, b in zip(inline.results, pooled.results):
            assert a.run_stats == b.run_stats
            assert a.spec == b.spec

    def test_per_batch_shards_match_single_process(self):
        sc = ExperimentSpec(m=2, h=5, k=1, pattern="uniform", packets=600,
                            batches=4, shards=4, seed=2)
        sharded = run_grid([sc], workers=2).results[0].run_stats
        ctrl = ReconfigurationController(2, 5, 1)
        pairs = make_pattern(32, "uniform", 600, np.random.default_rng(2))
        single = ctrl.run_workload(np.array_split(pairs, 4))
        assert sharded == single

    def test_detour_scenarios(self):
        grid = ExperimentGrid(
            mhk=[(2, 4, 1)], loads=[100], fault_sets=[((0, 3),)],
            controller="detour", seeds=[0],
        )
        res = run_grid(grid, workers=0)
        st_ = res.results[0].run_stats
        assert st_.delivered + st_.dropped == st_.injected
        assert st_.injected + res.results[0].unreachable_pairs == 100

    def test_mid_run_faults_run_on_honest_timeline(self):
        """Grid cells run engine='batch' inside the worker, so mid-run
        faults keep exact timing — equal to a direct controller run."""
        sc = ExperimentSpec(m=2, h=4, k=2, pattern="uniform", packets=300,
                            faults=((2, 5), (6, 11)), seed=9)
        via_grid = run_grid([sc], workers=2).results[0].run_stats
        ctrl = ReconfigurationController(2, 4, 2)
        ctrl.schedule(FaultScenario([(2, 5), (6, 11)]))
        pairs = make_pattern(16, "uniform", 300, np.random.default_rng(9))
        assert via_grid == ctrl.run_workload([pairs])

    def test_rows_are_json_friendly(self):
        import json

        res = run_grid(ExperimentGrid(mhk=[(2, 4, 1)], loads=[50]), workers=0)
        text = json.dumps(res.rows())
        assert "B^1_{2,4}" in text
        assert res.workers == 0

    def test_rejects_non_scenarios(self):
        with pytest.raises(ParameterError):
            run_grid([object()], workers=0)

        class _ConvertsToSpec:
            """Duck-types a spec conversion; run_grid takes specs only."""

            def to_spec(self):
                return ExperimentSpec(m=2, h=4, packets=10)

        with pytest.raises(ParameterError, match="ExperimentSpec cells"):
            run_grid([_ConvertsToSpec()], workers=0)


class TestShardedEngine:
    """``engine="sharded"`` is gone: a spec or grid naming it is refused
    like any other unknown engine, before any worker is touched."""

    def test_unknown_engine_rejected(self):
        # spec validation raises a ValueError subclass naming the choice
        for name in ("warp", "sharded", "object"):
            for build in (
                lambda: ExperimentSpec(m=2, h=4, k=1, engine=name),
                lambda: ExperimentGrid(mhk=((2, 4, 1),), engine=name).expand(),
            ):
                with pytest.raises(ParameterError) as exc:
                    build()
                assert str(exc.value) == (
                    f"unknown engine {name!r}; valid choices: batch"
                )
