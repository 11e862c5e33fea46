"""Tests for grid execution on the worker pool and the exact merge.

The load-bearing property: merged ``ShardStats`` from N shards is
*bit-identical* to a single-process ``BatchEngine`` run draining the
concatenated workload batch by batch — across traffic patterns, fault
scenarios, link capacities and arbitrary shard splits (hypothesis
explores the split space).  Everything else (grid expansion, replica
blocks through ``run_grid``) builds on that.
"""

from __future__ import annotations

import json
import os
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import debruijn, ft_debruijn
from repro.errors import ParameterError, SimulationError
from repro.experiments import ExperimentGrid, ExperimentSpec
from repro.experiments.spec import _BLOCK_BUDGET
from repro.routing import lift_slot_table, lifted_routes_batch
from repro.simulator import (
    BatchEngine,
    FaultScenario,
    PacketArrays,
    ReconfigurationController,
    ShardStats,
    make_pattern,
    pack_routes,
    run_grid,
)
import repro.routing.fault_routing as fault_routing_mod
import repro.simulator.faults as faults_mod
from repro.simulator.faults import drain_block
from repro.simulator.grid import WorkerPool, _expand_tasks, run_block
from repro.simulator.traffic import PATTERNS


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

    @pytest.mark.parametrize("pattern", PATTERNS.names())
    def test_merge_matches_sequential_all_patterns(self, pattern):
        m, h, k = 2, 4, 1
        pairs = make_pattern(m ** h, pattern, 120, np.random.default_rng(3))
        ft, batches = _route_batches(m, h, k, pairs, 3)
        ref = _sequential_reference(ft, batches)
        merged = _merged_shards(ft, batches)
        assert merged == ref.stats()

    @pytest.mark.parametrize("capacity", [1, 2, 3])
    def test_merge_matches_sequential_capacities(self, capacity):
        m, h, k = 2, 4, 1
        pairs = make_pattern(m ** h, "hotspot", 150, np.random.default_rng(8))
        ft, batches = _route_batches(m, h, k, pairs, 4)
        ref = _sequential_reference(ft, batches, capacity)
        merged = _merged_shards(ft, batches, capacity)
        assert merged == ref.stats()

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
        assert merged == ref.stats()
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
        assert merged == ref.stats()

    def test_merge_empty_and_identities(self):
        empty = ShardStats.empty()
        assert ShardStats.merge([]) == empty
        assert empty.injected == 0
        assert empty.mean_latency == 0.0
        one = ShardStats(
            cycles=5, injected=2, delivered=1, dropped=1,
            lat_values=np.array([3], dtype=np.int64),
            lat_counts=np.array([1], dtype=np.int64),
            hop_values=np.array([2], dtype=np.int64),
            hop_counts=np.array([1], dtype=np.int64),
        )
        merged = ShardStats.merge([one])
        assert merged == one

    def test_merge_all_dropped(self):
        g = debruijn(2, 3)
        be = BatchEngine(g)
        be.disable_node(2)
        with pytest.raises(SimulationError):
            be.inject_route([0, 2])  # routes through a dead node refuse
        s = ShardStats.from_arrays(be.packet_records(), be.cycle)
        assert s.injected == s.delivered == 0
        assert ShardStats.merge([s, s]).throughput == 0.0


@st.composite
def _drain_records(draw):
    """Random drain records: each packet delivered, in flight
    (``delivered_at == -1``) or dropped, with latencies that repeat (a
    small range) or spread (a wide one)."""
    n = draw(st.integers(min_value=0, max_value=40))

    def column(values):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)),
                        dtype=np.int64)

    fate = column(st.integers(min_value=0, max_value=2))  # delivered, in flight, dropped
    injected = column(st.integers(min_value=0, max_value=1000))
    lat = column(st.one_of(st.integers(min_value=0, max_value=8),
                           st.integers(min_value=0, max_value=2**20)))
    return PacketArrays(
        injected_at=injected,
        delivered_at=np.where(fate == 0, injected + lat, -1),
        hops=column(st.integers(min_value=0, max_value=64)),
        dropped=fate == 2,
    )


class TestShardStatsSummary:
    """The summary numbers, computed independently: ``np.mean`` and
    ``np.percentile`` over the raw delivered sample, against what
    :class:`ShardStats` reads off its histograms."""

    @settings(max_examples=200, deadline=None)
    @given(rec=_drain_records(),
           cycles=st.one_of(st.just(0), st.integers(min_value=1, max_value=10**6)),
           data=st.data())
    def test_summary_is_the_raw_sample_reduction(self, rec, cycles, data):
        ok = rec.delivered_at >= 0
        lat = rec.delivered_at[ok] - rec.injected_at[ok]
        hops = rec.hops[ok]
        n = int(lat.size)
        expected = {
            "cycles": cycles,
            "injected": int(rec.injected_at.size),
            "delivered": n,
            "dropped": int(np.count_nonzero(rec.dropped)),
            "mean_latency": float(np.mean(lat)) if n else 0.0,
            "p95_latency": float(np.percentile(lat, 95)) if n else 0.0,
            "max_latency": int(lat.max()) if n else 0,
            "mean_hops": float(np.mean(hops)) if n else 0.0,
            "throughput": n / cycles if cycles else 0.0,
        }
        whole = ShardStats.from_arrays(rec, cycles)
        # the JSON text pins keys, their order, int/float types and
        # every float to the bit (repr round-trips)
        assert json.dumps(whole.summary()) == json.dumps(expected)

        # any split of the records over any split of the cycles merges
        # back to the whole
        k = data.draw(st.integers(min_value=1, max_value=4))
        part = np.array(data.draw(st.lists(
            st.integers(min_value=0, max_value=k - 1),
            min_size=rec.injected_at.size, max_size=rec.injected_at.size,
        )), dtype=np.int64)
        cuts = sorted(data.draw(st.lists(
            st.integers(min_value=0, max_value=cycles),
            min_size=k - 1, max_size=k - 1,
        )))
        spans = np.diff([0, *cuts, cycles])
        shards = [
            ShardStats.from_arrays(
                PacketArrays(rec.injected_at[part == i], rec.delivered_at[part == i],
                             rec.hops[part == i], rec.dropped[part == i]),
                int(spans[i]),
            )
            for i in range(k)
        ]
        merged = ShardStats.merge(shards)
        assert merged == whole
        assert json.dumps(merged.summary()) == json.dumps(expected)


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
            fault_models=[{"name": "fixed", "faults": []},
                          {"name": "fixed", "faults": [[0, 4]]}],
            seeds=[0, 1],
        )
        inline = run_grid(grid, workers=0)
        pooled = run_grid(grid, workers=2)
        assert inline.aggregate == pooled.aggregate
        for a, b in zip(inline.results, pooled.results):
            assert a.stats == b.stats
            assert a.spec == b.spec

    def test_multi_batch_cells_match_single_process(self):
        """Four-batch cells on two workers each report what one
        controller draining the batches in sequence reports."""
        cells = [ExperimentSpec(m=2, h=5, k=1, pattern="uniform", packets=600,
                                batches=4, seed=seed) for seed in (2, 3)]
        pooled = run_grid(cells, workers=2)
        assert pooled.workers == 2
        for seed, res in zip((2, 3), pooled.results):
            ctrl = ReconfigurationController(2, 5, 1)
            pairs = make_pattern(32, "uniform", 600, np.random.default_rng(seed))
            assert res.stats == ctrl.run_workload(np.array_split(pairs, 4))

    def test_detour_scenarios(self):
        grid = ExperimentGrid(
            mhk=[(2, 4, 1)], loads=[100],
            fault_models=[{"name": "fixed", "faults": [[0, 3]]}],
            controller="detour", seeds=[0],
        )
        res = run_grid(grid, workers=0)
        st_ = res.results[0].stats
        assert st_.delivered + st_.dropped == st_.injected
        assert st_.injected + res.results[0].unreachable_pairs == 100

    def test_mid_run_faults_run_on_honest_timeline(self):
        """Grid cells run on the batch engine inside the worker, so
        mid-run faults keep exact timing — equal to a direct controller
        run."""
        sc = ExperimentSpec(m=2, h=4, k=2, pattern="uniform", packets=300,
                            fault_model={"name": "fixed",
                                         "faults": [[2, 5], [6, 11]]},
                            seed=9)
        via_grid = run_grid([sc], workers=2).results[0].stats
        ctrl = ReconfigurationController(2, 4, 2)
        ctrl.schedule(FaultScenario([(2, 5), (6, 11)]))
        pairs = make_pattern(16, "uniform", 300, np.random.default_rng(9))
        assert via_grid == ctrl.run_workload([pairs])

    def test_rows_are_json_friendly(self):
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

    def test_failure_names_the_cell(self):
        """A failed task is named by its cell's label and replica range,
        not by the repr of every spec in its block."""
        spec = ExperimentSpec(m=2, h=4, k=1, packets=200, max_cycles=3)
        with pytest.raises(SimulationError) as info:
            spec.run()
        message = str(info.value)
        assert len(message) < 200
        assert f"({spec.label}, replica 0)" in message
        assert "did not drain within 3 cycles" in message
        cell = ExperimentSpec(m=2, h=6, k=16, fault_model={"name": "iid", "p": 0.9},
                              replicas=16, packets=256, seed=3)
        tasks, _ = _expand_tasks([cell], 2)
        assert [repr(t) for t in tasks] == [
            f"{cell.label}, replicas 0-7", f"{cell.label}, replicas 8-15",
        ]


class TestSoloCellReducesOnce:
    """A solo closed-loop cell copies the engine's packet records once
    and reduces them once: the :class:`ShardStats` that
    ``run_workload`` returns is the result's ``stats``."""

    @pytest.mark.parametrize("spec", [
        ExperimentSpec(m=2, h=4, k=1, packets=200, seed=1),
        ExperimentSpec(m=2, h=4, k=2, packets=300, batches=3, seed=4,
                       fault_model={"name": "fixed", "faults": [[3, 5]]}),
    ], ids=["one-batch", "three-batches-mid-drain-fault"])
    def test_one_copy_one_reduction(self, spec, monkeypatch):
        ctrl = spec.build_controller()
        direct = ctrl.run_workload(spec.injection_batches(),
                                   cycles_per_batch=spec.cycles_per_batch,
                                   max_cycles=spec.max_cycles)
        if spec.fault_model is not None:
            # the fault fired on its cycle inside the first drain
            assert ctrl.fault_log == [(3, 5)] and ctrl.lost_to_faults > 0
        copies = _counting(monkeypatch, BatchEngine, "packet_records")
        reductions = _counting(monkeypatch, ShardStats, "from_arrays")
        res = spec.run()
        assert (len(copies), len(reductions)) == (1, 1)
        assert res.stats == direct


class TestShardedEngine:
    """The ``engine`` field is gone with the ``sharded`` and ``object``
    engines: a spec or grid naming any engine is refused before any
    worker is touched."""

    def test_unknown_engine_rejected(self):
        # from_dict raises a ValueError subclass naming the removed key;
        # the constructors have no such keyword at all
        for name in ("warp", "sharded", "object", "batch"):
            for cls, fields in ((ExperimentSpec, {"m": 2, "h": 4, "k": 1}),
                                (ExperimentGrid, {"mhk": [[2, 4, 1]]})):
                with pytest.raises(ParameterError) as exc:
                    cls.from_dict({**fields, "engine": name})
                assert str(exc.value).startswith(
                    f"{cls.__name__} key 'engine' was removed: "
                )
                with pytest.raises(TypeError, match="engine"):
                    cls(**fields, engine=name)


# ---------------------------------------------------------------------------
# replica blocks: a replicated cell's replicas drained on one engine
# ---------------------------------------------------------------------------

_BLOCK_MODELS = (
    {"name": "iid", "p": 1.0},
    {"name": "iid", "p": 0.9},
    {"name": "iid", "p": 0.8},
    {"name": "burst", "radius": 1},
)


def _fitting(**kw) -> ExperimentSpec:
    """The spec at the first seed whose realized replicas all fit the
    spare budget.  A draw past it is refused at realization by design,
    so a reconfiguration cell at high intensity needs such a seed; the
    detour baseline (no spares) takes seed 0."""
    for seed in range(200):
        spec = ExperimentSpec(seed=seed, **kw)
        try:
            spec.replica_blocks()
        except ParameterError:
            continue
        return spec
    raise AssertionError(f"no seed below 200 fits the spare budget: {kw}")


def _solo(spec):
    """Every replica of ``spec`` run on its own, in index order."""
    return [spec.realize_replica(i).run() for i in range(spec.replicas)]


def _block_outcomes(block):
    """Each replica of a block drained together, as ``(stats,
    lost_to_faults, unreachable_pairs)`` per replica: its rows of the
    union's records and its cycles."""
    ctrls = [rep.build_controller() for rep in block]
    first = block[0]
    records, ends, cycles = drain_block(ctrls, first.traffic(),
                                        max_cycles=first.max_cycles)
    rows = [PacketArrays(records.injected_at[lo:hi], records.delivered_at[lo:hi],
                         records.hops[lo:hi], records.dropped[lo:hi])
            for lo, hi in zip(ends[:-1], ends[1:])]
    return [
        (ShardStats.from_arrays(r, c), ctrl.lost_to_faults, ctrl.unreachable_pairs)
        for ctrl, r, c in zip(ctrls, rows, cycles, strict=True)
    ]


def _outcome(result):
    return (result.stats, result.lost_to_faults, result.unreachable_pairs)


def _fault_sets(block) -> list[frozenset]:
    """Each realized replica's cycle-0 fault set, in block order."""
    return [frozenset(v for _, v in rep._fixed_faults().node_faults)
            for rep in block]


def _mixed_detour_block(p: float):
    """The first detour ``B_{2,5}`` cell (``iid`` at ``p``, R=16) whose
    one block mixes a fault-free replica, a fault set two replicas share
    and sets of their own."""
    for seed in range(400):
        spec = ExperimentSpec(m=2, h=5, k=12, controller="detour",
                              fault_model={"name": "iid", "p": p},
                              replicas=16, packets=256, seed=seed)
        [block] = spec.replica_blocks()
        counts = Counter(_fault_sets(block))
        if counts[frozenset()] and any(c > 1 for f, c in counts.items() if f):
            return block
    raise AssertionError(f"no seed below 400 mixes fault sets at p={p}")


@st.composite
def _fixed_blocks(draw):
    """A block of 1-8 realized single-replica specs on ``B^2_{2,4}`` or
    ``B_{2,4}`` (``k`` 2 or 0) with ``fixed`` cycle-0 schedules: the
    replicas pick from a few drawn fault sets plus the empty one, so
    repeated and fault-free replicas come up on purpose.  A
    reconfiguration set names at most ``k`` of the ``16 + k`` physical
    nodes; a detour set up to 4 of the 16."""
    controller = draw(st.sampled_from(["reconfig", "detour"]))
    k = draw(st.sampled_from([0, 2]))
    nodes, most = (16 + k, k) if controller == "reconfig" else (16, 4)
    sets = draw(st.lists(st.frozensets(st.integers(0, nodes - 1), max_size=most),
                         max_size=3))
    sets = [frozenset(), *sets]
    picks = draw(st.lists(st.integers(0, len(sets) - 1), min_size=1, max_size=8))
    base = ExperimentSpec(
        m=2, h=4, k=k, controller=controller,
        link_capacity=draw(st.sampled_from([1, 2])),
        pattern=draw(st.sampled_from(["uniform", "hotspot"])),
        packets=draw(st.integers(1, 120)), seed=draw(st.integers(0, 2**16)),
    )
    return tuple(
        replace(base, fault_model={"name": "fixed",
                                   "faults": [[0, v] for v in sorted(sets[i])]})
        for i in picks
    )


def _counting(monkeypatch, owner, name):
    """Replace ``owner.name`` with a wrapper that counts its calls."""
    real = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _assert_one_block_matches_solo(spec):
    """``spec``'s replicas form one block, each replica of which, and
    the merged cell, equal the replicas' solo runs."""
    blocks = spec.replica_blocks()
    assert [len(b) for b in blocks] == [spec.replicas]
    assert list(blocks[0]) == [
        spec.realize_replica(i) for i in range(spec.replicas)
    ]
    solo = _solo(spec)
    if spec.replicas > 1:
        assert _block_outcomes(blocks[0]) == [_outcome(w) for w in solo]
    merged = spec.run()
    assert merged.spec == spec
    assert merged.stats == ShardStats.merge(w.stats for w in solo)


class TestReplicaBlocks:
    """Replicas drained as one block keep every replica's solo stats,
    ``lost_to_faults`` and ``unreachable_pairs`` exactly, one replica at
    a time; cells out of scope keep one task per replica."""

    @pytest.mark.parametrize("controller", ["reconfig", "detour"])
    @pytest.mark.parametrize("m,h,k", [(2, 4, 4), (2, 5, 12), (2, 6, 16), (3, 3, 8)])
    def test_each_replica_matches_its_solo_run(self, controller, m, h, k):
        models = _BLOCK_MODELS
        if controller == "reconfig" and k == 4:
            # B_{2,4}'s radius-1 balls hold up to 5 nodes, past 4 spares
            models = models[:3] + ({"name": "burst", "radius": 0},)
        cases = [(model, 1, r) for model in models for r in (1, 2, 16)]
        cases += [(model, 2, 16) for model in models]
        for model, capacity, replicas in cases:
            _assert_one_block_matches_solo(_fitting(
                m=m, h=h, k=k, controller=controller, fault_model=model,
                link_capacity=capacity, replicas=replicas, packets=256,
            ))

    @pytest.mark.parametrize("controller", ["reconfig", "detour"])
    def test_long_drains_match_their_solo_runs(self, controller, monkeypatch):
        """At ``examples/iid_dependability.json``'s size (``B_{2,6}``,
        2000 packets, R=16) a replica drains for 30-120 cycles, past the
        32 plain steps after which the engine probes coalesced windows;
        in a block a window is cut by every replica's next event at
        once.  Hotspot traffic makes the block take some windows."""
        taken = []      # (engine nodes, window taken) per probe
        probe = BatchEngine._step_coalesced

        def counted(self, *args, **kwargs):
            took = probe(self, *args, **kwargs)
            taken.append((self.graph.node_count, took))
            return took

        monkeypatch.setattr(BatchEngine, "_step_coalesced", counted)
        cases = [(model, "uniform", 1) for model in _BLOCK_MODELS]
        cases += [({"name": "iid", "p": 0.9}, "hotspot", c) for c in (1, 2)]
        for model, pattern, capacity in cases:
            _assert_one_block_matches_solo(_fitting(
                m=2, h=6, k=16, controller=controller, fault_model=model,
                pattern=pattern, link_capacity=capacity, replicas=16,
                packets=2000,
            ))
        # a union of 16 machines of 64 nodes (80 with reconfig's spares)
        assert any(took for nodes, took in taken if nodes >= 16 * 64)

    def test_faults_reach_the_block(self):
        """The drain really runs each replica's own faults: detour pairs
        touching a replica's dead nodes are refused, differently in
        different replicas."""
        spec = _fitting(m=2, h=5, k=12, controller="detour",
                        fault_model={"name": "iid", "p": 0.8},
                        replicas=16, packets=256)
        unreachable = [o[2] for o in _block_outcomes(spec.replica_blocks()[0])]
        assert sum(unreachable) > 0 and len(set(unreachable)) > 1

    def test_block_cell_is_one_task(self):
        spec = ExperimentSpec(m=2, h=6, k=16, fault_model={"name": "iid", "p": 0.9},
                              replicas=16, packets=256, seed=3)
        tasks, owners = _expand_tasks([spec])
        assert owners == [0]
        assert [t.block for t in tasks] == [
            tuple(spec.realize_replica(i) for i in range(16))
        ]

    def test_few_blocks_spread_over_the_workers(self):
        """A map with fewer tasks than workers cuts its blocks into
        consecutive parts until every worker has a task or every block
        is one replica, so a lone replicated cell still crosses the
        pool, with every replica's stats unchanged."""
        spec = ExperimentSpec(m=2, h=6, k=16, fault_model={"name": "iid", "p": 0.9},
                              replicas=16, packets=256, seed=3)
        replicas = tuple(spec.realize_replica(i) for i in range(16))
        for workers, sizes in [(1, [16]), (2, [8, 8]), (3, [5, 5, 6]),
                               (64, [1] * 16)]:
            tasks, owners = _expand_tasks([spec], workers)
            assert [len(t.block) for t in tasks] == sizes
            assert sum((t.block for t in tasks), ()) == replicas
            assert owners == [0] * len(sizes)
        plain = ExperimentSpec(m=2, h=5, k=12, packets=64)
        tasks, owners = _expand_tasks([plain, spec], 4)
        assert owners == [0, 1, 1, 1]
        assert tasks[0].block == (plain,)  # a plain cell is a block of one
        assert [len(t.block) for t in tasks[1:]] == [5, 5, 6]
        pooled = run_grid([spec], workers=2)
        assert pooled.workers == 2
        assert pooled.results[0].stats == ShardStats.merge(w.stats for w in _solo(spec))

    @pytest.mark.parametrize("model,batches", [
        ({"name": "churn", "p": 0.9, "mean_downtime": 5}, 1),
        ({"name": "iid", "p": 0.9, "window": [0, 20]}, 1),
        ({"name": "iid", "p": 0.9}, 3),
    ], ids=["churn", "windowed", "batches3"])
    @pytest.mark.parametrize("controller", ["reconfig", "detour"])
    def test_out_of_scope_cells_keep_a_task_per_replica(self, model, batches,
                                                        controller):
        spec = _fitting(m=2, h=5, k=12, controller=controller, fault_model=model,
                        batches=batches, replicas=4, packets=256)
        tasks, owners = _expand_tasks([spec])
        assert [t.block for t in tasks] == [
            (spec.realize_replica(i),) for i in range(4)
        ]
        assert owners == [0, 0, 0, 0]
        solo = _solo(spec)
        assert spec.run().stats == ShardStats.merge(w.stats for w in solo)
        pooled = run_grid([spec], workers=2).results[0]
        assert pooled.stats == ShardStats.merge(w.stats for w in solo)

    def test_block_budget_cuts_large_replicas(self):
        """A replica too large to share the budget is a block of one and
        runs the per-replica path; smaller ones fill blocks in order."""
        links = 2 * ft_debruijn(2, 6, 20).edge_count
        full = ExperimentSpec(m=2, h=6, k=20, fault_model={"name": "iid", "p": 1.0},
                              replicas=3, packets=250_000)
        assert 250_000 + links <= _BLOCK_BUDGET < 2 * (250_000 + links)
        assert [len(b) for b in full.replica_blocks()] == [1, 1, 1]
        per = _BLOCK_BUDGET // (100_000 + links)
        half = replace(full, packets=100_000, replicas=per + 1)
        assert [len(b) for b in half.replica_blocks()] == [per, 1]

    def test_over_budget_replica_refused_before_any_worker(self):
        spec = ExperimentSpec(m=2, h=5, k=1, fault_model={"name": "iid", "p": 0.5},
                              replicas=16, packets=64, seed=0)
        message = (r"scenario schedules \d+ concurrently faulty nodes but "
                   r"B\^1_\{2,5\} has only 1 spares")
        for run in (lambda: _expand_tasks([spec]), spec.run,
                    lambda: run_grid([spec, spec], workers=2)):
            with pytest.raises(ParameterError, match=message):
                run()

    def test_pooled_blocks_match_inline(self):
        cells = [
            _fitting(m=2, h=5, k=12, controller=c,
                     fault_model={"name": "iid", "p": 0.9},
                     replicas=8, packets=256)
            for c in ("reconfig", "detour")
        ]
        pooled = run_grid(cells, workers=2)
        for cell, res in zip(cells, pooled.results):
            solo = _solo(cell)
            assert res.spec == cell
            assert res.stats == ShardStats.merge(w.stats for w in solo)
            assert res.unreachable_pairs == sum(w.unreachable_pairs for w in solo)

    @pytest.mark.parametrize("budget", [None, 3 * 32 ** 2, 1],
                             ids=["one-stack", "stacks-of-3", "one-table-each"])
    @pytest.mark.parametrize("p", [0.9, 0.95])
    def test_one_stacked_compile_per_block(self, p, budget, monkeypatch):
        """A detour block compiles the survivor tables of all its distinct
        fault sets (fault-free and shared sets once each) in one stacked
        compile, or one per stack that fits the table-byte budget (a
        table over the budget compiles alone), never holds more than
        max(one table, budget) bytes of tables, keeps none of them past
        the route hook, and every replica still gets its solo outcome."""
        block = _mixed_detour_block(p)
        solo = [_outcome(rep.run()) for rep in block]
        if budget is not None:
            monkeypatch.setattr(faults_mod, "_STACK_BUDGET", budget)
        budget = faults_mod._STACK_BUDGET
        stacks = []    # per compile: the fault sets it covers
        live = []      # a weak reference to every table compiled so far
        held = []      # per route-hook call: tables still alive after it
        real = faults_mod.survivor_route_table

        def spy(g, faults):
            table = real(g, faults)
            stacked = table.table.ndim == 3
            stacks.append([frozenset(fs) for fs in faults] if stacked
                          else [frozenset(faults)])
            assert table.table.nbytes <= max(g.node_count ** 2, budget)
            live.append(weakref.ref(table.table))
            return table

        hook = faults_mod.DetourController._block_routes

        def routed(controllers, pairs):
            routes = hook(controllers, pairs)
            held.append(sum(ref() is not None for ref in live))
            return routes

        monkeypatch.setattr(faults_mod, "survivor_route_table", spy)
        monkeypatch.setattr(faults_mod.DetourController, "_block_routes",
                            staticmethod(routed))
        distinct = Counter(set(_fault_sets(block)))  # each distinct set once
        assert len(distinct) < len(block)
        per = max(1, budget // 32 ** 2)
        for drain, want in ((lambda: _block_outcomes(block), solo),
                            (lambda: run_block(block).stats,
                             ShardStats.merge(o[0] for o in solo))):
            stacks.clear()
            held.clear()
            assert drain() == want
            assert len(stacks) == -(-len(distinct) // per)
            assert Counter(fs for stack in stacks for fs in stack) == distinct
            assert held == [0], "a survivor table outlived the route hook"

    @pytest.mark.parametrize("controller", ["reconfig", "detour"])
    def test_a_block_builds_one_engine(self, controller, monkeypatch):
        """Only the union engine is built: the replicas' controllers fire
        their cycle-0 faults without an engine of their own."""
        spec = _fitting(m=2, h=5, k=12, controller=controller,
                        fault_model={"name": "iid", "p": 0.9},
                        replicas=16, packets=256)
        [block] = spec.replica_blocks()
        solo = [_outcome(rep.run()) for rep in block]
        machine, kind = ((ft_debruijn(2, 5, 12), ReconfigurationController)
                         if controller == "reconfig"
                         else (debruijn(2, 5), faults_mod.DetourController))
        built = _counting(monkeypatch, BatchEngine, "__init__")
        fired = _counting(monkeypatch, kind, "fire_due_events")
        assert _block_outcomes(block) == solo
        assert [args[1].node_count for args in built] == [16 * machine.node_count]
        assert len(fired) == 16
        built.clear()
        assert run_block(block).stats == ShardStats.merge(o[0] for o in solo)
        assert len(built) == 1

    def test_a_reconfig_block_lifts_once(self, monkeypatch):
        """The reconfiguration arm computes the shared pairs' windows once
        and lifts them through every replica's φ."""
        spec = _fitting(m=2, h=5, k=12, controller="reconfig",
                        fault_model={"name": "iid", "p": 0.9},
                        replicas=16, packets=256)
        [block] = spec.replica_blocks()
        solo = [_outcome(rep.run()) for rep in block]
        windows = _counting(monkeypatch, fault_routing_mod, "shift_windows_batch")
        assert _block_outcomes(block) == solo
        assert len(windows) == 1
        windows.clear()
        assert run_block(block).stats == ShardStats.merge(o[0] for o in solo)
        assert len(windows) == 1

    @settings(max_examples=60, deadline=None)
    @given(block=_fixed_blocks())
    def test_random_blocks_match_their_solo_runs(self, block):
        """Any block of ``fixed`` cycle-0 replicas, shared and fault-free
        sets included, gives every replica its solo ``(stats,
        lost_to_faults, unreachable_pairs)``, and the block's one reduce
        is the merge of the solo stats."""
        solo = [rep.run() for rep in block]
        assert _block_outcomes(block) == [_outcome(w) for w in solo]
        res = run_block(block)
        assert res.stats == ShardStats.merge(w.stats for w in solo)
        assert res.lost_to_faults == sum(w.lost_to_faults for w in solo)
        assert res.unreachable_pairs == sum(w.unreachable_pairs for w in solo)

    def test_drain_block_refuses_a_later_event(self):
        ctrls = []
        for cycle in (0, 5):
            ctrl = ReconfigurationController(2, 4, 2)
            ctrl.schedule(FaultScenario([(cycle, 3)]))
            ctrls.append(ctrl)
        pairs = make_pattern(16, "uniform", 40, np.random.default_rng(0))
        with pytest.raises(SimulationError, match="every scheduled event at cycle 0"):
            drain_block(ctrls, pairs)
