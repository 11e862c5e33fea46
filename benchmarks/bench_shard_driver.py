"""Bench SHARD DRIVER: the multi-process scenario sweep vs single-process.

Two claims are measured: the ``ShardStats`` reducer is *exact* (merged aggregate
``RunStats`` bit-identical to the inline run, every scenario, every
worker count) and the pool turns idle cores into wall-clock speedup
(recorded in ``BENCH_engines.json`` as the ``driver="sweep"`` rows; on a
single-core box the ratio is honestly ~1x, so the speedup itself is
reported rather than asserted here).
"""

from __future__ import annotations

import numpy as np

from repro.experiments import ExperimentGrid
from repro.simulator import ShardStats, WorkerPool, run_grid

from benchmarks.conftest import once


#: The sweeps' fault axis: the fault-free machine, and one fault at
#: cycle 0.
_FAULT_MODELS = [{"name": "fixed", "faults": []},
                 {"name": "fixed", "faults": [[0, 20]]}]


def _grid() -> ExperimentGrid:
    return ExperimentGrid(
        mhk=[(2, 7, 1), (2, 8, 1)],
        patterns=["uniform", "hotspot"],
        loads=[8_000],
        fault_models=_FAULT_MODELS,
        seeds=[0],
    )


def test_sweep_merge_is_exact(benchmark):
    """Multi-process sweep == inline sweep, scenario by scenario and in
    the merged aggregate (the reducer never approximates)."""
    grid = _grid()

    def both():
        return run_grid(grid, workers=2), run_grid(grid, workers=0)

    sharded, single = once(benchmark, both)
    assert sharded.aggregate_stats == single.aggregate_stats
    for a, b in zip(sharded.results, single.results):
        assert a.run_stats == b.run_stats
    assert len(sharded.results) == len(grid) == 8


def test_warm_pool_reuses_workers_across_sweeps(benchmark):
    """One persistent WorkerPool rides three back-to-back sweeps: every
    repeat's statistics are bit-identical to the cold (ephemeral-pool)
    dispatch, and the spawn counter proves no respawn ever happened."""
    grid = ExperimentGrid(
        mhk=[(2, 7, 1)],
        patterns=["uniform", "hotspot"],
        loads=[4_000],
        fault_models=_FAULT_MODELS,
        seeds=[0],
    )

    def warm_sweeps():
        with WorkerPool(workers=2) as pool:
            results = [run_grid(grid, pool=pool) for _ in range(3)]
            return results, pool.spawned

    warm, spawned = once(benchmark, warm_sweeps)
    assert spawned <= 2
    cold = run_grid(grid, workers=2)
    for w in warm:
        assert w.aggregate_stats == cold.aggregate_stats
        for a, b in zip(w.results, cold.results):
            assert a.run_stats == b.run_stats


def test_merge_scales_vectorized(benchmark):
    """The reducer itself is vectorized: merging a thousand shard records
    is sub-second work, independent of packet counts."""
    rng = np.random.default_rng(0)
    shards = []
    for _ in range(1_000):
        lat = rng.integers(1, 400, size=2_000).astype(np.int64)
        values, counts = np.unique(lat, return_counts=True)
        shards.append(ShardStats(
            cycles=int(lat.max()), injected=2_000, delivered=2_000, dropped=0,
            lat_values=values, lat_counts=counts.astype(np.int64),
            hop_values=values % 12 + 1, hop_counts=counts.astype(np.int64),
        ))

    merged = once(benchmark, lambda: ShardStats.merge(shards))
    assert merged.injected == 2_000_000
    assert merged.delivered == 2_000_000
    stats = merged.to_run_stats()
    assert stats.delivered == 2_000_000
