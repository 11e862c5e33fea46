#!/usr/bin/env python
"""Bench tracker: time four workloads, each two ways, and write
``BENCH_engines.json`` at the repo root, so the perf trajectory is
tracked from PR to PR.

Four row kinds:

* ``driver="sweep"`` — a multi-scenario grid through the multi-process
  ``run_grid`` dispatch vs the same grid single-process: records the
  wall-clock speedup of ``repro.simulator.grid.run_grid`` and
  checks the merged aggregate is bit-identical.  The speedup scales with
  physical cores; single-core machines report ~1x or below (the workers
  column records what ran).
* ``driver="pool"`` — the same scenario grid dispatched repeatedly,
  cold vs warm: the cold side builds an ephemeral worker pool per
  ``run_grid`` call (the historical spawn-per-sweep behavior), the warm
  side rides one persistent
  :class:`~repro.simulator.pool.WorkerPool` across every repeat.  The
  generic columns hold (cold, warm) seconds summed over the repeats;
  ``identical_stats`` is bit-equality of every repeat's per-scenario
  and aggregate statistics across both sides, and ``spawned_warm``
  records how many processes the warm pool ever forked (the reuse
  proof).
* ``driver="montecarlo"`` — one declarative Monte-Carlo cell (an
  ``ExperimentSpec`` with an ``iid`` fault universe and ``replicas``
  seeded realizations) executed twice: sequentially inline
  (``workers=0``, the replicas drained as one block) vs across a warm
  :class:`~repro.simulator.pool.WorkerPool`, where ``run_grid`` cuts
  that block into one per worker.  The generic columns hold
  (sequential, pool) seconds, and ``workers`` the processes the pool
  map used; ``identical_stats`` is bit-equality of the merged per-cell
  statistics *and* the exact aggregate — the proof that replica
  realization happens in the submitting process and is independent of
  where, and in which block, each replica runs.
* ``driver="csr"`` — the CSR core's frontier-expansion primitive raced
  against its own dict-view fallback: BFS distance sweeps from a fixed
  source sample, once walking the lazily-built ``adjacency_dict()``
  compatibility view in python, once through the canonical-array path
  (``StaticGraph.neighbors_batch``).  The generic columns hold (dict,
  csr) seconds; ``identical_stats`` is bit-equal distance vectors, and
  the extra ``compile_seconds`` records one full ``RouteTable.compile``
  on the same machine for the trajectory.

The report exits nonzero — naming each offending workload on stderr —
whenever the two sides of any row disagree, so CI can use it as a
regression gate.  The batch engine's equality with the per-packet
witness engine is a tier-1 test (``tests/test_batch_engine.py``), not a
row here.

Usage::

    PYTHONPATH=src python tools/bench_engines_report.py [--quick] [--out PATH]
        [--workers N]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_ROOT / "src"))

# (driver, pattern, m, h, k, packets, faults)
#   sweep rows: faults = per-scenario (cycle, node) schedule; the grid
#               spans sizes x patterns x fault sets x seeds (see
#               run_sweep_row) and `packets` is the per-scenario load
FULL_SUITE = [
    ("sweep", "uniform", 2, 9, 1, 40_000, [(0, 40)]),
    ("pool", "uniform", 2, 8, 1, 2_000, [(0, 40)]),
    ("montecarlo", "uniform", 2, 9, 1, 10_000, []),
    ("csr", "uniform", 2, 14, 1, 0, []),
]
QUICK_SUITE = [
    ("sweep", "uniform", 2, 7, 1, 4_000, [(0, 9)]),
    ("pool", "uniform", 2, 6, 1, 600, [(0, 9)]),
    ("montecarlo", "uniform", 2, 6, 1, 2_000, []),
    ("csr", "uniform", 2, 7, 1, 0, []),
]


def _fixed_models(faults) -> list[dict]:
    """The fault axis of the sweep and pool rows: the fault-free machine
    and the row's fixed ``(cycle, node)`` set."""
    return [{"name": "fixed", "faults": []},
            {"name": "fixed", "faults": [list(f) for f in faults]}]


def run_sweep_row(pattern, m, h, k, packets, faults, seed=0, workers=None):
    """Race the multi-process ``run_grid`` sweep against a single-process
    run of the same scenario grid; the merged aggregates must be
    bit-identical."""
    from repro.experiments import ExperimentGrid, run_grid

    grid = ExperimentGrid(
        mhk=[(m, h, k), (m, h - 1, k)],
        patterns=[pattern, "hotspot"],
        loads=[packets],
        fault_models=_fixed_models(faults),
        seeds=[seed],
    )
    sharded = run_grid(grid, workers=workers)
    single = run_grid(grid, workers=0)
    identical = (
        sharded.aggregate_stats == single.aggregate_stats
        and all(
            a.run_stats == b.run_stats
            for a, b in zip(sharded.results, single.results)
        )
    )
    agg = sharded.aggregate_stats
    # the generic (object, batch) columns hold (single-process, sharded)
    # for sweep rows; the explicit aliases keep the JSON self-describing
    return single.seconds, sharded.seconds, agg, identical, agg.injected, {
        "scenarios": len(grid),
        "workers": sharded.workers,
        "single_seconds": round(single.seconds, 4),
        "sharded_seconds": round(sharded.seconds, 4),
    }


def run_pool_row(pattern, m, h, k, packets, faults, seed=0, workers=None,
                 repeats=3):
    """Dispatch the same grid ``repeats`` times, cold (fresh ephemeral
    pool per ``run_grid``) vs warm (one persistent pool for the lot);
    every repeat's statistics must be bit-identical across both sides."""
    from repro.experiments import ExperimentGrid, run_grid
    from repro.simulator import WorkerPool

    # force real processes: the row measures spawn amortization, which
    # an inline (workers<=1) dispatch would silently skip on 1-CPU boxes
    workers = 2 if workers is None else max(2, workers)
    grid = ExperimentGrid(
        mhk=[(m, h, k)],
        patterns=[pattern],
        loads=[packets],
        fault_models=_fixed_models(faults),
        seeds=[seed, seed + 1],
    )

    t0 = time.perf_counter()
    cold = [run_grid(grid, workers=workers) for _ in range(repeats)]
    t_cold = time.perf_counter() - t0

    t0 = time.perf_counter()
    with WorkerPool(workers=workers) as pool:
        warm = [run_grid(grid, pool=pool) for _ in range(repeats)]
        spawned = pool.spawned
    t_warm = time.perf_counter() - t0

    identical = all(
        c.aggregate_stats == w.aggregate_stats
        and all(
            a.run_stats == b.run_stats for a, b in zip(c.results, w.results)
        )
        for c, w in zip(cold, warm)
    )
    agg = warm[0].aggregate_stats
    return t_cold, t_warm, agg, identical, agg.injected * repeats, {
        "scenarios": len(grid),
        "repeats": repeats,
        "workers": workers,
        "spawned_warm": spawned,
        "cold_seconds": round(t_cold, 4),
        "warm_seconds": round(t_warm, 4),
    }


def run_montecarlo_row(pattern, m, h, k, packets, faults, seed=0,
                       workers=None, replicas=16):
    """Run one declarative Monte-Carlo cell — an ``iid`` fault universe
    with ``replicas`` seeded realizations — inline as one replica block
    vs across a warm pool, one block per worker; the merged per-cell
    statistics and the exact aggregate must be bit-identical."""
    from repro.experiments import ExperimentSpec
    from repro.simulator import WorkerPool
    from repro.simulator.grid import run_grid

    # force real processes, as in the pool row: a lone cell's block is
    # cut into one per worker, so the pool side crosses processes
    workers = 2 if workers is None else max(2, workers)
    fault_model = {"name": "iid", "p": 0.9}
    spec = ExperimentSpec(
        m=m, h=h, k=k, pattern=pattern, packets=packets, seed=seed,
        controller="detour",
        fault_model=fault_model, replicas=replicas,
    )

    t0 = time.perf_counter()
    seq = run_grid([spec], workers=0)
    t_seq = time.perf_counter() - t0

    t0 = time.perf_counter()
    with WorkerPool(workers=workers) as pool:
        par = run_grid([spec], pool=pool)
    t_pool = time.perf_counter() - t0

    identical = (
        seq.aggregate_stats == par.aggregate_stats
        and all(
            a.run_stats == b.run_stats
            for a, b in zip(seq.results, par.results)
        )
    )
    agg = par.aggregate_stats
    return t_seq, t_pool, agg, identical, agg.injected, {
        "fault_model": fault_model,
        "replicas": replicas,
        "workers": par.workers,
        "sequential_seconds": round(t_seq, 4),
        "pool_seconds": round(t_pool, 4),
    }


def run_csr_row(pattern, m, h, k, packets, fault_nodes, seed=0, sources=32):
    """Race the dict-view fallback against the canonical CSR array path
    on the frontier-expansion primitive: BFS distance sweeps from a
    fixed source sample, python-walking ``adjacency_dict()`` vs the
    vectorized ``neighbors_batch`` gather.  Distances must be bit-equal;
    ``compile_seconds`` additionally records one full
    :meth:`RouteTable.compile` on the same machine."""
    from types import SimpleNamespace

    from repro.core.debruijn import debruijn
    from repro.graphs.properties import bfs_distances
    from repro.routing.tables import RouteTable

    g = debruijn(m, h)
    n = g.node_count
    rng = np.random.default_rng(seed)
    srcs = rng.choice(n, size=min(sources, n), replace=False)

    def dict_bfs(adj, source):
        dist = [-1] * n
        dist[source] = 0
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if dist[w] == -1:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    t0 = time.perf_counter()
    adj = g.adjacency_dict()  # the fallback pays its own view build
    dict_dists = [dict_bfs(adj, int(s)) for s in srcs]
    t_dict = time.perf_counter() - t0

    t0 = time.perf_counter()
    csr_dists = [bfs_distances(g, int(s)) for s in srcs]
    t_csr = time.perf_counter() - t0

    identical = all(
        d.tolist() == ref for d, ref in zip(csr_dists, dict_dists)
    )
    t0 = time.perf_counter()
    RouteTable.compile(g)
    t_compile = time.perf_counter() - t0
    st = SimpleNamespace(cycles=0, delivered=0, dropped=0)
    return t_dict, t_csr, st, identical, int(srcs.size) * n, {
        "nodes": n,
        "sources": int(srcs.size),
        "dict_seconds": round(t_dict, 4),
        "csr_seconds": round(t_csr, 4),
        "compile_seconds": round(t_compile, 4),
    }


def run_config(driver, pattern, m, h, k, packets, faults, seed=0, workers=None):
    if driver == "sweep":
        t_obj, t_bat, st, identical, count, extra = run_sweep_row(
            pattern, m, h, k, packets, faults, seed, workers
        )
    elif driver == "pool":
        t_obj, t_bat, st, identical, count, extra = run_pool_row(
            pattern, m, h, k, packets, faults, seed, workers
        )
    elif driver == "montecarlo":
        t_obj, t_bat, st, identical, count, extra = run_montecarlo_row(
            pattern, m, h, k, packets, faults, seed, workers
        )
    elif driver == "csr":
        t_obj, t_bat, st, identical, count, extra = run_csr_row(
            pattern, m, h, k, packets, faults, seed
        )
    else:
        raise ValueError(f"unknown driver {driver!r}")
    return {
        "driver": driver, "pattern": pattern, "m": m, "h": h, "k": k,
        "packets": count,
        "faults": [list(f) if isinstance(f, tuple) else int(f) for f in faults],
        "object_seconds": round(t_obj, 4),
        "batch_seconds": round(t_bat, 4),
        "cycles": st.cycles,
        "delivered": st.delivered,
        "dropped": st.dropped,
        "speedup": round(t_obj / t_bat, 2),
        "identical_stats": identical,
        **extra,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="small configs only (seconds, for smoke-testing)")
    ap.add_argument("--out", default=None, help="output path for the JSON report")
    ap.add_argument("--workers", type=int, default=None,
                    help="worker processes for sweep rows "
                    "(default: one per CPU core)")
    args = ap.parse_args(argv)

    suite = QUICK_SUITE if args.quick else FULL_SUITE
    rows = []
    for cfg in suite:
        row = run_config(*cfg, workers=args.workers)
        rows.append(row)
        sides = {"sweep": ("single", "sharded"), "pool": ("cold", "warm"),
                 "montecarlo": ("sequential", "pool"),
                 "csr": ("dict", "csr")}
        left, right = sides[row["driver"]]
        print(
            f"{row['driver']:>10} {row['pattern']:>10} "
            f"B^{row['k']}_{{{row['m']},{row['h']}}} {row['packets']:>7} pkts  "
            f"{left} {row['object_seconds']:8.3f}s  "
            f"{right} {row['batch_seconds']:7.3f}s  {row['speedup']:6.1f}x  "
            f"identical={row['identical_stats']}"
        )

    # no wall-clock stamp in the payload: the report is committed, and a
    # regen should diff only when the numbers themselves move
    report = {
        "suite": "quick" if args.quick else "full",
        "results": rows,
    }
    print(f"generated {time.strftime('%Y-%m-%d %H:%M:%S')} (not in payload)")
    out_path = pathlib.Path(
        args.out
        or _ROOT / "BENCH_engines.json"
    )
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    bad = [r for r in rows if not r["identical_stats"]]
    for r in bad:
        print(
            f"DISAGREEMENT: driver={r['driver']} pattern={r['pattern']} "
            f"B^{r['k']}_{{{r['m']},{r['h']}}} packets={r['packets']} "
            f"faults={r['faults']}",
            file=sys.stderr,
        )
    if bad:
        print(f"{len(bad)} workload(s) disagree across sides", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
