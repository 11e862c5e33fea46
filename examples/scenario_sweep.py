"""A reliability sweep on the multi-process worker pool.

The question a dependability study asks: how does delivered traffic and
latency degrade as faults accumulate, across machine sizes and traffic
patterns?  Answering it means running a *grid* of independent
experiments — exactly what ``ExperimentGrid`` + ``run_grid`` are for.
Every cell runs a full ``BatchEngine`` simulation in a worker process;
the exact ``ShardStats`` reducer merges the per-cell statistics into one
aggregate.

Equivalent CLI invocation: save ``grid.to_dict()`` under a ``"grid"``
key and hand it to the unified front door::

    python -m repro run grid.json --workers 4 --json sweep.json

Worker-count selection: one worker per *physical core* (the
``workers=None`` default asks ``os.cpu_count()``).  Workers are
processes, so extra workers beyond the core count only add scheduling
noise, and a single-core machine gains nothing over ``workers=0``
(inline) — the merged numbers are bit-identical either way; only the
wall clock changes.
"""

from __future__ import annotations

import os

from repro.experiments import ExperimentGrid, run_grid


def main() -> None:
    grid = ExperimentGrid(
        mhk=[(2, 6, 2), (2, 7, 2)],  # k=2 spares cover the two-fault cell
        patterns=["uniform", "hotspot"],
        loads=[2000],
        fault_models=[
            {"name": "fixed", "faults": []},                  # healthy machine
            {"name": "fixed", "faults": [[0, 9]]},            # one fault before traffic
            {"name": "fixed", "faults": [[0, 9], [40, 21]]},  # plus one at cycle 40
        ],
        seeds=[0, 1],
    )
    workers = min(4, os.cpu_count() or 1)
    print(f"sweeping {len(grid)} experiments on {workers} worker(s)...")
    result = run_grid(grid, workers=workers)

    header = f"{'scenario':<46} {'faults':>6} {'delivered':>9} " \
             f"{'dropped':>7} {'lat':>7} {'p95':>6}"
    print(header)
    print("-" * len(header))
    for r in result.results:
        s = r.run_stats
        faults = len(r.spec.fault_model["faults"])
        print(f"{r.spec.label:<46} {faults:>6} {s.delivered:>9} "
              f"{s.dropped:>7} {s.mean_latency:>7.2f} {s.p95_latency:>6.1f}")

    agg = result.aggregate_stats
    print(f"\naggregate: {agg}")
    print(f"wall clock {result.seconds:.2f} s; conservation holds: "
          f"{agg.delivered + agg.dropped == agg.injected}")

    # the reducer is exact: an inline re-run merges to the identical stats
    inline = run_grid(grid, workers=0)
    print(f"bit-identical to single-process: "
          f"{inline.aggregate_stats == agg}")


if __name__ == "__main__":
    main()
