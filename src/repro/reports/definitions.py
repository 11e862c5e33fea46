"""The registered reports.

``dependability-surface``
    The headline surface of the dependability literature (Meng & Yang's
    random-node-fault model, Elderhalli et al.'s dynamic analysis):
    delivery rate and latency percentiles versus i.i.d. node survival
    probability x machine size x offered load, with the paper's
    reconfiguration controller side-by-side against the spare-less
    detour baseline.  Every surface point pools
    Monte-Carlo fault replicas across seeded traffic repetitions and
    carries a Wilson interval on delivery.

``paper-tables``
    The source paper's fixed-fault claims: on ``B^k_{2,h}`` with up to
    ``k`` worst-case node faults, reconfiguration delivers everything
    with *zero dilation* — the faulted rows reproduce the fault-free
    latency and hop numbers exactly.

Both builders take ``quick=``: QUICK keeps CI and the tier-1 tests in
seconds, FULL is the million-packet configuration the published surface
runs at.  All axes are literals here — a report's identity is its
parameterization, so the grids double as the manifest's provenance.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.experiments import ExperimentGrid
from repro.reports.plan import REPORTS, ReportCell, ReportPlan, ReportTable
from repro.reports.tables import delivery_columns, pooled_delivery

__all__ = ["dependability_surface", "paper_figures", "paper_tables"]

#: Spare budgets sized so an i.i.d. draw overflowing the spares is
#: unlikely at the strongest intensity (p = 0.9 over the target's
#: nodes) — a probabilistic replica that demands more than ``k`` spares
#: fails the whole report at realization time.  Margins of ``k`` above
#: the mean fault count, and P(overflow) per replica:
#: ``B^{12}_{2,5}`` 5.19 sigma, 5.5e-6; QUICK ``B^{16}_{2,6}`` only
#: 4.00 sigma, 1.4e-4; FULL ``B^{20}_{2,6}`` 5.67 sigma, 5.6e-7.  The
#: published seeds all realize within budget: tier-1 builds the QUICK
#: surface and realizes every FULL replica.
_SURFACE_SIZES_QUICK = ((2, 5, 12), (2, 6, 16))
_SURFACE_SIZES_FULL = ((2, 5, 12), (2, 6, 20))


def _surface_grids(quick: bool) -> dict:
    """The two arms of the surface as grids sharing every axis except
    the controller: the paper's reconfiguration vs the detour baseline
    on its vectorized per-epoch route tables."""
    if quick:
        sizes = _SURFACE_SIZES_QUICK
        ps = (1.0, 0.95, 0.9)
        loads = (1200,)
        replicas, seeds = 4, (0, 1)
    else:
        sizes = _SURFACE_SIZES_FULL
        ps = (1.0, 0.98, 0.95, 0.9)
        loads = (250_000, 1_000_000)
        replicas, seeds = 8, (0, 1, 2, 3)
    shared = dict(
        mhk=sizes,
        patterns=("uniform",),
        loads=loads,
        fault_models=tuple({"name": "iid", "p": p} for p in ps),
        replicas=replicas,
        seeds=seeds,
        engine="batch",
    )
    # route_mode selects nothing; the grids keep the names they were
    # built with so that spec digests and cell ids keep their bytes
    return {
        "reconfig": ExperimentGrid(
            controller="reconfig", route_mode="bfs", **shared
        ),
        "detour": ExperimentGrid(
            controller="detour", route_mode="table", **shared
        ),
    }


def _grid_cells(group: str, grid: ExperimentGrid) -> list[ReportCell]:
    """One :class:`ReportCell` per grid cell, coordinates matching the
    grid's documented expansion order (seeds fastest, sizes slowest)."""
    if grid.fault_models:
        fault_axis = [
            ("p", model["p"]) for model in grid.fault_models
        ]
    else:
        fault_axis = [("f", len(fs)) for fs in grid.fault_sets]
    cells = []
    for spec, ((m, h, k), pattern, load, fault, seed) in zip(
        grid.expand(),
        itertools.product(
            grid.mhk, grid.patterns, grid.loads, fault_axis, grid.seeds
        ),
    ):
        coords = {
            "m": m, "h": h, "k": k, fault[0]: fault[1],
            "load": load, "seed": seed,
        }
        cells.append(ReportCell.make(group, coords, spec))
    return cells


def _pooled_rows(plan, results, group: str):
    """Pool each surface point's seed repetitions: cells that share
    every coordinate except ``seed`` reduce to one row."""
    points: dict[tuple, list] = {}
    for cell in plan.cells:
        if cell.group != group:
            continue
        key = tuple(
            (k, v) for k, v in sorted(cell.coords.items()) if k != "seed"
        )
        points.setdefault(key, []).append(cell)
    rows = []
    for key, cells in sorted(points.items()):
        row = dict(key)
        row.update(
            pooled_delivery([results[c.cell_id] for c in cells])
        )
        row["cells"] = [c.cell_id for c in cells]
        rows.append(row)
    return rows


def _aggregate_surface(plan, results):
    coord_cols = ("h", "k", "load", "m", "p")
    tables = []
    rows_by_group = {}
    for group in ("reconfig", "detour"):
        rows = _pooled_rows(plan, results, group)
        rows_by_group[group] = rows
        tables.append(
            ReportTable(
                name=f"surface-{group}",
                caption=(
                    f"Delivery and latency vs i.i.d. node survival "
                    f"probability p, machine size and offered load — "
                    f"{group} controller, seed repetitions pooled, "
                    f"Wilson 95% interval on delivery."
                ),
                columns=coord_cols + delivery_columns,
                rows=rows,
            )
        )

    # the head-to-head the paper's claim rides on: at every surface
    # point, reconfiguration must deliver at least what detour does
    compare_rows = []
    detour_at = {
        tuple(row[c] for c in coord_cols): row
        for row in rows_by_group["detour"]
    }
    for row in rows_by_group["reconfig"]:
        point = tuple(row[c] for c in coord_cols)
        other = detour_at[point]
        compare_rows.append(
            {
                **{c: row[c] for c in coord_cols},
                "reconfig_delivery": row["delivery"],
                "reconfig_ci_lo": row["ci_lo"],
                "reconfig_ci_hi": row["ci_hi"],
                "detour_delivery": other["delivery"],
                "detour_ci_lo": other["ci_lo"],
                "detour_ci_hi": other["ci_hi"],
                "delta": round(row["delivery"] - other["delivery"], 6),
                "ci_disjoint": row["ci_lo"] > other["ci_hi"],
                "cells": row["cells"] + other["cells"],
            }
        )
    tables.append(
        ReportTable(
            name="surface-comparison",
            caption=(
                "Reconfiguration vs detour baseline at every surface "
                "point: delivery-rate delta and whether the Wilson "
                "intervals are disjoint (reconfig lower bound above the "
                "detour upper bound)."
            ),
            columns=coord_cols + (
                "reconfig_delivery", "reconfig_ci_lo", "reconfig_ci_hi",
                "detour_delivery", "detour_ci_lo", "detour_ci_hi",
                "delta", "ci_disjoint",
            ),
            rows=compare_rows,
        )
    )

    offered = sum(row["offered"] for row in rows_by_group["reconfig"])
    offered += sum(row["offered"] for row in rows_by_group["detour"])
    summary = (
        f"Dependability surface over {len(plan.cells)} cells "
        f"({offered} offered packets pooled into "
        f"{len(compare_rows)} surface points per arm).  Faults are "
        f"i.i.d. node failures at cycle 0 (survival probability p); "
        f"reconfiguration remaps onto spares, the detour baseline "
        f"reroutes around dead nodes on per-epoch route tables."
    )
    return tables, summary


@REPORTS.register("dependability-surface")
def dependability_surface(*, quick: bool = False) -> ReportPlan:
    """Delivery + latency vs fault intensity x size x load, both arms."""
    grids = _surface_grids(quick)
    cells = []
    for group, grid in grids.items():
        cells.extend(_grid_cells(group, grid))
    return ReportPlan(
        name="dependability-surface",
        title="Dependability surface: reconfiguration vs detour under "
              "i.i.d. node faults",
        quick=quick,
        grids=grids,
        cells=cells,
        aggregate=_aggregate_surface,
    )


def _paper_fault_sets(h: int) -> tuple:
    """Fault sets of size 0, 1, 2 on ``B^2_{2,h}``: the faulted nodes
    are a fixed seeded draw (``rng([1992, h])``), so the tables name the
    same nodes forever."""
    n = 2 ** h
    rng = np.random.default_rng([1992, h])
    nodes = rng.choice(n, size=2, replace=False)
    a, b = int(nodes[0]), int(nodes[1])
    return ((), ((0, a),), ((0, a), (0, b)))


def _aggregate_paper(plan, results):
    coord_cols = ("f", "h", "k", "load", "m")
    rows = []
    for group in sorted(plan.grids):
        rows.extend(_pooled_rows(plan, results, group))
    table = ReportTable(
        name="fixed-fault-delivery",
        caption=(
            "Delivery under f worst-case node faults on B^k_{2,h} with "
            "reconfiguration (f <= k): every row delivers 100% and the "
            "faulted rows reproduce the fault-free hop counts — the "
            "paper's zero-dilation claim."
        ),
        columns=coord_cols + delivery_columns,
        rows=rows,
    )
    summary = (
        f"Source-paper fixed-fault tables over {len(plan.cells)} cells: "
        f"f in {{0, 1, 2}} seeded worst-case node faults per machine, "
        f"reconfiguration controller, seed repetitions pooled."
    )
    return [table], summary


@REPORTS.register("paper-tables")
def paper_tables(*, quick: bool = False) -> ReportPlan:
    """The source paper's fixed-k fault tables (delivery, zero dilation)."""
    if quick:
        loads, seeds = (400,), (0, 1)
    else:
        loads, seeds = (1000,), (0, 1, 2)
    grids = {}
    cells = []
    for h in (5, 6):
        grid = ExperimentGrid(
            mhk=((2, h, 2),),
            patterns=("uniform",),
            loads=loads,
            fault_sets=_paper_fault_sets(h),
            seeds=seeds,
            controller="reconfig",
            engine="batch",
        )
        group = f"fixed-h{h}"
        grids[group] = grid
        cells.extend(_grid_cells(group, grid))
    return ReportPlan(
        name="paper-tables",
        title="Fixed-fault tables: B^k_{2,h} under up to k node faults",
        quick=quick,
        grids=grids,
        cells=cells,
        aggregate=_aggregate_paper,
    )


def _aggregate_figures(plan, results):
    # the constructions pull in the analysis, algorithm and rendering
    # layers; importing them here keeps `import repro.reports` free of them
    from repro.reports.paper_figures import paper_figure_tables

    return paper_figure_tables()


@REPORTS.register("paper-figures")
def paper_figures(*, quick: bool = False) -> ReportPlan:
    """The source paper's figures, tables and theorem checks, rebuilt from
    the constructions: no cells, no grids, and ``quick`` changes nothing."""
    return ReportPlan(
        name="paper-figures",
        title="The paper's figures, tables and theorem checks",
        quick=quick,
        grids={},
        cells=(),
        aggregate=_aggregate_figures,
    )
