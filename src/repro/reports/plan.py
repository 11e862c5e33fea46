"""The report plan: what to run, how to aggregate, what to emit.

A *report* is a named, parameterized recipe that turns experiment grids
into publishable tables with provenance.  Entries live in the
:data:`REPORTS` registry (the same decorator pattern as
:data:`~repro.simulator.faults.CONTROLLERS` and
:data:`~repro.simulator.faults.FAULT_MODELS`): a builder registered
under the report's name receives ``quick=`` and returns a
:class:`ReportPlan` — the full list of :class:`ReportCell`\\ s to
execute, the grids they came from, and the aggregation that reduces the
per-cell results into :class:`ReportTable`\\ s plus a markdown summary.

:func:`build_report` is the one executor: it expands the plan, sweeps
every cell through :func:`~repro.simulator.grid.run_grid` on
one warm pool, and returns a :class:`ReportRun` ready for
:func:`~repro.reports.bundle.write_report_bundle`.

Everything here is deterministic by construction: cell ids derive from
the spec content hash (:meth:`~repro.experiments.ExperimentSpec.digest`),
cells execute in plan order, and aggregation is a pure function of the
results — so a regenerated report is byte-identical to the first build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import ParameterError
from repro.experiments import ExperimentGrid, ExperimentResult, ExperimentSpec
from repro.registry import Registry
from repro.simulator.grid import run_grid

__all__ = [
    "REPORTS",
    "ReportCell",
    "ReportPlan",
    "ReportRun",
    "ReportTable",
    "build_report",
]

#: The report registry: name -> builder ``(quick: bool) -> ReportPlan``.
#: Register with ``@REPORTS.register("my-report")``; the CLI
#: (``repro report <name>``) and CI resolve names through this table.
REPORTS = Registry("report")


@dataclass(frozen=True)
class ReportCell:
    """One executable cell of a report: a concrete spec plus the
    human-readable coordinates that place it in the report's surface.

    ``cell_id`` doubles as the bundle filename stem; it ends in the
    spec's content-hash prefix, so two cells with identical coordinates
    but different specs cannot collide, and the filename is a pure
    function of the spec (no counters, no wall clock).
    """

    cell_id: str
    group: str          # which arm/grid of the report this cell belongs to
    coords: dict        # JSON-friendly axis values (size, p, load, seed, ...)
    spec: ExperimentSpec

    @classmethod
    def make(
        cls, group: str, coords: Mapping, spec: ExperimentSpec
    ) -> "ReportCell":
        """Derive the canonical cell id from group + coords + spec hash."""
        parts = [group]
        for key, value in coords.items():
            parts.append(f"{key}{value}")
        parts.append(spec.digest()[:8])
        cell_id = "-".join(p.replace(" ", "").replace("/", "_") for p in parts)
        return cls(
            cell_id=cell_id, group=group, coords=dict(coords), spec=spec
        )


@dataclass(frozen=True)
class ReportTable:
    """One aggregated table: named columns, dict rows, provenance.

    Every row carries a ``"cells"`` key — the ``cell_id`` list of the
    raw artifacts its numbers were reduced from — so each published
    number links back to what produced it.
    """

    name: str
    caption: str
    columns: tuple
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(self.rows))
        for row in self.rows:
            missing = [c for c in self.columns if c not in row]
            if missing or "cells" not in row:
                raise ParameterError(
                    f"table {self.name!r} row is missing columns "
                    f"{missing + (['cells'] if 'cells' not in row else [])}"
                )


@dataclass(frozen=True)
class ReportPlan:
    """A fully-expanded report: cells to execute (in order), the grids
    they expand (kept for the manifest), and the aggregation function
    ``(plan, {cell_id: ExperimentResult}) -> (tables, summary_md)``."""

    name: str
    title: str
    quick: bool
    grids: dict          # group -> ExperimentGrid (manifest provenance)
    cells: tuple         # ReportCell, execution order
    aggregate: Callable

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        seen: set[str] = set()
        for cell in self.cells:
            if cell.cell_id in seen:
                raise ParameterError(
                    f"report {self.name!r} has duplicate cell id "
                    f"{cell.cell_id!r}"
                )
            seen.add(cell.cell_id)
        for group, grid in self.grids.items():
            if not isinstance(grid, ExperimentGrid):
                raise ParameterError(
                    f"report {self.name!r} grid {group!r} must be an "
                    f"ExperimentGrid"
                )


@dataclass(frozen=True)
class ReportRun:
    """A built report: the plan, every cell's result, and the
    aggregated outputs — everything the bundle writer needs."""

    plan: ReportPlan
    results: dict        # cell_id -> ExperimentResult
    tables: tuple        # ReportTable
    summary: str         # markdown
    workers: int
    seconds: float       # wall clock (never written into the bundle)


def build_report(
    name: str,
    *,
    quick: bool = False,
    pool=None,
    workers: int | None = None,
) -> ReportRun:
    """Build a registered report end-to-end: resolve the plan, sweep
    every cell across one warm pool, aggregate into tables.

    ``pool`` borrows a caller-owned
    :class:`~repro.simulator.pool.WorkerPool`; otherwise ``workers``
    sizes a sweep-local one (``workers=0`` runs inline — the reference
    path the determinism tests pin against).
    """
    builder = REPORTS.get(name)
    plan = builder(quick=quick)
    specs = [cell.spec for cell in plan.cells]
    grid_result = run_grid(specs, pool=pool, workers=workers)
    results: dict[str, ExperimentResult] = {
        cell.cell_id: res
        for cell, res in zip(plan.cells, grid_result.results)
    }
    tables, summary = plan.aggregate(plan, results)
    return ReportRun(
        plan=plan,
        results=results,
        tables=tuple(tables),
        summary=summary,
        workers=grid_result.workers,
        seconds=grid_result.seconds,
    )
