"""The experiments front door: one declarative spec, registry-driven
backends, one runner for every loop kind.

This package is the single entry point for describing and executing
simulation experiments:

* :class:`ExperimentSpec` — one frozen, JSON-round-trippable record
  describing either a closed-loop workload (inject fixed batches, drain)
  or an open-loop stream (seeded arrivals at a target rate), selected by
  ``loop="closed" | "stream"``.
* :class:`ExperimentGrid` — a declarative sweep (sizes x patterns x
  loads/rates x fault models x seeds) that expands to specs; handing a
  stream grid to :func:`run_grid` executes a saturation *surface*
  (offered rate x machine size x fault count) as one sweep.
* :func:`run_grid` — the multi-process executor (re-exported from
  :mod:`repro.simulator.grid`); accepts a grid or a sequence
  of specs.
* The backend registries — :data:`CONTROLLERS`, :data:`SOURCES`,
  :data:`PATTERNS`, :data:`FAULT_MODELS` — where the backend names a
  spec can carry are registered by decorator and validated at spec
  construction.  A new backend (an arrival process, a fault universe)
  is one decorated factory; every spec, grid, CLI ``choices=`` list and
  error message picks it up automatically.  :data:`ROUTE_MODES` lists
  the names the ``route_mode`` field accepts, which select nothing.

CLI: ``python -m repro run spec.json`` executes any spec or grid JSON;
``python -m repro serve`` accepts the same JSON over HTTP.
"""

from repro.registry import Registry
from repro.simulator.faults import (
    CONTROLLERS,
    FAULT_MODELS,
    realize_fault_model,
    validate_fault_model,
)
from repro.simulator.sources import SOURCES, make_source
from repro.simulator.traffic import PATTERNS, make_pattern
from repro.experiments.spec import (
    LOOPS,
    ROUTE_MODES,
    ExperimentGrid,
    ExperimentResult,
    ExperimentSpec,
    parse_run_payload,
)
from repro.simulator.grid import GridResult, run_grid

__all__ = [
    "Registry",
    "CONTROLLERS",
    "FAULT_MODELS",
    "SOURCES",
    "PATTERNS",
    "ROUTE_MODES",
    "realize_fault_model",
    "validate_fault_model",
    "LOOPS",
    "ExperimentGrid",
    "ExperimentResult",
    "ExperimentSpec",
    "GridResult",
    "run_grid",
    "parse_run_payload",
    "make_source",
    "make_pattern",
]
