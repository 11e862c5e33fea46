"""Cycle-accurate interconnect simulator: links, buses, traffic, faults.

One engine implements the point-to-point store-and-forward model:
:class:`BatchEngine`, the vectorized structure-of-arrays engine.  Routes
are flattened into NumPy arrays and departures are scheduled exactly on
a calendar queue, so each packet is touched only when it moves.  The
conformance suite holds it packet for packet to a per-packet object
engine that lives in ``tests/conformance/`` as the witness.
:class:`BusNetworkSimulator` runs the same packets on the paper's bus
machine (§V), which has no batch twin.

The fault controllers (:class:`ReconfigurationController`,
:class:`DetourController`) run on :class:`BatchEngine`.  There is one
layer of parallelism: :func:`run_grid`
maps independent tasks — grid cells and blocks of Monte-Carlo
replicas — over one :class:`WorkerPool` and merges closed-loop results exactly through
:class:`ShardStats`, the one statistics type of a drain (see
:mod:`repro.simulator.metrics` and :mod:`repro.simulator.grid`).

Two ways to load the machine:

* **closed loop** — inject fixed batches and drain them
  (``run_workload``); measures makespan and per-batch latency;
* **open loop** — stream arrivals per cycle from a seeded
  :class:`TrafficSource` (``run_stream`` / :func:`find_saturation`;
  CLI ``repro run spec.json --rates ...``); measures sustained
  throughput, backlog growth, and the saturation point.
"""

from repro.simulator.packets import Packet
from repro.simulator.metrics import (
    PacketArrays,
    ShardStats,
    StreamStats,
    WindowSeries,
    stream_summary,
    window_series,
)
from repro.simulator.batch_engine import BatchEngine, pack_routes
from repro.simulator.bus_net import BusNetworkSimulator
from repro.simulator.traffic import (
    make_pattern,
    all_to_all_traffic,
    bit_reversal_traffic,
    descend_superstep_traffic,
    hotspot_traffic,
    permutation_traffic,
    transpose_traffic,
    uniform_traffic,
)
from repro.simulator.faults import (
    CONTROLLERS,
    FAULT_MODELS,
    DetourController,
    FaultScenario,
    ReconfigurationController,
    realize_fault_model,
    validate_fault_model,
)
from repro.simulator.pool import WorkerPool
from repro.simulator.grid import (
    ExperimentResult,
    GridResult,
    run_grid,
)
from repro.simulator.sources import (
    DeterministicSource,
    OnOffSource,
    PoissonSource,
    TraceSource,
    TrafficSource,
    make_source,
)
from repro.simulator.streaming import (
    SaturationResult,
    find_saturation,
    run_stream,
)

__all__ = [
    "DeterministicSource",
    "OnOffSource",
    "PoissonSource",
    "TraceSource",
    "TrafficSource",
    "make_source",
    "SaturationResult",
    "StreamStats",
    "WindowSeries",
    "find_saturation",
    "run_stream",
    "stream_summary",
    "window_series",
    "Packet",
    "PacketArrays",
    "BatchEngine",
    "pack_routes",
    "BusNetworkSimulator",
    "make_pattern",
    "all_to_all_traffic",
    "bit_reversal_traffic",
    "descend_superstep_traffic",
    "hotspot_traffic",
    "permutation_traffic",
    "transpose_traffic",
    "uniform_traffic",
    "DetourController",
    "FaultScenario",
    "ReconfigurationController",
    "CONTROLLERS",
    "FAULT_MODELS",
    "realize_fault_model",
    "validate_fault_model",
    "ExperimentResult",
    "GridResult",
    "ShardStats",
    "WorkerPool",
    "run_grid",
]
