"""Cycle-accurate interconnect simulator: links, buses, traffic, faults.

Two interchangeable engines implement the store-and-forward model:

* :class:`NetworkSimulator` — the object engine: one Python
  :class:`Packet` per message, one deque per link.  The semantic
  reference; best for small workloads and debugging.
* :class:`BatchEngine` — the vectorized structure-of-arrays engine:
  routes flattened into NumPy arrays, departures scheduled exactly on a
  calendar queue so each packet is touched only when it moves.  1–2
  orders of magnitude faster on heavy traffic, golden-tested to match
  the object engine packet-for-packet.

The fault controllers (:class:`ReconfigurationController`,
:class:`DetourController`) accept ``engine="object" | "batch"``.  There
is one layer of parallelism: :func:`run_grid` maps independent tasks —
grid cells, Monte-Carlo replicas, and the per-batch ``shards`` of a
closed-loop spec — over one :class:`WorkerPool` and merges closed-loop
results exactly through :class:`ShardStats` (see
:mod:`repro.simulator.shard_driver`).

Two ways to load the machine:

* **closed loop** — inject fixed batches and drain them
  (``run_workload``); measures makespan and per-batch latency;
* **open loop** — stream arrivals per cycle from a seeded
  :class:`TrafficSource` (``run_stream`` / :func:`find_saturation`;
  CLI ``repro run spec.json --rates ...``); measures sustained
  throughput, backlog growth, and the saturation point.
"""

from repro.simulator.events import Event, EventQueue
from repro.simulator.packets import Packet
from repro.simulator.metrics import (
    PacketArrays,
    RunStats,
    StreamStats,
    WindowSeries,
    stream_summary,
    summarize,
    summarize_arrays,
    window_series,
)
from repro.simulator.network import NetworkSimulator
from repro.simulator.batch_engine import BatchEngine, pack_routes
from repro.simulator.bus_net import BusNetworkSimulator
from repro.simulator.traffic import (
    PATTERN_NAMES,
    make_pattern,
    all_to_all_traffic,
    bit_reversal_traffic,
    descend_superstep_traffic,
    hotspot_traffic,
    permutation_traffic,
    transpose_traffic,
    uniform_traffic,
)
from repro.simulator.engines import ENGINES, make_engine
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
from repro.simulator.shard_driver import (
    ExperimentResult,
    GridResult,
    ShardStats,
    run_grid,
)
from repro.simulator.sources import (
    SOURCE_NAMES,
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
    "SOURCE_NAMES",
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
    "Event",
    "EventQueue",
    "Packet",
    "PacketArrays",
    "RunStats",
    "summarize",
    "summarize_arrays",
    "NetworkSimulator",
    "BatchEngine",
    "pack_routes",
    "BusNetworkSimulator",
    "PATTERN_NAMES",
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
    "ENGINES",
    "CONTROLLERS",
    "FAULT_MODELS",
    "make_engine",
    "realize_fault_model",
    "validate_fault_model",
    "ExperimentResult",
    "GridResult",
    "ShardStats",
    "WorkerPool",
    "run_grid",
]
