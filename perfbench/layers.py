"""Outside-in tracing of the simulator's layers.

Every layer is traced at its public functions by rebinding them, for
the duration of a ``with Instrumentation(...)`` block, to wrappers that
open a span and update counters.  Nothing under ``src/`` changes: the
wrappers are installed on the classes and on every ``repro.*`` module
that imported a traced function by name, and the originals are put back
on exit.

Spans nest per thread.  A span's *self* time is its duration minus the
durations of the spans directly inside it, so ``engine.run`` reports
the coalesced kernels and drain loop, not the ``step`` calls it makes.
Spans are aggregated as they close (calls and self seconds per name);
counters record the work done at the same boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import pickle
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """Per-name span aggregates (``calls``, self ``seconds``) plus named
    counters.  Safe to use from several threads: each thread keeps its
    own span stack."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.payloads: list = []   # (tasks, results) of multi-worker maps
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def _open(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        frame = [0, time.perf_counter_ns()]   # child ns, start ns
        stack.append(frame)
        return frame

    def _close(self, name: str, frame: list) -> float:
        dur = time.perf_counter_ns() - frame[1]
        stack = self._local.stack
        stack.pop()
        if stack:
            stack[-1][0] += dur
        with self._lock:
            self.calls[name] += 1
            self.seconds[name] += (dur - frame[0]) / 1e9
        return dur / 1e9

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn`` inside a span named ``name``; returns
        ``(result, seconds)``."""
        frame = self._open()
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = self._close(name, frame)
        return result, seconds

    @contextlib.contextmanager
    def span(self, name: str):
        """Context-manager span for the benchmark's own request spans."""
        frame = self._open()
        try:
            yield
        finally:
            self._close(name, frame)

    def payload_bytes(self) -> int:
        """Pickled size of every task and result that crossed a process
        boundary, computed after the fact so it adds nothing to spans."""
        total = 0
        for tasks, results in self.payloads:
            total += sum(len(pickle.dumps(t)) for t in tasks)
            total += sum(len(pickle.dumps(r)) for r in results)
        return total


# ---------------------------------------------------------------------------
# what to trace: (span name or None, module, attribute path, note)
# ---------------------------------------------------------------------------
# A note runs after the call, outside the span, as
# note(tracer, args, kwargs, result, seconds) and records counters.

def _note_map(tr, args, kwargs, result, seconds):
    pool, tasks = args[0], list(args[2])
    workers = max(1, pool.resolve_workers(len(tasks)))
    tr.add("pool.tasks", len(tasks))
    tr.add("pool.capacity_s", workers * seconds)
    tr.add("pool.worker_busy_s", sum(getattr(r, "seconds", 0.0) for r in result))
    if workers > 1:  # inline maps pickle nothing
        tr.payloads.append((tasks, result))


def _note_bundle(tr, args, kwargs, result, seconds):
    for dirpath, _, names in os.walk(args[1]):
        for name in names:
            tr.add("bundle.files")
            tr.add("bundle.bytes", os.path.getsize(os.path.join(dirpath, name)))


def _note_lift(tr, args, kwargs, result, seconds):
    tr.add("routing.lift_pairs", len(args[3]))


def _note_compile(tr, args, kwargs, result, seconds):
    table = result.table
    tr.add("routing.table_bytes", table.shape[0] ** 2 * table.itemsize)


def _note_extract(tr, args, kwargs, result, seconds):
    pairs = len(args[1])
    tr.add("routing.extract_pairs", pairs)
    tr.add("routing.refused_pairs", pairs - len(result[2]))


def _note_inject(tr, args, kwargs, result, seconds):
    tr.add("engine.inject_packets", len(result))


def _note_fire(tr, args, kwargs, result, seconds):
    tr.add("faults.events_fired", result)


def _note_schedule(tr, args, kwargs, result, seconds):
    tr.add("sources.arrivals", len(result[0]))


def _note_cycles(tr, args, kwargs, result, seconds):
    tr.add("engine.cycles", result.cycles)   # ShardStats or StreamStats


#: Layers the parent process runs in every mode: dispatch, bundle
#: writing and the spec front door.  Traced while requests go through
#: the warm pool or the service.
FRONT = (
    ("pool.map", "repro.simulator.pool", "WorkerPool.map", _note_map),
    ("bundle.write", "repro.reports.bundle", "write_run_bundle", _note_bundle),
    ("spec.parse", "repro.experiments.spec", "parse_run_payload", None),
    ("spec.parse", "repro.experiments.spec", "ExperimentGrid.expand", None),
    ("spec.realize", "repro.experiments.spec", "ExperimentSpec.realize_replica", None),
)

#: Layers that run inside pool workers.  Traced on an inline replay of
#: the same requests (``workers=0``), which the exact-merge contract
#: makes bit-identical.
INNER = (
    ("graphs.build", "repro.core.debruijn", "debruijn", None),
    ("graphs.build", "repro.core.fault_tolerant", "ft_debruijn", None),
    ("reconfiguration.remap", "repro.core.reconfiguration", "Reconfigurator.phi", None),
    ("reconfiguration.remap", "repro.core.reconfiguration",
     "Reconfigurator.fail_node", None),
    ("reconfiguration.remap", "repro.core.reconfiguration",
     "Reconfigurator.repair_node", None),
    ("routing.lift", "repro.routing.fault_routing", "lifted_routes_batch", _note_lift),
    ("routing.compile", "repro.routing.fault_routing", "survivor_route_table",
     _note_compile),
    ("routing.extract", "repro.routing.tables", "RouteTable.routes_batch_masked",
     _note_extract),
    ("engine.inject", "repro.simulator.batch_engine", "BatchEngine.inject_routes",
     _note_inject),
    ("engine.step", "repro.simulator.batch_engine", "BatchEngine.step", None),
    ("engine.run", "repro.simulator.batch_engine", "BatchEngine.run", None),
    ("faults.realize", "repro.simulator.faults", "realize_fault_model", None),
    ("faults.drive", "repro.simulator.faults",
     "ReconfigurationController.run_workload", None),
    ("faults.drive", "repro.simulator.faults", "DetourController.run_workload", None),
    (None, "repro.simulator.faults", "ReconfigurationController.fire_due_events",
     _note_fire),
    (None, "repro.simulator.faults", "DetourController.fire_due_events", _note_fire),
    ("sources.schedule", "repro.simulator.sources", "TrafficSource.schedule",
     _note_schedule),
    ("streaming.self", "repro.simulator.streaming", "run_stream", None),
    ("stats.reduce", "repro.simulator", "ShardStats.from_arrays",
     _note_cycles),
    ("stats.reduce", "repro.simulator", "ShardStats.merge", None),
    ("stats.reduce", "repro.simulator.metrics", "stream_summary", _note_cycles),
    ("spec.build", "repro.experiments.spec", "ExperimentSpec.build_controller", None),
)


def _wrap(tracer: Tracer, name: str | None, fn, note):
    if name is None:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            note(tracer, args, kwargs, result, 0.0)
            return result
        return counted

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        result, seconds = tracer.call(name, fn, args, kwargs)
        if note is not None:
            note(tracer, args, kwargs, result, seconds)
        return result
    return spanned


class Instrumentation:
    """Install wrappers for ``probes`` on enter, restore on exit."""

    def __init__(self, tracer: Tracer, probes):
        self.tracer = tracer
        self.probes = probes
        self._undo: list = []

    def __enter__(self) -> "Instrumentation":
        try:
            for name, module, path, note in self.probes:
                self._install(name, importlib.import_module(module), path, note)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _install(self, name, module, path, note) -> None:
        if "." in path:  # Class.method: patch the class that defines it
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_wrap(self.tracer, name, raw.__func__, note))
            else:
                wrapped = _wrap(self.tracer, name, raw, note)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
            return
        # a module function: rebind it wherever a repro module holds it
        original = getattr(module, path)
        wrapped = _wrap(self.tracer, name, original, note)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
