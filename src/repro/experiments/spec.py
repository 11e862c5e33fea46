"""The unified experiment specification: one declarative, serializable
record that drives every kind of run.

:class:`ExperimentSpec` describes both kinds of run — a closed loop
(inject fixed batches, drain to completion) and an open-loop stream (a
seeded arrival process at a target rate over a fixed horizon) — as one
frozen dataclass, selected by ``loop="closed" | "stream"``, with

* **registry-validated fields** — ``pattern``, ``source`` and
  ``controller`` are checked against the live registries
  (:data:`~repro.simulator.traffic.PATTERNS`,
  :data:`~repro.simulator.sources.SOURCES`,
  :data:`~repro.simulator.faults.CONTROLLERS`) at *construction*
  time, so a typo raises a
  :class:`~repro.errors.ParameterError` (a ``ValueError`` naming the
  valid choices) in the process that typed it, never as a ``KeyError``
  inside a worker;
* **exact JSON round-trip** — :meth:`ExperimentSpec.to_json` /
  :meth:`ExperimentSpec.from_json` reproduce the spec field-for-field
  (ints stay ints, floats round-trip exactly), so one ``spec.json``
  file *is* the experiment and published results can state precisely
  what produced them;
* **grid expansion** — :class:`ExperimentGrid` declares a sweep (sizes
  x patterns x loads *or* rates x fault models x seed replicas) and
  :meth:`ExperimentGrid.expand` yields concrete specs in a stable
  documented order; a saturation *surface* (offered rate x machine
  size x fault count) is one stream-loop grid handed to
  :func:`repro.simulator.grid.run_grid`;
* **declarative fault universes** — ``fault_model`` names a generator
  from :data:`~repro.simulator.faults.FAULT_MODELS` (``fixed`` for a
  literal schedule; ``iid``, ``burst``, ``churn``), and
  ``replicas`` asks for Monte-Carlo repetition: replica ``i``'s
  concrete :class:`~repro.simulator.faults.FaultScenario` is drawn from
  ``numpy.random.default_rng([seed, i])`` with traffic held fixed, so
  every cell is exactly reproducible and
  :func:`~repro.simulator.grid.run_grid` fans the realizations, in
  blocks drained on one engine each (:meth:`ExperimentSpec.replica_blocks`),
  across the warm worker pool.

Running a spec (:meth:`ExperimentSpec.run`) returns an
:class:`ExperimentResult`: closed-loop runs carry mergeable
:class:`~repro.simulator.grid.ShardStats`, stream runs carry
:class:`~repro.simulator.metrics.StreamStats`.

>>> spec = ExperimentSpec(m=2, h=4, k=1, loop="closed", packets=40)
>>> ExperimentSpec.from_json(spec.to_json()) == spec
True
>>> len(ExperimentGrid(mhk=[(2, 4, 1)], loads=[10, 20], seeds=[0, 1]))
4
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from repro.core.debruijn import debruijn
from repro.core.fault_tolerant import ft_debruijn
from repro.errors import ParameterError
from repro.simulator.faults import (
    CONTROLLERS,
    FAULT_MODELS,
    FaultScenario,
    realize_fault_model,
    validate_fault_model,
)
from repro.simulator.grid import ExperimentResult, ShardStats, run_grid
from repro.simulator.sources import SOURCES, TrafficSource, make_source
from repro.simulator.traffic import PATTERNS, make_pattern

__all__ = [
    "LOOPS",
    "ROUTE_MODES",
    "ExperimentSpec",
    "ExperimentGrid",
    "ExperimentResult",
    "parse_run_payload",
]

#: The two loop kinds a spec can describe: ``"closed"`` injects fixed
#: batches and drains them; ``"stream"`` offers open-loop arrivals per
#: cycle from a seeded source.
LOOPS = ("closed", "stream")

#: The names the ``route_mode`` field accepts.  It selects nothing: the
#: detour baseline has one router (a survivor table compiled for each
#: routed batch).  The field stays only because the benchmark's workloads
#: (``perfbench/workloads.py``) still pass ``route_mode="table"``; it
#: goes in the change that next edits that file.
ROUTE_MODES = ("bfs", "table")

#: Keys the spec format no longer has, each with what replaces it.
#: ``from_dict`` refuses them by name, so an old spec file fails with
#: the fix in its message (one ``error:`` line at the CLI, HTTP 400 at
#: the service) instead of a bare unknown-key error.
_REMOVED_KEYS = {
    "engine": "drop it; every cell runs on the one batch engine",
    "faults": 'use fault_model={"name": "fixed", "faults": [[cycle, node], ...]}',
    "fault_sets": ('use fault_models=[{"name": "fixed", "faults": '
                   "[[cycle, node], ...]}, ...]"),
    "shards": ("drop it; cells and replica blocks are the units of "
               "parallelism"),
}

#: Largest ``R x (packets + directed links)`` one block of a replicated
#: cell drains on one engine (see :meth:`ExperimentSpec.replica_blocks`).
#: Every replicated cell below the FULL surface fits in one block (the
#: QUICK surface's largest cell takes 22k, ``montecarlo-bundle``'s 72k),
#: while a FULL replica of 250k packets or more is a block of one.  A
#: budget on packets alone would tile a large machine thousands of times
#: for a small-packet cell.
_BLOCK_BUDGET = 1 << 18


def _spare_demand(scenario: FaultScenario) -> int:
    """Walk a schedule in the controllers' firing order
    (:meth:`FaultScenario.events`: repairs before faults within a cycle)
    and return the peak number of *concurrently* faulty nodes — the
    spare budget a ``reconfig`` run needs; repairs return spares to the
    pool.  A repair of a node that is not faulty at its cycle, or a
    fault of a node that already is, raises :class:`ParameterError`:
    neither controller can run that schedule."""
    live: set[int] = set()
    peak = 0
    for cycle, is_fault, v in scenario.events():
        if not is_fault:
            if v not in live:
                raise ParameterError(
                    f"scenario repairs node {v} at cycle {cycle}, but it "
                    f"is not faulty then"
                )
            live.discard(v)
        else:
            if v in live:
                raise ParameterError(
                    f"scenario fails node {v} at cycle {cycle}, but it is "
                    f"already faulty then"
                )
            live.add(v)
            peak = max(peak, len(live))
    return peak


def _check_keys(cls, spec: dict, removed: tuple[str, ...]) -> None:
    """Strict key check for ``cls.from_dict``: a removed key raises
    naming its replacement, any other unknown key raises naming it, so
    a typo'd field cannot silently fall back to a default."""
    for key in removed:
        if key in spec:
            raise ParameterError(
                f"{cls.__name__} key {key!r} was removed: {_REMOVED_KEYS[key]}"
            )
    known = {f.name for f in fields(cls)}
    unknown = set(spec) - known
    if unknown:
        raise ParameterError(
            f"unknown {cls.__name__} keys: {sorted(unknown)}; "
            f"valid keys: {sorted(known)}"
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """One self-contained experiment: everything a worker process needs
    to rebuild and run it (pure data — pickles and JSON-serializes by
    value).

    Shared fields (both loop kinds)
    -------------------------------
    ``m, h, k``
        Machine family/size: the ``B^k_{m,h}`` construction parameters
        (``k`` spares; the ``detour`` controller runs the bare target
        graph and ignores ``k``).
    ``loop``
        ``"closed"`` or ``"stream"`` — see :data:`LOOPS`.
    ``pattern``
        Destination pattern, one of
        :data:`~repro.simulator.traffic.PATTERNS`.
    ``controller``
        Fault strategy, one of
        :data:`~repro.simulator.faults.CONTROLLERS` (``reconfig`` — the
        paper's remap, or ``detour`` — the spare-less baseline).
    ``route_mode``
        One of :data:`ROUTE_MODES`, accepted input that selects nothing:
        both controllers have one router each.  It stays only while the
        benchmark's workloads still pass it (see :data:`ROUTE_MODES`).
    ``fault_model``
        A fault universe: ``{"name": ..., **params}`` with the name one
        of :data:`~repro.simulator.faults.FAULT_MODELS` (``fixed``,
        ``iid``, ``burst``, ``churn``), validated and canonicalized at
        construction; ``None`` (the default) is fault-free.  A ``fixed``
        model's ``(cycle, node)`` pairs fire on exactly their cycle in
        closed-loop and stream runs alike, and a ``fixed`` schedule that
        repairs a live node or fails a dead one is refused here.
        Probabilistic models are *realized* into a concrete schedule
        per replica from ``rng([seed, replica_index])``; stream specs
        default the arrival window to ``[0, cycles)``, closed specs to
        ``[0, 1)`` (every fault at cycle 0 — the static random-fault
        universe of the dependability literature) unless the model
        names a ``window``.
    ``replicas``
        Monte-Carlo repetition count (closed loop only — stream stats
        do not merge; sweep the grid ``seeds`` axis instead).  Traffic
        stays fixed across replicas; only the fault realization varies.
    ``seed, link_capacity``
        Traffic determinism and per-link bandwidth.

    Closed-loop fields
    ------------------
    ``packets, batches, cycles_per_batch, max_cycles`` — the workload
    size, its injection batching, idle gaps between batches, and the
    drain watchdog.

    Stream fields
    -------------
    ``source, rate, cycles, warmup, window, mean_on, mean_off`` — the
    arrival process (one of :data:`~repro.simulator.sources.SOURCES`)
    at ``rate`` aggregate packets/cycle over a ``cycles`` horizon, with
    warmup exclusion and optional per-window series; ``mean_on`` /
    ``mean_off`` shape the ``onoff`` source's bursts.

    Every field is validated in ``__post_init__`` — registry names
    against the live registries, cross-field constraints (spare budget,
    warmup bounds) — so an invalid spec never reaches a worker.
    """

    m: int
    h: int
    k: int = 1
    loop: str = "closed"
    pattern: str = "uniform"
    controller: str = "reconfig"
    route_mode: str = "bfs"
    fault_model: dict | None = None
    replicas: int = 1
    seed: int = 0
    link_capacity: int = 1
    # closed-loop fields
    packets: int = 1000
    batches: int = 1
    cycles_per_batch: int = 0
    max_cycles: int = 1_000_000
    # stream fields
    source: str = "poisson"
    rate: float = 1.0
    cycles: int = 2000
    warmup: int = 200
    window: int = 0
    mean_on: float = 20.0
    mean_off: float = 20.0

    def __post_init__(self):
        ints = ("m", "h", "k", "replicas", "seed", "link_capacity", "packets",
                "batches", "cycles_per_batch", "max_cycles", "cycles",
                "warmup", "window")
        for name in ints:
            object.__setattr__(self, name, int(getattr(self, name)))
        for name in ("rate", "mean_on", "mean_off"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.loop not in LOOPS:
            raise ParameterError(
                f"unknown loop kind {self.loop!r}; valid choices: "
                f"{', '.join(LOOPS)}"
            )
        PATTERNS.validate(self.pattern)
        CONTROLLERS.validate(self.controller)
        if self.route_mode not in ROUTE_MODES:
            raise ParameterError(
                f"unknown route_mode {self.route_mode!r}; valid choices: "
                f"{', '.join(ROUTE_MODES)}"
            )
        SOURCES.validate(self.source)
        if self.fault_model is not None:
            object.__setattr__(
                self, "fault_model", validate_fault_model(self.fault_model)
            )
        if self.replicas < 1:
            raise ParameterError(f"replicas must be >= 1, got {self.replicas}")
        if self.replicas > 1 and self.loop != "closed":
            raise ParameterError(
                "replicas > 1 needs loop='closed' (stream statistics "
                "do not merge exactly; Monte-Carlo a stream run over "
                "the grid seeds axis instead)"
            )
        known = self._fixed_faults()
        demand = 0 if known is None else _spare_demand(known)
        if self.controller == "reconfig" and demand > self.k:
            # fail at spec time with a readable message instead of a
            # FaultSetError traceback out of a worker process mid-sweep
            # (probabilistic models re-check here when each replica is
            # realized into a fixed schedule)
            raise ParameterError(
                f"scenario schedules {demand} concurrently faulty "
                f"nodes but B^{self.k}_{{{self.m},{self.h}}} has only "
                f"{self.k} spares"
            )
        if self.loop == "closed":
            if self.batches < 1:
                raise ParameterError("batches must be >= 1")
        else:
            if not self.rate > 0:
                raise ParameterError("rate must be > 0")
            if not 0 <= self.warmup < self.cycles:
                raise ParameterError("need 0 <= warmup < cycles")

    # -- identity -----------------------------------------------------------

    @property
    def label(self) -> str:
        """Human-readable cell label — the ``"scenario"`` column of
        result rows."""
        parts = [f"B^{self.k}_{{{self.m},{self.h}}}"]
        if self.loop == "stream":
            parts.append(f"{self.source}({self.rate:g}/cy)")
            parts.append(self.pattern)
        else:
            parts.append(self.pattern)
            parts.append(f"{self.packets}pkt")
            parts.append(f"seed{self.seed}")
        if self.fault_model is not None:
            parts.append(f"{self.fault_model['name']}-faults")
        if self.replicas > 1:
            parts.append(f"x{self.replicas}")
        if self.controller != "reconfig":
            parts.append(self.controller)
            if self.route_mode != "bfs":  # selects nothing; labels keep it
                parts.append(self.route_mode)
        return " ".join(parts)

    def with_rate(self, rate: float) -> "ExperimentSpec":
        """A copy at a different offered rate (the load-sweep axis)."""
        return replace(self, rate=float(rate))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly form: every field (a ``fault_model`` is already
        canonical JSON)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, spec: dict) -> "ExperimentSpec":
        """Rebuild from :meth:`to_dict` output (strict: an unknown or
        removed key raises, naming it — see :func:`_check_keys`)."""
        _check_keys(cls, spec, ("engine", "faults", "shards"))
        return cls(**spec)

    def to_json(self, *, indent: int | None = None) -> str:
        """Exact JSON serialization — ``from_json(to_json(s)) == s``."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """Stable content hash of the spec: SHA-256 over the canonical
        (sorted-keys) JSON form.  Equal specs hash equal in any process,
        so bundle cell filenames derived from it are reproducible."""
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()

    # -- fault universes -----------------------------------------------------

    def _fixed_faults(self) -> FaultScenario | None:
        """The schedule when it is statically known (fault-free or the
        ``fixed`` model, converted by its registry entry, which draws
        nothing), else ``None`` — probabilistic universes are only
        knowable per realized replica."""
        model = self.fault_model
        if model is None:
            return FaultScenario()
        if model["name"] != "fixed":
            return None
        return FAULT_MODELS.get("fixed")(model, n=self.m ** self.h, cycles=0, rng=None)

    def realize_faults(self, replica: int = 0) -> FaultScenario:
        """This spec's concrete fault schedule for one Monte-Carlo
        replica.  A static schedule (fault-free or ``fixed``, as every
        realized replica is) is :meth:`_fixed_faults`, validated once
        at construction; a probabilistic universe is drawn by
        :func:`~repro.simulator.faults.realize_fault_model` — a pure
        function of ``(spec, replica)`` via ``rng([seed, replica])``, so
        realizations reproduce anywhere.  Stream specs default
        probabilistic arrival windows to ``[0, cycles)``; closed specs
        to ``[0, 1)`` (faults at cycle 0)."""
        known = self._fixed_faults()
        if known is not None:
            return known
        return realize_fault_model(
            self.fault_model,
            n=self.m ** self.h,
            cycles=self.cycles if self.loop == "stream" else 1,
            rng=np.random.default_rng([self.seed, int(replica)]),
            graph=lambda: debruijn(self.m, self.h),
        )

    def realize_replica(self, replica: int) -> "ExperimentSpec":
        """Replica ``replica``'s single-run spec: the probabilistic fault
        universe frozen into a ``fixed`` model (so the worker re-runs the
        exact drawn schedule), ``replicas`` collapsed to 1, traffic
        untouched.  :func:`~repro.simulator.grid.run_grid`
        expands replicated cells through this."""
        scenario = self.realize_faults(replica)
        model = {
            "name": "fixed",
            "faults": [[c, v] for c, v in scenario.node_faults],
        }
        if scenario.node_repairs:
            model["repairs"] = [[c, v] for c, v in scenario.node_repairs]
        return replace(self, fault_model=model, replicas=1)

    def replica_blocks(self) -> list[tuple["ExperimentSpec", ...]]:
        """This replicated cell's realized replicas
        (:meth:`realize_replica`, in index order) cut into *blocks*, each
        drained on one engine by :func:`~repro.simulator.grid.run_block`.

        A cell drains in blocks when it injects one batch and every
        realized fault or repair fires at cycle 0 (the default closed
        window of ``iid`` and ``burst``); a block then holds as many
        replicas as fit :data:`_BLOCK_BUDGET` over ``packets`` plus the
        controller's directed links.  Any other cell (``churn``, a
        windowed model, several batches) and a replica too large to
        share a block runs one replica per block, on the per-replica
        path.  Realizing happens here, so a replica over the spare
        budget raises :class:`ParameterError` before anything runs.
        """
        realized = [self.realize_replica(i) for i in range(self.replicas)]
        at_zero = all(c == 0 for rep in realized for c, _, _ in rep._fixed_faults().events())
        if self.batches > 1 or not at_zero:
            return [(rep,) for rep in realized]
        machine = (ft_debruijn(self.m, self.h, self.k)
                   if self.controller == "reconfig" else debruijn(self.m, self.h))
        size = self.packets + 2 * machine.edge_count
        per = max(1, _BLOCK_BUDGET // size)
        return [tuple(realized[i: i + per]) for i in range(0, len(realized), per)]

    # -- construction of the moving parts -----------------------------------

    def traffic(self) -> np.ndarray:
        """Closed-loop (src, dst) pairs — deterministic in ``seed``."""
        n = self.m ** self.h
        return make_pattern(
            n, self.pattern, self.packets, np.random.default_rng(self.seed)
        )

    def injection_batches(self) -> list[np.ndarray]:
        """The closed-loop workload split into injection batches."""
        pairs = self.traffic()
        if self.batches <= 1:
            return [pairs]
        return np.array_split(pairs, self.batches)

    def build_source(self) -> TrafficSource:
        """The stream arrival process — deterministic in ``seed``."""
        return make_source(
            self.source, self.m ** self.h, self.rate,
            pattern=self.pattern, seed=self.seed,
            mean_on=self.mean_on, mean_off=self.mean_off,
        )

    def build_controller(self):
        """Fresh controller (via the :data:`CONTROLLERS` registry) with
        this spec's realized fault schedule (replica 0 for probabilistic
        universes) on its fault clock."""
        ctrl = CONTROLLERS.get(self.controller)(
            self.m, self.h, self.k, link_capacity=self.link_capacity,
        )
        ctrl.schedule(self.realize_faults())
        return ctrl

    # -- execution ----------------------------------------------------------

    def run(self) -> "ExperimentResult":
        """Execute in the current process: the one result of
        ``run_grid([self], workers=0)``, so a replicated cell run here and
        one run through a grid share one expansion into replica blocks
        and one merge."""
        return run_grid([self], workers=0).results[0]

    def _run(self) -> "ExperimentResult":
        """Run this single-replica spec: the leaf that every pool task
        ends in (:func:`~repro.simulator.grid.run_block` on a block of
        one)."""
        return self._run_stream() if self.loop == "stream" else self._run_closed()

    def _run_closed(self) -> "ExperimentResult":
        batches = self.injection_batches()
        ctrl = self.build_controller()
        t0 = time.perf_counter()
        ctrl.run_workload(batches, cycles_per_batch=self.cycles_per_batch,
                          max_cycles=self.max_cycles)
        seconds = time.perf_counter() - t0
        stats = ShardStats.from_arrays(ctrl.sim.packet_records(), ctrl.sim.cycle)
        return ExperimentResult(
            spec=self,
            stats=stats,
            seconds=seconds,
            lost_to_faults=ctrl.lost_to_faults,
            unreachable_pairs=ctrl.unreachable_pairs,
        )

    def _run_stream(self) -> "ExperimentResult":
        from repro.simulator.streaming import run_stream

        ctrl = self.build_controller()
        src = self.build_source()
        t0 = time.perf_counter()
        stats = run_stream(
            ctrl, src, cycles=self.cycles, warmup=self.warmup,
            window=self.window,
        )
        return ExperimentResult(
            spec=self,
            stats=stats,
            seconds=time.perf_counter() - t0,
            lost_to_faults=ctrl.lost_to_faults,
            unreachable_pairs=ctrl.unreachable_pairs,
        )


@dataclass(frozen=True)
class ExperimentGrid:
    """Declarative sweep over :class:`ExperimentSpec` cells: the
    cartesian product of every axis, expanded in a stable documented
    order.

    Axes (in product order): ``mhk`` x ``patterns`` x (``loads`` for
    closed loops / ``rates`` for stream loops) x ``fault_models`` x
    ``seeds``.  Every other field — including ``replicas``, the
    per-cell Monte-Carlo count — is a scalar applied to each cell.
    ``fault_models`` sweeps fault universes: literal ``fixed`` sets (the
    paper's worst-case faults) or, say, several ``iid`` survival
    probabilities (a dependability curve); left empty, every cell is
    fault-free.  A stream grid with several sizes, rates and fault sets
    *is* a saturation surface, and
    :func:`repro.simulator.grid.run_grid` executes the whole
    thing as one sweep.

    >>> grid = ExperimentGrid(mhk=[(2, 4, 1)], loop="stream",
    ...                       rates=[1.0, 4.0],
    ...                       fault_models=[{"name": "fixed", "faults": []},
    ...                                     {"name": "fixed", "faults": [[0, 3]]}])
    >>> len(grid)
    4
    >>> [s.rate for s in grid.expand()]
    [1.0, 1.0, 4.0, 4.0]
    """

    #: The product axes; every other field is a per-cell scalar that
    #: :meth:`expand` copies onto each :class:`ExperimentSpec`.
    _AXES = ("mhk", "patterns", "loads", "rates", "fault_models", "seeds")

    mhk: tuple[tuple[int, int, int], ...]
    loop: str = "closed"
    patterns: tuple[str, ...] = ("uniform",)
    loads: tuple[int, ...] = (1000,)
    rates: tuple[float, ...] = ()
    fault_models: tuple[dict, ...] = ()
    replicas: int = 1
    seeds: tuple[int, ...] = (0,)
    controller: str = "reconfig"
    route_mode: str = "bfs"
    link_capacity: int = 1
    # closed-loop scalars
    batches: int = 1
    cycles_per_batch: int = 0
    max_cycles: int = 1_000_000
    # stream scalars
    source: str = "poisson"
    cycles: int = 2000
    warmup: int = 200
    window: int = 0
    mean_on: float = 20.0
    mean_off: float = 20.0

    def __post_init__(self):
        object.__setattr__(
            self, "mhk", tuple((int(m), int(h), int(k)) for m, h, k in self.mhk)
        )
        object.__setattr__(self, "patterns", tuple(self.patterns))
        object.__setattr__(self, "loads", tuple(int(p) for p in self.loads))
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        object.__setattr__(
            self,
            "fault_models",
            tuple(validate_fault_model(mdl) for mdl in self.fault_models),
        )
        object.__setattr__(self, "replicas", int(self.replicas))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.mhk:
            raise ParameterError("ExperimentGrid needs at least one (m, h, k)")
        if self.loop not in LOOPS:
            raise ParameterError(
                f"unknown loop kind {self.loop!r}; valid choices: "
                f"{', '.join(LOOPS)}"
            )
        if self.loop == "stream" and not self.rates:
            raise ParameterError(
                "a stream grid needs at least one offered rate (rates=[...])"
            )
        if self.loop == "closed" and self.rates:
            raise ParameterError(
                "rates is a stream-loop axis; closed grids sweep loads"
            )
        # expanding runs every cell through ExperimentSpec validation, so
        # bad names and cross-field mistakes raise at grid construction,
        # not mid-sweep out of a worker process
        self.expand()

    def _varying(self) -> tuple:
        return self.rates if self.loop == "stream" else self.loads

    def _fault_axis(self) -> tuple:
        """Each cell's ``fault_model``: the swept models, or ``None``
        (fault-free) when there are none."""
        return self.fault_models or (None,)

    def __len__(self) -> int:
        return (
            len(self.mhk) * len(self.patterns) * len(self._varying())
            * len(self._fault_axis()) * len(self.seeds)
        )

    def expand(self) -> list[ExperimentSpec]:
        """The grid's concrete :class:`ExperimentSpec` cells, in the
        documented product order (seeds vary fastest, sizes slowest)."""
        shared = {
            f.name: getattr(self, f.name)
            for f in fields(self) if f.name not in self._AXES
        }
        out = []
        for (m, h, k), pattern, var, model, seed in itertools.product(
            self.mhk, self.patterns, self._varying(), self._fault_axis(),
            self.seeds,
        ):
            load = {"rate": var} if self.loop == "stream" else {"packets": var}
            out.append(
                ExperimentSpec(
                    m=m, h=h, k=k, pattern=pattern, seed=seed,
                    fault_model=model, **load, **shared,
                )
            )
        return out

    def to_dict(self) -> dict:
        """JSON-friendly form (the ``repro run`` CLI round-trips grids
        through this)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "mhk":
                value = [list(t) for t in value]
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, spec: dict) -> "ExperimentGrid":
        """Rebuild from :meth:`to_dict` output (strict, like
        :meth:`ExperimentSpec.from_dict`)."""
        _check_keys(cls, spec, ("engine", "fault_sets", "shards"))
        return cls(**spec)

    def to_json(self, *, indent: int | None = None) -> str:
        """Exact JSON serialization — ``from_json(to_json(g)) == g``."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentGrid":
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """Stable content hash of the grid (canonical-JSON SHA-256),
        mirroring :meth:`ExperimentSpec.digest`."""
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()


def parse_run_payload(payload, *, origin: str = "request"):
    """Parse a run request — the ``repro run`` JSON shape — into
    ``(target, kind)``.

    Accepted shapes: a bare :class:`ExperimentSpec` field object,
    ``{"experiment": {...}}``, or ``{"grid": {...}}`` for an
    :class:`ExperimentGrid`.  This is the single front door shared by
    the CLI (``repro run <file>``) and the HTTP service (``POST
    /experiments``): both validate against the backend registries at
    construction time and reject a malformed payload with the exact
    :class:`~repro.errors.ParameterError` message before any worker is
    touched.  A value the field coercion cannot take (``"m": "two"``)
    is refused the same way, and so is a key the format no longer has
    (:data:`_REMOVED_KEYS`), with a message naming what replaces it.
    ``origin`` names the payload in error messages (the file path, or
    the request route).
    """
    if not isinstance(payload, dict):
        raise ParameterError(f"{origin}: expected a JSON object")
    try:
        for wrapper, cls in (("grid", ExperimentGrid), ("experiment", ExperimentSpec)):
            if wrapper in payload:
                # the wrapper form must wrap *only* — a field that drifted
                # up to the top level (a misplaced axis, a typo'd sibling)
                # would otherwise be dropped silently and the run would
                # use defaults
                extras = sorted(set(payload) - {wrapper})
                if extras:
                    raise ParameterError(
                        f"{origin}: unexpected keys {extras} next to "
                        f"{wrapper!r} — every field belongs inside the "
                        f"{wrapper!r} object"
                    )
                return cls.from_dict(payload[wrapper]), wrapper
        return ExperimentSpec.from_dict(payload), "experiment"
    except ParameterError:
        raise
    except (TypeError, ValueError) as exc:
        # field coercion (int("two"), unpacking a short mhk triple)
        # raises plain TypeError/ValueError
        raise ParameterError(f"{origin}: malformed field value: {exc}") from None
