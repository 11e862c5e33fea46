"""Fault injection, fault universes, and the reconfiguration controller.

Wires the pieces together the way a real machine would: a
:class:`FaultScenario` schedules node failures (and repairs) at given
cycles; the :class:`ReconfigurationController` reacts by recomputing the
paper's monotone remap and re-issuing routes, so traffic injected after
the fault flows at full speed again.  A spare-less baseline controller
(:class:`DetourController`) reroutes inside the bare target graph instead,
exhibiting the degradation the paper's introduction warns about.

Concrete schedules are one *realization* of a **fault universe**: the
:data:`FAULT_MODELS` registry maps declarative model descriptions —
``{"name": "iid", "p": 0.9}`` and friends — to seeded generators that
draw a :class:`FaultScenario` from an RNG.  Four models ship:

* ``fixed`` — wraps a literal ``(cycle, node)`` schedule (plus optional
  repairs); realizes to exactly those events, the paper's worst-case
  fault sets.
* ``iid`` — the random node fault model of the dependability
  literature: every node fails independently with probability
  ``1 - p`` (``p`` is the survival probability), each failure's arrival
  cycle drawn uniformly over a window.
* ``burst`` — correlated regional failure: a uniformly drawn seed node
  plus its radius-``r`` graph neighborhood all fail, arrival cycles
  drawn within a window.
* ``churn`` — failures paired with scheduled repairs: nodes fail as in
  ``iid`` and return to service after a geometric downtime
  (``node_repair`` events), over one or more rounds — so the same node
  can fail, heal, and fail again, exercising the repair path and the
  detour baseline's per-epoch table compile hard.

Use :func:`validate_fault_model` to canonicalize a model mapping (raises
:class:`~repro.errors.ParameterError` on unknown names or bad
parameters) and :func:`realize_fault_model` to draw a scenario; the
experiment spec layer (:class:`repro.experiments.ExperimentSpec`) does
both, deriving each Monte-Carlo replica's RNG from
``(spec.seed, replica_index)`` so every realization is reproducible.

Fault timing is honest, and the same for both controllers: they share
one fault clock and one pair of workload drivers, so every scheduled
event fires at exactly the cycle it comes due — including in the middle
of draining a batch, where a failing node takes its queued packets down
with it (the dynamic-dependability regime).  The drivers do not advance
one cycle at a time to get there: both run the engine with
``sim.run(budget, until=<next event's cycle>)``, which processes exactly
the departures (and, in a stream, the timed arrivals) up to that cycle,
then fire the event.  ``run_workload`` does so per batch;
``run_stream`` per fault epoch, after injecting the epoch's arrivals
once with their cycles (``inject_routes(..., at=...)``).
``fault_log`` records the ``(cycle, node)`` pairs as they actually fired
(``repair_log`` likewise for repairs), so tests can pin the timeline.

Both controllers drive the one packet engine,
:class:`~repro.simulator.batch_engine.BatchEngine`; the conformance
suite holds their runs, mid-drain faults included, packet for packet to
the same controllers on the per-packet witness engine.  Parallelism
lives one level up: independent cells and the replica blocks of an
:class:`~repro.experiments.ExperimentSpec` fan out through
:func:`~repro.simulator.grid.run_grid`.  Each controller class has one
router, its block hook ``_block_routes``: a solo run calls it on a block
of one, and :func:`drain_block` on a block of replica controllers whose
faults all fire at cycle 0 (one lift through every φ, or one survivor
table per distinct fault set).  The drain alone joins the replicas into
one union machine, drains them side by side on one engine and returns
the union's records, each replica's rows exactly its own
``run_workload``'s.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.debruijn import debruijn
from repro.core.fault_tolerant import ft_debruijn
from repro.core.reconfiguration import Reconfigurator
from repro.errors import ParameterError, SimulationError
from repro.graphs.properties import bfs_distances
from repro.registry import Registry
from repro.routing.fault_routing import (
    lift_slot_table,
    lifted_routes_batch,
    survivor_route_table,
)
from repro.simulator.batch_engine import BatchEngine
from repro.simulator.metrics import PacketArrays, RunStats

__all__ = [
    "CONTROLLERS",
    "FAULT_MODELS",
    "FaultScenario",
    "ReconfigurationController",
    "DetourController",
    "drain_block",
    "realize_fault_model",
    "validate_fault_model",
]

#: Registry of fault-controller builders with the uniform signature
#: ``(m, h, k, *, link_capacity) -> controller``
#: — the experiment spec layer builds controllers through it, and a new
#: strategy (a different spare layout, an adaptive router) registers here
#: instead of growing another string switch.
CONTROLLERS = Registry("controller")

#: Registry of fault-universe generators: ``name -> realize(params, *,
#: n, cycles, rng, graph) -> FaultScenario``.  Each entry also carries a
#: ``normalize(params) -> params`` validator (attached by
#: :func:`_normalizes`) that canonicalizes JSON-shaped parameters and
#: raises :class:`~repro.errors.ParameterError` on bad ones — the spec
#: layer calls it at construction, so a typo'd model never reaches a
#: worker.  Registering a new universe is one decorated function.
FAULT_MODELS = Registry("fault model")


@dataclass
class FaultScenario:
    """A deterministic control-event schedule: ``(cycle, physical_node)``
    failure pairs in ``node_faults``, plus optional ``(cycle, node)``
    repair pairs in ``node_repairs`` returning failed nodes to service.
    """

    node_faults: list[tuple[int, int]] = field(default_factory=list)
    node_repairs: list[tuple[int, int]] = field(default_factory=list)

    def events(self) -> list[tuple[int, bool, int]]:
        """The schedule in firing order: ``(cycle, is_fault, node)``
        sorted by cycle.  Within a cycle, repairs fire before faults (so
        a churn realization can repair a node and re-fail it on the same
        cycle) and each kind keeps its list order.  The controllers fire
        events in this order, and the spec layer's spare-budget walk
        reads it.

        >>> FaultScenario([(5, 3), (2, 1)], [(5, 1)]).events()
        [(2, True, 1), (5, False, 1), (5, True, 3)]
        """
        events = [(int(c), False, int(v)) for c, v in self.node_repairs]
        events += [(int(c), True, int(v)) for c, v in self.node_faults]
        events.sort(key=lambda e: e[:2])  # stable: list order within a kind
        return events

    @property
    def fault_count(self) -> int:
        """Number of *distinct* nodes that ever fail (a churn schedule
        may fail the same node more than once — that still occupies one
        spare at a time, not two)."""
        return len({int(v) for _, v in self.node_faults})


# ---------------------------------------------------------------------------
# fault universes: declarative models realized into concrete scenarios
# ---------------------------------------------------------------------------

def _normalizes(normalize):
    """Attach a ``normalize(params) -> params`` validator to a registered
    fault-model realizer (decorator; compose under the registry entry)."""
    def deco(realize):
        realize.normalize = normalize
        return realize
    return deco


def _norm_pairs(name: str, key: str, value) -> list[list[int]]:
    """Canonicalize a ``[[cycle, node], ...]`` parameter (JSON-shaped)."""
    try:
        out = [[int(c), int(v)] for c, v in value]
    except (TypeError, ValueError):
        raise ParameterError(
            f"fault model {name!r}: {key} must be a list of "
            f"[cycle, node] pairs, got {value!r}"
        ) from None
    for c, _ in out:
        if c < 0:
            raise ParameterError(
                f"fault model {name!r}: {key} cycles must be >= 0, got {c}"
            )
    return out


def _norm_window(name: str, value) -> list[int]:
    """Canonicalize a ``[lo, hi)`` cycle window parameter."""
    try:
        lo, hi = (int(x) for x in value)
    except (TypeError, ValueError):
        raise ParameterError(
            f"fault model {name!r}: window must be a [lo, hi) cycle pair, "
            f"got {value!r}"
        ) from None
    if not 0 <= lo < hi:
        raise ParameterError(
            f"fault model {name!r}: window needs 0 <= lo < hi, "
            f"got [{lo}, {hi})"
        )
    return [lo, hi]


def _norm_probability(name: str, params: dict) -> float:
    if "p" not in params:
        raise ParameterError(
            f"fault model {name!r} requires a survival probability p"
        )
    p = float(params["p"])
    if not 0 < p <= 1:
        raise ParameterError(
            f"fault model {name!r}: survival probability needs "
            f"0 < p <= 1, got {p}"
        )
    return p


def _check_keys(name: str, params: dict, allowed: tuple[str, ...]) -> None:
    extra = sorted(set(params) - set(allowed))
    if extra:
        raise ParameterError(
            f"fault model {name!r} got unknown parameter(s) {extra}; "
            f"valid parameters: {sorted(allowed)}"
        )


def validate_fault_model(model) -> dict:
    """Canonicalize a fault-model mapping (``{"name": ..., **params}``).

    Validates the name against :data:`FAULT_MODELS` and the parameters
    against the model's own ``normalize`` hook, raising
    :class:`~repro.errors.ParameterError` with the valid choices on any
    mistake.  Returns the canonical JSON-shaped mapping (ints/floats
    coerced, pair lists normalized) — idempotent, so specs round-trip
    through JSON field-for-field.
    """
    if not isinstance(model, dict) or "name" not in model:
        raise ParameterError(
            f"fault_model must be a mapping with a 'name' key naming one "
            f"of: {', '.join(FAULT_MODELS.names())}; got {model!r}"
        )
    name = FAULT_MODELS.validate(model["name"])
    params = {k: model[k] for k in model if k != "name"}
    return {"name": name, **FAULT_MODELS.get(name).normalize(params)}


def realize_fault_model(model, *, n: int, cycles: int, rng, graph=None) -> FaultScenario:
    """Draw one concrete :class:`FaultScenario` from a fault universe.

    Parameters
    ----------
    model:
        The declarative description, e.g. ``{"name": "iid", "p": 0.9}``
        (validated through :func:`validate_fault_model` first).
    n:
        Physical node count of the *target* machine — models sample
        failures over ``[0, n)``.
    cycles:
        Default arrival window ``[0, cycles)`` for models whose
        parameters name no explicit ``window``.
    rng:
        A ``numpy.random.Generator``.  The realization is a pure
        function of ``(model, n, cycles, rng state)`` — seed it from
        ``(seed, replica_index)`` and every replica is reproducible.
    graph:
        The target :class:`~repro.graphs.static_graph.StaticGraph` (or a
        zero-argument callable building it) for models that sample
        neighborhoods (``burst``); ignored by the others.
    """
    model = validate_fault_model(model)
    params = {k: v for k, v in model.items() if k != "name"}
    return FAULT_MODELS.get(model["name"])(
        params, n=int(n), cycles=int(cycles), rng=rng, graph=graph
    )


def _norm_fixed(params: dict) -> dict:
    _check_keys("fixed", params, ("faults", "repairs"))
    out = {"faults": _norm_pairs("fixed", "faults", params.get("faults", []))}
    if "repairs" in params:
        out["repairs"] = _norm_pairs("fixed", "repairs", params["repairs"])
    return out


@FAULT_MODELS.register("fixed")
@_normalizes(_norm_fixed)
def _realize_fixed(params, *, n, cycles, rng, graph=None) -> FaultScenario:
    """A literal schedule: realizes to exactly the given ``faults`` (and
    optional ``repairs``) pairs, independent of the RNG."""
    return FaultScenario(
        [(int(c), int(v)) for c, v in params["faults"]],
        [(int(c), int(v)) for c, v in params.get("repairs", [])],
    )


def _norm_iid(params: dict) -> dict:
    _check_keys("iid", params, ("p", "window"))
    out = {"p": _norm_probability("iid", params)}
    if "window" in params:
        out["window"] = _norm_window("iid", params["window"])
    return out


@FAULT_MODELS.register("iid")
@_normalizes(_norm_iid)
def _realize_iid(params, *, n, cycles, rng, graph=None) -> FaultScenario:
    """Independent random node faults: each of the ``n`` nodes fails
    with probability ``1 - p`` (``p`` is its survival probability), its
    arrival cycle drawn uniformly over ``window`` (default
    ``[0, cycles)``; use ``[0, 1]`` for a static fault universe present
    from cycle 0)."""
    lo, hi = params.get("window", (0, max(1, int(cycles))))
    failed = np.flatnonzero(rng.random(n) >= params["p"])
    arrive = rng.integers(lo, hi, size=failed.size)
    return FaultScenario(
        sorted((int(c), int(v)) for c, v in zip(arrive, failed))
    )


def _norm_burst(params: dict) -> dict:
    _check_keys("burst", params, ("radius", "window"))
    if "radius" not in params:
        raise ParameterError("fault model 'burst' requires a radius")
    radius = int(params["radius"])
    if radius < 0:
        raise ParameterError(
            f"fault model 'burst': radius must be >= 0, got {radius}"
        )
    out = {"radius": radius}
    if "window" in params:
        out["window"] = _norm_window("burst", params["window"])
    return out


@FAULT_MODELS.register("burst")
@_normalizes(_norm_burst)
def _realize_burst(params, *, n, cycles, rng, graph=None) -> FaultScenario:
    """Correlated regional failure: one uniformly drawn seed node plus
    every node within ``radius`` hops of it in the target graph fails,
    arrival cycles drawn uniformly over ``window`` (default
    ``[0, cycles)``) — the whole neighborhood goes down inside one
    bounded time span."""
    if graph is None:
        raise ParameterError(
            "fault model 'burst' needs the target graph to sample a "
            "neighborhood (pass graph= to realize_fault_model)"
        )
    g = graph() if callable(graph) else graph
    lo, hi = params.get("window", (0, max(1, int(cycles))))
    dist = bfs_distances(g, int(rng.integers(n)))
    nodes = np.flatnonzero((dist >= 0) & (dist <= params["radius"]))
    arrive = rng.integers(lo, hi, size=nodes.size)
    return FaultScenario(
        sorted((int(c), int(v)) for c, v in zip(arrive, nodes))
    )


def _norm_churn(params: dict) -> dict:
    _check_keys("churn", params, ("p", "mean_downtime", "rounds", "window"))
    out = {"p": _norm_probability("churn", params)}
    if "mean_downtime" in params:
        mean_downtime = float(params["mean_downtime"])
        if not mean_downtime >= 1:
            raise ParameterError(
                f"fault model 'churn': mean_downtime must be >= 1 cycle, "
                f"got {mean_downtime}"
            )
        out["mean_downtime"] = mean_downtime
    if "rounds" in params:
        rounds = int(params["rounds"])
        if rounds < 1:
            raise ParameterError(
                f"fault model 'churn': rounds must be >= 1, got {rounds}"
            )
        out["rounds"] = rounds
    if "window" in params:
        out["window"] = _norm_window("churn", params["window"])
    return out


@FAULT_MODELS.register("churn")
@_normalizes(_norm_churn)
def _realize_churn(params, *, n, cycles, rng, graph=None) -> FaultScenario:
    """Failure/repair churn: the window splits into ``rounds`` equal
    spans; in each span every node fails independently with probability
    ``1 - p`` and returns to service after a geometric downtime with
    mean ``mean_downtime`` cycles (capped at the span's end, so a node's
    repair always lands at or before its next possible failure — within
    a cycle, repairs fire first).  With ``rounds > 1`` the same node can
    fail, heal, and fail again, so every repair reopens a routing epoch
    and recompiles the detour baseline's survivor table."""
    p = params["p"]
    mean_downtime = params.get("mean_downtime", 20.0)
    rounds = params.get("rounds", 1)
    lo, hi = params.get("window", (0, max(1, int(cycles))))
    span = hi - lo
    faults: list[tuple[int, int]] = []
    repairs: list[tuple[int, int]] = []
    for r in range(rounds):
        rlo = lo + (span * r) // rounds
        rhi = lo + (span * (r + 1)) // rounds
        if rhi <= rlo:
            continue
        failed = np.flatnonzero(rng.random(n) >= p)
        fall = rng.integers(rlo, rhi, size=failed.size)
        downtime = rng.geometric(1.0 / mean_downtime, size=failed.size)
        heal = np.minimum(fall + downtime, rhi)
        faults.extend(sorted((int(c), int(v)) for c, v in zip(fall, failed)))
        repairs.extend(sorted((int(c), int(v)) for c, v in zip(heal, failed)))
    return FaultScenario(faults, repairs)


class _FaultController:
    """The fault clock and the workload drivers both controllers share.

    A subclass sets ``target`` (the machine its (src, dst) pairs
    address), hands its physical graph to ``__init__`` (the
    :class:`BatchEngine` over it, ``sim``, is built on first use) and
    supplies ``faults`` (the nodes down now), :meth:`fail_node` /
    :meth:`repair_node` (a failure adds the packets it drops to
    ``lost_to_faults``) and its one router, the static block hook
    ``_block_routes(controllers, pairs)``, which returns each
    controller's ``(flat, offsets, kept, hop)`` for ``pairs`` in the
    machine's own node and slot ids: ``hop`` holds each route
    position's CSR slot, the engine's queue id (``-1`` at route ends),
    and ``kept`` the indices of the pairs routed.  A solo run routes
    through :meth:`_route`, the hook on a block of one.  The engine
    checks every slot against its hop, so a route off the graph is an
    error from any router.  Everything else — scheduling, firing, the
    logs, refusal accounting, the closed-loop drain and the open-loop
    stream — lives here once.
    """

    def __init__(self, graph, link_capacity: int):
        self.graph = graph
        self.link_capacity = int(link_capacity)
        self._sim: BatchEngine | None = None
        self._pending: deque[tuple[int, bool, int]] = deque()
        self._fired_at = 0  # the cycle events last fired at
        self.lost_to_faults = 0
        self.unreachable_pairs = 0
        self.fault_log: list[tuple[int, int]] = []
        self.repair_log: list[tuple[int, int]] = []

    @property
    def sim(self) -> BatchEngine:
        """The controller's packet engine, built on first use with every
        node failed so far (:attr:`faults`) already down.  A fault fired
        before then drops nothing, since no packet exists yet, so a block
        drain (:func:`drain_block`) fires each replica's cycle-0 events
        without ever building the replica's own engine."""
        if self._sim is None:
            sim = BatchEngine(self.graph, self.link_capacity)
            sim.disable_nodes(sorted(self.faults))
            self._sim = sim
        return self._sim

    @sim.setter
    def sim(self, engine) -> None:
        self._sim = engine

    def _disable(self, node: int) -> int:
        """Take ``node`` down on the engine and return the packets it
        drops; before the engine is built only the id is checked."""
        if self._sim is not None:
            return self._sim.disable_node(node)
        if not 0 <= node < self.graph.node_count:
            raise SimulationError(
                f"cannot disable node {node}: not a node of the graph "
                f"[0, {self.graph.node_count})"
            )
        return 0

    def _enable(self, node: int) -> None:
        """Bring ``node`` back on the engine, if it is built yet."""
        if self._sim is not None:
            self._sim.enable_node(node)

    def schedule(self, scenario: FaultScenario) -> None:
        """Add a :class:`FaultScenario`'s events to the schedule
        (cumulative: scheduling twice fires every event twice).  The
        merge is stable by cycle, so within a cycle the events of earlier
        schedules fire first.  An event before the cycle events last
        fired at raises :class:`SimulationError`."""
        events = scenario.events()
        if events and events[0][0] < self._fired_at:
            raise SimulationError(
                f"cannot schedule an event at cycle {events[0][0]}: events "
                f"already fired at cycle {self._fired_at}"
            )
        self._pending = deque(sorted([*self._pending, *events], key=lambda e: e[0]))

    def next_event_cycle(self) -> int | None:
        """Cycle of the next scheduled event, or ``None``."""
        return self._pending[0][0] if self._pending else None

    def fire_due_events(self) -> int:
        """Fire every scheduled event due at or before the simulator's
        current cycle, and log it at that cycle; returns the count fired.
        The workload drivers — :meth:`run_workload` and
        :func:`repro.simulator.streaming.run_stream` — stop the clock on
        each event's cycle and call this there, so faults land exactly
        on time.  A clock moved back before the cycle events last fired
        at raises :class:`SimulationError`.  Each event leaves the
        schedule before it fires, so one that raises (a
        :class:`~repro.core.reconfiguration.FaultSetError` past the spare
        budget) is consumed all the same.  Before the engine is built its
        clock reads 0."""
        due = 0 if self._sim is None else int(self._sim.cycle)
        if due < self._fired_at:
            raise SimulationError(
                f"cannot fire events at cycle {due}: events already fired "
                f"at cycle {self._fired_at}"
            )
        self._fired_at = due
        pending, fired = self._pending, 0
        while pending and pending[0][0] <= due:
            _, is_fault, node = pending.popleft()
            if is_fault:
                self.fail_node(node)
                self.fault_log.append((due, node))
            else:
                self.repair_node(node)
                self.repair_log.append((due, node))
            fired += 1
        return fired

    def _route(self, pairs: np.ndarray):
        """Route ``pairs`` alone: the class's block hook on a block of
        one, whose arrays go to the engine as they are."""
        return self._block_routes([self], pairs)[0]

    def run_workload(self, batches: list[np.ndarray], *, cycles_per_batch: int = 0,
                     max_cycles: int = 1_000_000) -> RunStats:
        """Route and inject each batch of (src, dst) pairs, draining
        between batches and firing each scheduled event at exactly the
        cycle it comes due — before the injection it precedes, or
        mid-drain, never a batch late.  Pairs the route hook refuses are
        counted in ``unreachable_pairs``.

        ``cycles_per_batch`` > 0 inserts that many idle cycles *before*
        each batch after the first, so the documented fixed timeline is
        honored even when batches drain quickly.  Events that fall in an
        idle gap fire inside the gap; faults that fall mid-drain drop the
        packets queued in the failed router (counted in
        ``lost_to_faults``).  Events scheduled beyond the last simulated
        cycle never fire.

        A drain calls ``sim.run(budget, until=<next event's cycle>)``
        once per event that falls inside it, plus once for the rest, so
        the batch engine's calendar jumps and coalesced windows serve the
        whole drain; ``max_cycles`` bounds each batch's drain as a
        per-cycle loop would.
        """
        sim = self.sim
        for i, batch in enumerate(batches):
            if i and cycles_per_batch:
                # nothing is in flight in the gap: jump the clock to each
                # event due inside it, then to the gap's end
                end = sim.cycle + cycles_per_batch
                while (due := self.next_event_cycle()) is not None and due <= end:
                    sim.cycle = due
                    self.fire_due_events()
                sim.cycle = end
            self.fire_due_events()
            pairs = np.asarray(batch, dtype=np.int64).reshape(-1, 2)
            flat, offsets, kept, hop = self._route(pairs)
            self.unreachable_pairs += pairs.shape[0] - kept.size
            sim.inject_routes(flat, offsets, hop=hop)
            deadline = sim.cycle + max_cycles
            while sim.in_flight:
                # drain up to the next event's cycle, then fire it there
                try:
                    sim.run(deadline - sim.cycle, until=self.next_event_cycle())
                except SimulationError:  # report the caller's budget
                    raise SimulationError(
                        f"simulation did not drain within {max_cycles} cycles"
                    ) from None
                self.fire_due_events()
        self.fire_due_events()
        return sim.stats()


def drain_block(controllers, pairs: np.ndarray, *, max_cycles: int = 1_000_000
                ) -> tuple[PacketArrays, np.ndarray, list[int]]:
    """Drain one closed-loop batch of ``pairs`` on every controller of
    ``controllers`` as one *block*: ``R`` copies of the machine joined
    into one block-diagonal graph
    (:meth:`~repro.graphs.static_graph.StaticGraph.block_union`) and
    drained on one :class:`BatchEngine`.  Returns ``(records, ends,
    cycles)``: the union engine's packet records, whose rows
    ``ends[r]:ends[r + 1]`` are replica ``r``'s, and each replica's
    ``cycles``.  Replica ``r``'s rows and cycles are bit-identical to
    its own :meth:`~_FaultController.run_workload` over ``[pairs]``.

    Every controller must be fresh, of one kind and machine, with every
    scheduled event due at cycle 0.  Each fires its events through its
    own :meth:`~_FaultController.fire_due_events`, in its own order (so
    φ, ``fault_log`` and any
    :class:`~repro.core.reconfiguration.FaultSetError` are its own), and
    builds no engine of its own: no packet exists yet, so a fault drops
    nothing.  The controllers' route hook ``_block_routes`` routes the
    whole block in one call, in the machine's own ids, doing once what
    is the same for every replica: the reconfiguration arm lifts
    ``pairs`` through the stack of φs from one window pass and one slot
    search; the detour arm compiles and extracts one survivor table per
    distinct fault set and drops it once its routes are out.  Each
    replica's refusals are charged to its ``unreachable_pairs``.  Only
    here do routes meet the union: replica ``r``'s nodes shift by
    ``r * n`` and its CSR slots by ``r * s`` as they are concatenated,
    and the union's one engine disables every replica's dead nodes in
    one call.  Replicas share no queue, and each one's joiners reach
    the union's service order in their solo order, so every departure
    is its solo departure.  With every fault fired before injection no
    packet can drop, so a replica's solo clock ends on its last
    delivery (0 without one): that is its ``cycles``.
    """
    first = controllers[0]
    for ctrl in controllers:
        ctrl.fire_due_events()
        if ctrl.next_event_cycle() is not None:
            raise SimulationError(
                "a block drain needs every scheduled event at cycle 0"
            )
    n, s = first.graph.node_count, first.graph.directed_edge_keys.size
    routes = first._block_routes(controllers, pairs)
    flat = np.empty(sum(route[0].size for route in routes), dtype=np.int64)
    hop = np.empty_like(flat)
    lens, dead, at = [], [], 0
    for r, (ctrl, (f, offsets, kept, h)) in enumerate(zip(controllers, routes)):
        # a machine-death outcome would enter here per replica: a dead
        # replica injects nothing into its block
        ctrl.unreachable_pairs += pairs.shape[0] - kept.size
        np.add(f, r * n, out=flat[at: at + f.size])
        np.add(h, r * s, out=hop[at: at + f.size])
        at += f.size
        lens.append(np.diff(offsets))
        dead.extend(v + r * n for v in ctrl.faults)
    ends = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum([x.size for x in lens], out=ends[1:])
    offsets = np.zeros(ends[-1] + 1, dtype=np.int64)
    np.cumsum(np.concatenate(lens), out=offsets[1:])
    hop[offsets[1:] - 1] = -1  # the shift moved the route ends
    sim = BatchEngine(first.graph.block_union(len(controllers)), first.link_capacity)
    sim.disable_nodes(dead)
    sim.inject_routes(flat, offsets, hop=hop)
    sim.run(max_cycles)
    records = sim.packet_records()
    cycles = [int(records.delivered_at[lo:hi].max(initial=0))
              for lo, hi in zip(ends[:-1], ends[1:])]
    return records, ends, cycles


class ReconfigurationController(_FaultController):
    """The paper's machine: an ``B^k_{m,h}`` interconnect plus the monotone
    remap.  Messages address *logical* target nodes; the controller routes
    them on the intact logical de Bruijn graph and lifts through φ.

    Usage: :meth:`run_workload` drives batches of logical (src, dst) pairs
    on the true cycle timeline, firing scheduled faults at exactly the
    cycle they come due.

    Parameters
    ----------
    m, h, k:
        Construction parameters of the underlying ``B^k_{m,h}``.
    link_capacity:
        Packets one directed link may move per cycle.
    """

    def __init__(self, m: int, h: int, k: int, *, link_capacity: int = 1):
        self.m, self.h, self.k = int(m), int(h), int(k)
        self.target = debruijn(m, h)
        self.ft = ft_debruijn(m, h, k)
        self.rec = Reconfigurator(self.ft.node_count, self.target.node_count)
        super().__init__(self.ft, link_capacity)

    # bound in each class's own namespace: perfbench/layers.py patches
    # these per class
    fire_due_events = _FaultController.fire_due_events
    run_workload = _FaultController.run_workload

    @property
    def faults(self) -> tuple[int, ...]:
        """The physical nodes down now (the reconfigurator's fault set)."""
        return self.rec.faults

    def fail_node(self, node: int) -> None:
        """Kill a physical processor: the reconfigurator remaps its
        logical node onto a spare (raising
        :class:`~repro.core.reconfiguration.FaultSetError` past ``k``
        concurrent faults), and packets queued in the failed router drop
        (counted in ``lost_to_faults``)."""
        node = int(node)
        self.rec.fail_node(node)
        self.lost_to_faults += self._disable(node)

    def repair_node(self, node: int) -> None:
        """A repaired node rejoins service: the reconfigurator reclaims
        its spare and the engine accepts its traffic again, so later
        injections re-lift through the new φ."""
        node = int(node)
        self.rec.repair_node(node)
        self._enable(node)

    @staticmethod
    def _block_routes(controllers, pairs: np.ndarray):
        """The route hook: every logical pair's shift-register route
        lifted through each controller's live φ, with each hop's
        physical CSR slot — every pair is routable.  One
        :func:`~repro.routing.fault_routing.lift_slot_table` search finds
        the slots of the whole stack of φs, and one
        :func:`~repro.routing.fault_routing.lifted_routes_batch` lifts
        the shared ``pairs`` through all of them from one window pass.
        Returns each controller's ``(flat, offsets, kept, hop)``, rows of
        the stacked lift.  The engine checks every slot against its hop:
        a lifted hop off the graph would break Theorems 1/2."""
        first = controllers[0]
        phis = np.stack([c.rec.phi() for c in controllers])
        slots = lift_slot_table(first.ft, first.m, phis)
        flat, offsets, hop = lifted_routes_batch(
            first.m, first.h, phis, pairs[:, 0], pairs[:, 1], slots
        )
        kept = np.arange(pairs.shape[0])
        return [(flat[r], offsets, kept, hop[r]) for r in range(len(controllers))]


class DetourController(_FaultController):
    """The spare-less baseline: the bare target graph with survivor-graph
    detours.

    After faults, surviving nodes route around dead ones; logical nodes
    hosted on dead processors simply cannot send or receive (counted in
    ``unreachable_pairs``) — the §I degradation mode.

    Each routed batch compiles a :class:`~repro.routing.tables.RouteTable`
    of the current fault set
    (:func:`repro.routing.fault_routing.survivor_route_table`), extracts
    its routes vectorized and drops the table.  Each route is the shortest
    survivor path whose CSR slot ranks are lexicographically smallest,
    which is the path a per-pair BFS in the survivor graph returns: the
    conformance suite (``tests/conformance/``) checks the two route for
    route and pins the outputs with goldens.

    Faults arrive two ways: :meth:`fail_node` kills a node immediately,
    and :meth:`schedule` queues a :class:`FaultScenario` on the fault
    clock both controllers share, so the workload drivers fire each
    event on exactly its cycle — mid-drain and inside idle gaps in
    :meth:`run_workload`, mid-stream in
    :func:`repro.simulator.streaming.run_stream` — and the next pairs
    routed see the new fault epoch.
    """

    def __init__(self, m: int, h: int, *, link_capacity: int = 1):
        self.m, self.h = int(m), int(h)
        self.target = debruijn(m, h)
        super().__init__(self.target, link_capacity)
        self.faults: set[int] = set()

    # bound in each class's own namespace: perfbench/layers.py patches
    # these per class
    fire_due_events = _FaultController.fire_due_events
    run_workload = _FaultController.run_workload

    def repair_node(self, node: int) -> None:
        """Return a failed node to service: survivors stop detouring
        around it and it can send/receive again from the next routed
        batch on."""
        node = int(node)
        if node not in self.faults:
            raise SimulationError(
                f"cannot repair node {node}: it is not faulty"
            )
        self._enable(node)
        self.faults.discard(node)

    def fail_node(self, node: int) -> None:
        """Kill a physical node: survivors detour around it from now on;
        packets already queued on its links drop (counted in
        ``lost_to_faults``).

        The engine validates the node id first — a rejected id must not
        leak into ``faults``, where it would poison every later routing
        batch."""
        node = int(node)
        self.lost_to_faults += self._disable(node)
        self.faults.add(node)

    @staticmethod
    def _block_routes(controllers, pairs: np.ndarray):
        """The route hook: detour routes for ``pairs`` under each
        controller's current fault set.  The controllers are grouped by
        fault set, and each distinct set's survivor table is compiled
        and extracted once
        (:meth:`~repro.routing.tables.RouteTable.routes_batch_masked`)
        and dropped as soon as its routes are out; every controller with
        that set takes those routes.  Returns each controller's ``(flat,
        offsets, kept, hop)``: ``kept`` the indices of the pairs that
        are routable.  The survivor table encodes endpoint liveness too
        (a faulty node's diagonal holds the rank sentinel), so one
        masked extraction decides admission and emits every route.
        Unreachable pairs (faulty endpoint or disconnected survivors)
        are skipped, not counted: the drivers charge them to
        ``unreachable_pairs`` — the closed loop at injection, the stream
        once each refusal's arrival cycle has passed."""
        routes = {}
        for key in dict.fromkeys(frozenset(c.faults) for c in controllers):
            routes[key] = survivor_route_table(
                controllers[0].target, key
            ).routes_batch_masked(pairs[:, 0], pairs[:, 1])
        return [routes[frozenset(c.faults)] for c in controllers]


# ---------------------------------------------------------------------------
# registry entries: controller builders
# ---------------------------------------------------------------------------

@CONTROLLERS.register("reconfig")
def _build_reconfig(m, h, k, *, link_capacity=1):
    """The paper's machine: ``B^k_{m,h}`` + monotone remap."""
    return ReconfigurationController(m, h, k, link_capacity=link_capacity)


@CONTROLLERS.register("detour")
def _build_detour(m, h, k, *, link_capacity=1):
    """The spare-less baseline on the bare target graph (``k`` does not
    apply — there are no spares to configure)."""
    return DetourController(m, h, link_capacity=link_capacity)
