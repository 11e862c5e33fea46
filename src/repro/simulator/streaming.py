"""Open-loop streaming simulation: sustained load, saturation curves.

This module closes the loop between the arrival processes in
:mod:`repro.simulator.sources` and the simulation engines: traffic is
injected *per cycle* while earlier packets are still in flight, so the
network is observed under sustained pressure instead of draining closed
batches.  That unlocks the measurements the closed-loop drivers cannot
express — delivered throughput vs offered load, queue growth past the
saturation point, steady-state latency — which is how the dependability
literature around the paper evaluates interconnects.

Entry points
------------
:func:`run_stream`
    Drive one fault controller open-loop from a seeded source for a
    fixed horizon, with warmup/measurement-window accounting.
:func:`find_saturation`
    Sweep a rate ladder of one stream
    :class:`~repro.experiments.ExperimentSpec`, bracket the saturation
    point, and bisect it — the producer of offered-load vs
    delivered-throughput curves (CLI: ``python -m repro run spec.json
    --rates ...``).

A stream spec at many rates without the bisection is one
:func:`~repro.simulator.grid.run_grid` call over
``[spec.with_rate(r) for r in rates]``.

How the hot path stays fast
---------------------------
The source's arrival calendar is structure-of-arrays: one sorted
``times`` array plus one ``(total, 2)`` pairs array per horizon.  Routes
depend only on the fault state, and only scheduled events change it, so
the driver is the same drain as the closed loop's ``run_workload``.
Per fault epoch it routes the arrivals before the next scheduled event
in one vectorized batch, injects them once with their arrival cycles
(``inject_routes(..., at=times)``), lets ``sim.run(until=<next event or
horizon>)`` carry them in and move the traffic, and fires the event on
its cycle.  Every arrival is routed and
validated exactly once, and no Python loop runs per cycle: the batch
engine joins each cycle's arrivals in the step to that cycle and jumps
the clock over idle ones.

Exactness contract
------------------
For the same controller parameters and the same seeded source, the
batch engine and the conformance suite's per-packet witness engine
produce bit-identical packet records — identical delivery cycles, drop
decisions, and fault logs.  The
per-cycle reference order is: **fire due events, inject due arrivals,
step** — and the epoch drain is observationally identical to that
loop: an arrival pending for cycle ``c`` joins its first queue behind
the packets the step to ``c`` moved (``tests/test_streaming.py`` pins
this with goldens, and ``per_cycle_stream`` in
``tests/conformance/harness.py`` is the one-cycle-at-a-time witness).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ParameterError
from repro.simulator.metrics import StreamStats, stream_summary
from repro.simulator.grid import ExperimentResult, run_grid
from repro.simulator.sources import TrafficSource

__all__ = [
    "run_stream",
    "SaturationResult",
    "find_saturation",
]


def run_stream(
    ctrl,
    source: TrafficSource,
    *,
    cycles: int,
    warmup: int = 0,
    window: int = 0,
) -> StreamStats:
    """Drive a fault controller open-loop for ``cycles`` cycles.

    Parameters
    ----------
    ctrl:
        A :class:`~repro.simulator.faults.ReconfigurationController` or
        :class:`~repro.simulator.faults.DetourController` on either
        engine.
    source:
        The arrival process; ``source.n`` must match the controller's
        logical node count.  The source is consulted once
        (:meth:`~repro.simulator.sources.TrafficSource.schedule`), so
        the whole run is a pure function of (controller state, source).
    cycles:
        Injection horizon.  The run simulates exactly this many cycles
        and stops — in-flight traffic stays in flight (open loop), it is
        *not* drained.
    warmup:
        Leading cycles excluded from the measured rates (transient
        suppression).  Must satisfy ``0 <= warmup < cycles``.
    window:
        When > 0, attach a per-window
        :class:`~repro.simulator.metrics.WindowSeries` at this
        granularity.

    Returns the run's :class:`~repro.simulator.metrics.StreamStats`.

    Per-cycle semantics (the cross-engine contract): at each cycle the
    controller first fires scheduled fault events due that cycle, then
    injects that cycle's arrivals (routes lifted through the *current*
    φ), then the engine steps one cycle.  The driver gets there one
    fault epoch at a time: it fires the events due at the epoch's first
    cycle, routes every arrival before the next event once, injects them
    with their arrival cycles, and runs the engine up to that event.
    Faults therefore take down the packets queued in the failed router
    mid-stream, exactly as in
    :meth:`~repro.simulator.faults.ReconfigurationController.run_workload`.
    Pairs the route hook refuses (the detour baseline's dead endpoints)
    are charged to ``unreachable_pairs`` and counted as unadmitted.
    ``node_repair`` events (churn universes) ride the same clock: a
    repair starts a new fault epoch like a fault does, so its arrivals
    are routed through the healed machine — on the detour baseline
    every fault epoch's arrivals are routed through a survivor table
    compiled for them and dropped before the engine runs.
    """
    if cycles < 1:
        raise ParameterError("run_stream needs cycles >= 1")
    if not 0 <= warmup < cycles:
        raise ParameterError("run_stream needs 0 <= warmup < cycles")
    sim = ctrl.sim
    target_n = ctrl.target.node_count
    if source.n != target_n:
        raise ParameterError(
            f"source addresses n={source.n} nodes but the machine has "
            f"{target_n} logical nodes"
        )

    t0 = int(sim.cycle)
    t_end = t0 + int(cycles)
    rel_times, pairs = source.schedule(int(cycles))
    times = rel_times + t0
    refused: list[np.ndarray] = []   # arrival cycles of refused pairs

    i = 0
    while sim.cycle < t_end:
        # one fault epoch: fire what is due now, then route, inject and
        # run every arrival before the next event (or the horizon)
        ctrl.fire_due_events()
        due = ctrl.next_event_cycle()
        stop = t_end if due is None else min(due, t_end)
        j = int(np.searchsorted(times, stop, side="left"))
        at = times[i:j]
        flat, offsets, kept, hop = ctrl._route(pairs[i:j])
        if kept.size < at.size:
            lost = np.ones(at.size, dtype=bool)
            lost[kept] = False
            refused.append(at[lost])
            ctrl.unreachable_pairs += at.size - kept.size
            at = at[kept]
        sim.inject_routes(flat, offsets, at=at, hop=hop)
        del flat, offsets, kept, at, hop  # copied by the engine: free them for the run
        sim.run(stop - sim.cycle, until=stop)
        sim.cycle = stop  # the calendar may have emptied earlier
        i = j

    return stream_summary(
        sim.packet_records(), start=t0, cycles=cycles, warmup=warmup,
        window=window,
        unadmitted_times=np.concatenate(refused) if refused else None,
    )


# ---------------------------------------------------------------------------
# saturation search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SaturationResult:
    """Outcome of :func:`find_saturation` for one machine/fault scenario.

    ``saturation_rate`` is the estimated maximum *stable* offered load in
    packets per cycle: the midpoint of the final bisection bracket
    ``[stable_rate, unstable_rate]``.  The bracket anchors on the ladder's
    *first* threshold crossing, so ``stable_rate < unstable_rate`` always
    holds when ``bracketed`` — a noisy stable rung above the first
    unstable one does not widen it.  ``bracketed`` is False in exactly
    two shapes: every ladder rung stable (``unstable_rate = inf``; the
    estimate is a lower bound) or no stable rung below the first unstable
    one (``stable_rate = 0``; upper bound).  ``points`` holds every
    evaluated point, sorted by offered rate — the curve to plot.
    ``workers`` records the pool size the ladder phase resolved to
    (bisection probes run inline), so published curves carry their
    provenance.
    """

    saturation_rate: float
    stable_rate: float
    unstable_rate: float
    threshold: float
    bracketed: bool
    points: tuple[ExperimentResult, ...]
    workers: int = 0

    def curve(self) -> list[dict]:
        """The offered-load vs delivered-throughput curve as rows: each
        point's :meth:`~repro.simulator.grid.ExperimentResult.measures`."""
        return [p.measures() for p in self.points]


def _bracket_first_crossing(
    ladder: Sequence[ExperimentResult], threshold: float
) -> tuple[float, float, bool, float]:
    """Bracket the saturation point on a rate-sorted ladder.

    Returns ``(lo, hi, bracketed, saturation)`` anchored on the ladder's
    first unstable rung: ``lo`` is the highest stable rate *below* it
    (noisy stable rungs above the crossing are ignored), ``hi`` the
    first unstable rate.  When the ladder never crosses the threshold —
    all stable, or unstable from the first rung — ``bracketed`` is False
    and ``saturation`` is the corresponding lower/upper bound.
    """
    first_unstable = next(
        (p for p in ladder if not p.stable(threshold)), None
    )
    if first_unstable is None:
        lo = ladder[-1].spec.rate
        return lo, float("inf"), False, lo  # never saturated: lower bound
    hi = first_unstable.spec.rate
    stable_below = [
        p.spec.rate
        for p in ladder
        if p.spec.rate < hi and p.stable(threshold)
    ]
    if not stable_below:
        return 0.0, hi, False, hi  # saturated from the start: upper bound
    return max(stable_below), hi, True, 0.5 * (max(stable_below) + hi)


def find_saturation(
    base,
    rates,
    *,
    bisect: int = 5,
    threshold: float = 0.95,
    workers: int | None = None,
    pool=None,
) -> SaturationResult:
    """Locate the saturation point of one machine/fault scenario.

    ``base`` is a stream :class:`~repro.experiments.ExperimentSpec`;
    anything else raises :class:`~repro.errors.ParameterError`.  Phase 1
    evaluates the ``rates`` ladder in parallel (the coarse curve).
    Phase 2 brackets the ladder's *first* threshold crossing (see
    :func:`_bracket_first_crossing`) and bisects it ``bisect`` times
    (sequential — each probe informs the next).  A point is *stable*
    when delivered/offered over its measurement window is at or above
    ``threshold``.  The ratio need not collapse past saturation (when
    only the packets crossing the hottest links back up, it stays high),
    so a rung whose backlog grows can still pass.

    Returns a :class:`SaturationResult`; all evaluated points (ladder +
    bisection probes) appear in ``points``.

    ``pool`` borrows a warm :class:`~repro.simulator.pool.WorkerPool`
    for the ladder phase (bisection probes always run inline — they are
    sequential by nature).
    """
    from repro.experiments.spec import ExperimentSpec

    if not 0 < threshold <= 1:
        raise ParameterError("threshold must be in (0, 1]")
    if not isinstance(base, ExperimentSpec) or base.loop != "stream":
        raise ParameterError(
            "find_saturation needs a stream experiment: pass "
            "ExperimentSpec(loop='stream', ...)"
        )
    rates = sorted(float(r) for r in rates)
    if not rates:
        raise ParameterError("find_saturation needs at least one rate")
    ladder = run_grid(
        [base.with_rate(r) for r in rates], workers=workers, pool=pool
    )
    points = list(ladder.results)

    lo, hi, bracketed, saturation = _bracket_first_crossing(points, threshold)
    if bracketed:
        for _ in range(max(0, int(bisect))):
            mid = 0.5 * (lo + hi)
            point = base.with_rate(mid).run()
            points.append(point)
            if point.stable(threshold):
                lo = mid
            else:
                hi = mid
        saturation = 0.5 * (lo + hi)

    points.sort(key=lambda p: p.spec.rate)
    return SaturationResult(
        saturation_rate=float(saturation),
        stable_rate=float(lo),
        unstable_rate=float(hi),
        threshold=float(threshold),
        bracketed=bracketed,
        points=tuple(points),
        workers=ladder.workers,
    )
