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
    fixed horizon, with warmup/measurement-window accounting.  Also
    reachable as ``controller.run_stream(source, ...)``.
:func:`find_saturation`
    Sweep a rate ladder of one stream
    :class:`~repro.experiments.ExperimentSpec`, bracket the saturation
    point, and bisect it — the producer of offered-load vs
    delivered-throughput curves (CLI: ``python -m repro run spec.json
    --rates ...``).

A stream spec at many rates without the bisection is one
:func:`~repro.simulator.shard_driver.run_grid` call over
``[spec.with_rate(r) for r in rates]``.

How the hot path stays fast
---------------------------
The source's arrival calendar is structure-of-arrays: one sorted
``times`` array plus one ``(total, 2)`` pairs array per horizon.  Routes
depend only on the fault state, and only scheduled events change it, so
the driver routes one *segment* at a time — the arrivals before the next
scheduled event — in one vectorized batch: every arrival is routed
exactly once, and per-cycle injection is a slice of a pre-routed
``(flat, offsets)`` block handed straight to ``inject_routes``.  On the
:class:`~repro.simulator.batch_engine.BatchEngine` the driver never
iterates idle cycles: it jumps the clock between arrival cycles,
segment ends, scheduled fault events, and the engine's own
departure-slot calendar (:meth:`BatchEngine.next_departure_cycle`), so
total work stays O(hops traversed + arrival groups), matching the
closed-loop batch path.

Exactness contract
------------------
For the same controller parameters and the same seeded source, the
object and batch engines produce bit-identical packet records —
identical delivery cycles, drop decisions, and fault logs.  The
per-cycle reference order is: **fire due events, inject due arrivals,
step** — and the batch driver's clock-jumping is constructed to be
observationally identical to that loop (``tests/test_streaming.py``
pins this with goldens).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ParameterError
from repro.simulator.metrics import StreamStats, stream_summary
from repro.simulator.shard_driver import ExperimentResult, run_grid
from repro.simulator.sources import TrafficSource

__all__ = [
    "run_stream",
    "SaturationResult",
    "find_saturation",
]

_I64 = np.int64


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
    φ — arrivals are routed one segment between scheduled events at a
    time, so none is routed on a stale fault state), then the engine
    steps one cycle.  Faults therefore take down the packets
    queued in the failed router mid-stream, exactly as in
    :meth:`~repro.simulator.faults.ReconfigurationController.run_workload`.
    ``node_repair`` events (churn universes) ride the same clock: a
    repair bumps the controller's ``routing_epoch`` like a fault does,
    so the next segment is routed through the healed machine — under
    ``route_mode="table"`` every repair epoch compiles a fresh survivor
    table, one per distinct fault set.
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
    rel_times, pairs = source.schedule(int(cycles))
    times = rel_times + t0
    events = ctrl.events

    unadmitted: list[np.ndarray] = []   # finalized (epoch-closed) chunks
    _empty = np.zeros(0, dtype=_I64)

    def route_segment(i0: int):
        """Route pairs[i0:i1] under the current fault state, where i1 is
        the first arrival at or after the next scheduled event: routes
        depend only on the fault state and only events change it, so
        every arrival is routed once.  Returns the kept packets'
        injection cycles, their flattened routes, the arrival cycles of
        refused pairs (detour baseline) and i1.  The refused times stay
        *provisional* until their cycle passes, so only the driver knows
        when a refusal is final and charges ``unreachable_pairs``."""
        ne = events.peek_cycle()
        i1 = times.size if ne is None else int(
            np.searchsorted(times, ne, side="left")
        )
        seg = times[i0:i1]
        flat, offsets, kept = ctrl._route(pairs[i0:i1])
        if kept.size == seg.size:
            return seg, flat, offsets, _empty, i1
        keep_mask = np.zeros(seg.size, dtype=bool)
        keep_mask[kept] = True
        return seg[kept], flat, offsets, seg[~keep_mask], i1

    def finalize_unadmitted(before: int) -> np.ndarray:
        """Close out the current epoch's refusals with arrival cycles
        strictly before ``before`` (re-routing covers the rest)."""
        done = cur_un[cur_un < before]
        if done.size:
            unadmitted.append(done)
            ctrl.unreachable_pairs += int(done.size)
        return cur_un[cur_un >= before]

    # fire events already due at the start cycle *before* the first
    # routing pass — otherwise a cycle-0 fault (the common scheduled
    # shape) would have the first segment routed on the pre-fault state
    # only to be discarded and re-routed one line into the loop.
    # Observationally identical: the reference order at t0 is still
    # fire -> inject -> step.
    ctrl.fire_due_events(t0)
    ktimes, flat, offsets, cur_un, i1 = route_segment(0)
    p = 0          # pointer into the routed segment (packets injected so far)
    epoch = ctrl.routing_epoch
    fast = hasattr(sim, "next_departure_cycle")
    t_end = t0 + int(cycles)

    t = t0
    while t < t_end:
        # 1. fire fault events due at t; route the next segment when the
        # epoch moved or the clock reached the routed segment's end
        ctrl.fire_due_events(t)
        if ctrl.routing_epoch != epoch or (
            i1 < times.size and times[i1] <= t
        ):
            epoch = ctrl.routing_epoch
            # everything with an arrival cycle < t is already injected
            # (or finally refused); the rest routes under the current
            # fault state
            cur_un = finalize_unadmitted(t)
            ktimes, flat, offsets, cur_un, i1 = route_segment(
                int(np.searchsorted(times, t, side="left"))
            )
            p = 0
        # 2. inject arrivals due at t (a pre-routed contiguous slice)
        if p < ktimes.size and ktimes[p] == t:
            q = int(np.searchsorted(ktimes, t, side="right"))
            lo, hi = int(offsets[p]), int(offsets[q])
            sim.inject_routes(
                flat[lo:hi], offsets[p: q + 1] - lo,
                validate=ctrl._validate_routes,
            )
            p = q
        # 3. advance the clock, never past the routed segment's end
        if fast:
            visit = t_end
            if p < ktimes.size:
                visit = min(visit, int(ktimes[p]))
            if i1 < times.size:
                visit = min(visit, int(times[i1]))
            ne = events.peek_cycle()
            if ne is not None:
                visit = min(visit, ne)
            while True:
                b = sim.next_departure_cycle()
                if b is None or b > visit:
                    break
                sim.cycle = b - 1
                sim.step()
            sim.cycle = visit
            t = visit
        else:
            sim.step()
            t += 1

    # close the last epoch: every remaining refusal's cycle has passed
    cur_un = finalize_unadmitted(t_end)
    return stream_summary(
        sim.packet_records(), start=t0, cycles=cycles, warmup=warmup,
        window=window,
        unadmitted_times=(
            np.concatenate(unadmitted) if unadmitted else None
        ),
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
        """The offered-load vs delivered-throughput curve as rows."""
        return [p.row() for p in self.points]


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
    when its measurement-window delivery ratio is at least
    ``threshold``; past saturation the open-loop backlog grows without
    bound and the ratio collapses, so the indicator is sharp.

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
