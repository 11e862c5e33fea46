"""Simulation metrics: latency, throughput, utilization.

Aggregation is fully vectorized.  Two record shapes feed it:

* a :class:`PacketArrays` structure-of-arrays record from the vectorized
  :class:`repro.simulator.batch_engine.BatchEngine`;
* a ``list[Packet]`` from the bus engine
  (:class:`repro.simulator.bus_net.BusNetworkSimulator`) and the
  per-packet witness engine of the conformance suite.

Both paths funnel into :func:`summarize_arrays`, so identical runs give
bit-identical :class:`RunStats` whichever shape recorded them (the golden
equivalence tests rely on this).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simulator.packets import Packet

__all__ = [
    "PacketArrays",
    "RunStats",
    "StreamStats",
    "WindowSeries",
    "hist_percentile",
    "summarize",
    "summarize_arrays",
    "wilson_interval",
    "window_series",
    "stream_summary",
]


@dataclass(frozen=True)
class PacketArrays:
    """Structure-of-arrays packet records, one row per injected packet.

    ``delivered_at`` uses ``-1`` as the "not delivered" sentinel so the
    whole record stays in dense int64 arrays.
    """

    injected_at: np.ndarray
    delivered_at: np.ndarray
    hops: np.ndarray
    dropped: np.ndarray

    def __post_init__(self):
        n = self.injected_at.shape[0]
        for name in ("delivered_at", "hops", "dropped"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"PacketArrays field {name!r} has mismatched shape")

    @classmethod
    def from_packets(cls, packets: "list[Packet]") -> "PacketArrays":
        """Convert per-:class:`Packet` records (the single place the
        ``-1`` not-delivered sentinel convention lives)."""
        return cls(
            injected_at=np.array([p.injected_at for p in packets], dtype=np.int64),
            delivered_at=np.array(
                [-1 if p.delivered_at is None else p.delivered_at for p in packets],
                dtype=np.int64,
            ),
            hops=np.array([p.hops for p in packets], dtype=np.int64),
            dropped=np.array([p.dropped for p in packets], dtype=bool),
        )


@dataclass(frozen=True)
class RunStats:
    """Summary of one simulation run."""

    cycles: int
    injected: int
    delivered: int
    dropped: int
    mean_latency: float
    p95_latency: float
    max_latency: int
    mean_hops: float
    throughput: float  # delivered packets per cycle

    def slowdown_vs(self, baseline: "RunStats") -> float:
        """Latency slowdown factor relative to a baseline run (the §V
        bus-vs-point-to-point comparison)."""
        if baseline.mean_latency == 0:
            return float("inf") if self.mean_latency > 0 else 1.0
        return self.mean_latency / baseline.mean_latency

    def completion_slowdown_vs(self, baseline: "RunStats") -> float:
        """Makespan ratio (total cycles to drain the same workload)."""
        if baseline.cycles == 0:
            return float("inf") if self.cycles > 0 else 1.0
        return self.cycles / baseline.cycles

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunStats(cycles={self.cycles}, delivered={self.delivered}/"
            f"{self.injected}, dropped={self.dropped}, "
            f"lat~{self.mean_latency:.2f} (p95={self.p95_latency:.1f}), "
            f"thr={self.throughput:.3f}/cy)"
        )


def summarize_arrays(records: PacketArrays, cycles: int) -> RunStats:
    """Aggregate a :class:`PacketArrays` record into a :class:`RunStats`."""
    injected = int(records.injected_at.shape[0])
    ok = records.delivered_at >= 0
    lat = (records.delivered_at[ok] - records.injected_at[ok]).astype(np.int64)
    hops = records.hops[ok].astype(np.int64)
    delivered = int(lat.size)
    dropped = int(np.count_nonzero(records.dropped))
    return RunStats(
        cycles=int(cycles),
        injected=injected,
        delivered=delivered,
        dropped=dropped,
        mean_latency=float(lat.mean()) if delivered else 0.0,
        p95_latency=float(np.percentile(lat, 95)) if delivered else 0.0,
        max_latency=int(lat.max()) if delivered else 0,
        mean_hops=float(hops.mean()) if delivered else 0.0,
        throughput=delivered / cycles if cycles else 0.0,
    )


def summarize(packets: "list[Packet] | PacketArrays", cycles: int) -> RunStats:
    """Aggregate packet records into a :class:`RunStats`.

    Accepts either a ``list[Packet]`` or the batch engine's
    :class:`PacketArrays`; both reduce through the same vectorized
    path.
    """
    if isinstance(packets, PacketArrays):
        return summarize_arrays(packets, cycles)
    return summarize_arrays(PacketArrays.from_packets(packets), cycles)


# ---------------------------------------------------------------------------
# interval estimates over merged replica counts
# ---------------------------------------------------------------------------

def wilson_interval(
    successes: int, trials: int, *, z: float = 1.96
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    The dependability tables report delivery as ``delivered / offered``
    pooled over Monte-Carlo replicas; the Wilson interval stays inside
    ``[0, 1]`` and behaves sensibly at the boundary rates (0% and 100%
    delivery) where the naive normal interval collapses to a point.
    Returns ``(lo, hi)``; ``trials == 0`` yields the vacuous ``(0, 1)``.
    """
    successes, trials = int(successes), int(trials)
    if not 0 <= successes <= trials:
        raise ValueError(
            f"wilson_interval needs 0 <= successes <= trials, "
            f"got {successes}/{trials}"
        )
    if z <= 0:
        raise ValueError(f"wilson_interval needs z > 0, got {z}")
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (
        z
        * ((p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) ** 0.5)
        / denom
    )
    return (max(0.0, center - half), min(1.0, center + half))


def hist_percentile(
    values: np.ndarray, counts: np.ndarray, q: float
) -> float:
    """Percentile of a value histogram, identical to ``np.percentile``
    (linear interpolation) on the expanded sample.

    Merged :class:`~repro.simulator.grid.ShardStats` carry
    latency/hop distributions as ``(values, counts)`` histograms; this
    reduces them without materializing the multi-million-entry sample a
    full dependability-surface cell would otherwise expand.
    """
    values = np.asarray(values, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if values.shape != counts.shape or values.ndim != 1:
        raise ValueError("hist_percentile needs parallel 1-d values/counts")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if np.any(counts < 0):
        raise ValueError("hist_percentile needs non-negative counts")
    keep = counts > 0
    values, counts = values[keep], counts[keep]
    n = int(counts.sum())
    if n == 0:
        return 0.0
    order = np.argsort(values, kind="stable")
    values, counts = values[order], counts[order]
    # np.percentile 'linear': the target sits at rank q/100 * (n-1) of
    # the sorted sample; cumulative counts locate the bracketing values
    pos = q / 100.0 * (n - 1)
    lo_rank = int(np.floor(pos))
    hi_rank = min(lo_rank + 1, n - 1)
    cum = np.cumsum(counts)
    lo_val = float(values[np.searchsorted(cum, lo_rank, side="right")])
    hi_val = float(values[np.searchsorted(cum, hi_rank, side="right")])
    # numpy's two-sided lerp: from the nearer end, so the last bit agrees
    t = pos - lo_rank
    if t >= 0.5:
        return hi_val - (hi_val - lo_val) * (1 - t)
    return lo_val + (hi_val - lo_val) * t


# ---------------------------------------------------------------------------
# streaming (open-loop) metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class WindowSeries:
    """Per-window time series of an open-loop streaming run.

    The horizon ``[start, end)`` is cut into consecutive windows of
    ``window`` cycles (the last window may be shorter).  All fields are
    parallel arrays, one entry per window:

    ``starts``
        First cycle of each window (absolute simulator cycles).
    ``injected``
        Packets injected during the window (``injected_at`` in window).
    ``delivered``
        Packets *delivered* during the window — regardless of when they
        were injected.  ``delivered / window`` is the instantaneous
        throughput series a saturation plot shows.
    ``occupancy``
        In-flight packets at the window's last cycle: injected by then,
        not yet delivered, and not dropped.  Dropped packets are excluded
        from occupancy entirely (their drop cycle is not recorded); in
        the fault-free saturation runs this series exists for, drops are
        zero and the series is exact.
    ``mean_latency``
        Mean latency of the packets delivered in the window, ``nan``
        where a window delivered nothing (use ``nan``-aware reductions).
    """

    window: int
    starts: np.ndarray
    injected: np.ndarray
    delivered: np.ndarray
    occupancy: np.ndarray
    mean_latency: np.ndarray

    def __len__(self) -> int:
        return int(self.starts.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WindowSeries):
            return NotImplemented
        return self.window == other.window and all(
            np.array_equal(getattr(self, f), getattr(other, f), equal_nan=True)
            for f in ("starts", "injected", "delivered", "occupancy", "mean_latency")
        )

    def to_dict(self) -> dict:
        """JSON-friendly form: parallel lists, ``nan`` latencies (windows
        that delivered nothing) mapped to ``null`` — JSON has no NaN and
        the service streams these over NDJSON."""
        return {
            "window": int(self.window),
            "starts": self.starts.tolist(),
            "injected": self.injected.tolist(),
            "delivered": self.delivered.tolist(),
            "occupancy": self.occupancy.tolist(),
            "mean_latency": [
                None if x != x else float(x) for x in self.mean_latency.tolist()
            ],
        }


def window_series(
    records: PacketArrays, start: int, end: int, window: int
) -> WindowSeries:
    """Cut a streaming run's packet records into a :class:`WindowSeries`.

    ``start``/``end`` bound the horizon in absolute simulator cycles
    (injections happened at cycles ``start .. end - 1``; a delivery at
    cycle ``end`` belongs to the last window).  Fully vectorized — one
    ``bincount`` per series.
    """
    start, end, window = int(start), int(end), int(window)
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if end <= start:
        raise ValueError("window_series needs end > start")
    n_win = -(-(end - start) // window)
    starts = start + window * np.arange(n_win, dtype=np.int64)

    inj_win = (records.injected_at - start) // window
    in_horizon = (records.injected_at >= start) & (records.injected_at < end)
    injected = np.bincount(inj_win[in_horizon], minlength=n_win)[:n_win]

    ok = records.delivered_at >= 0
    # a delivery at exactly `end` came out of the horizon's final step
    del_ok = ok & (records.delivered_at >= start) & (records.delivered_at <= end)
    del_win = np.minimum((records.delivered_at - start) // window, n_win - 1)
    delivered = np.bincount(del_win[del_ok], minlength=n_win)[:n_win]

    lat = records.delivered_at - records.injected_at
    lat_sum = np.bincount(
        del_win[del_ok], weights=lat[del_ok].astype(np.float64), minlength=n_win
    )[:n_win]
    with np.errstate(invalid="ignore"):
        mean_latency = np.where(
            delivered > 0, lat_sum / np.maximum(delivered, 1), np.nan
        )

    # occupancy at each window's last cycle, by cumulative counting; the
    # final window samples at the horizon boundary `end` because its
    # delivery count includes the boundary step's deliveries too
    ends = np.minimum(starts + window - 1, end - 1)
    ends[-1] = end
    live = ~records.dropped
    inj_sorted = np.sort(records.injected_at[live])
    del_sorted = np.sort(records.delivered_at[live & ok])
    occupancy = (
        np.searchsorted(inj_sorted, ends, side="right")
        - np.searchsorted(del_sorted, ends, side="right")
    ).astype(np.int64)

    return WindowSeries(
        window=window,
        starts=starts,
        injected=injected.astype(np.int64),
        delivered=delivered.astype(np.int64),
        occupancy=occupancy,
        mean_latency=mean_latency,
    )


@dataclass(frozen=True)
class StreamStats:
    """Summary of one open-loop streaming run.

    Unlike :class:`RunStats` (which describes a fully drained batch),
    a streaming run stops at a fixed horizon with traffic still in
    flight, and the first ``warmup`` cycles are excluded from the
    measured rates so transients do not bias the steady-state numbers.

    Measurement-window accounting (``measured = cycles - warmup``):

    ``offered`` / ``offered_rate``
        Packets injected during the measurement window / per cycle.
    ``delivered`` / ``delivered_rate``
        Packets *delivered* during the measurement window (whenever they
        were injected) / per cycle.  ``delivered_rate`` vs
        ``offered_rate`` is the saturation curve's y vs x.
    ``mean_latency`` / ``p95_latency``
        Over packets injected in the measurement window *and* delivered
        by the horizon; at saturation the backlog censors slow packets,
        so read these together with ``final_occupancy``.
    ``final_occupancy`` / ``peak_occupancy``
        In-flight (injected, undelivered, undropped) packets at the
        horizon / max over window ends.  Growing occupancy at constant
        offered load is the saturation signature.
    ``unadmitted``
        Arrivals the controller could not even route (a dead endpoint or
        disconnected survivors — the detour baseline's failure mode),
        over the whole horizon.  They count as *offered* inside the
        measurement window and are never delivered, so a machine that
        refuses traffic pays for it in ``delivery_ratio`` instead of
        quietly shrinking its own load.
    ``windows``
        The per-window series (``None`` when no windowing was
        requested); covers admitted packets only.
    ``totals``
        Whole-run :class:`RunStats` over everything injected, warmup
        included (undelivered packets count as not delivered).
    """

    cycles: int
    warmup: int
    offered: int
    delivered: int
    dropped: int
    unadmitted: int
    offered_rate: float
    delivered_rate: float
    mean_latency: float
    p95_latency: float
    final_occupancy: int
    peak_occupancy: int
    totals: RunStats
    windows: WindowSeries | None = None

    @property
    def delivery_ratio(self) -> float:
        """Delivered over offered inside the measurement window (1.0 when
        nothing was offered) — the saturation detector's test statistic."""
        return self.delivered / self.offered if self.offered else 1.0

    def to_dict(self) -> dict:
        """JSON-friendly form for the experiment service: scalars as-is,
        ``totals`` expanded, ``windows`` via
        :meth:`WindowSeries.to_dict` (``null`` when not windowed)."""
        from dataclasses import asdict

        return {
            "cycles": self.cycles,
            "warmup": self.warmup,
            "offered": self.offered,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "unadmitted": self.unadmitted,
            "offered_rate": self.offered_rate,
            "delivered_rate": self.delivered_rate,
            "delivery_ratio": self.delivery_ratio,
            "mean_latency": self.mean_latency,
            "p95_latency": self.p95_latency,
            "final_occupancy": self.final_occupancy,
            "peak_occupancy": self.peak_occupancy,
            "totals": asdict(self.totals),
            "windows": None if self.windows is None else self.windows.to_dict(),
        }

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamStats(cycles={self.cycles}, offered={self.offered_rate:.3f}/cy, "
            f"delivered={self.delivered_rate:.3f}/cy, "
            f"lat~{self.mean_latency:.2f} (p95={self.p95_latency:.1f}), "
            f"backlog={self.final_occupancy})"
        )


def stream_summary(
    records: PacketArrays,
    *,
    start: int,
    cycles: int,
    warmup: int = 0,
    window: int = 0,
    unadmitted_times: np.ndarray | None = None,
) -> StreamStats:
    """Reduce a streaming run's packet records to a :class:`StreamStats`.

    ``start`` is the simulator cycle the stream began on, ``cycles`` the
    injection horizon length, ``warmup`` the prefix excluded from the
    measured rates; ``window > 0`` additionally attaches a
    :class:`WindowSeries` over the full horizon.  ``unadmitted_times``
    lists the arrival cycles of source traffic the controller refused to
    route (see :class:`StreamStats.unadmitted`).
    """
    if not 0 <= warmup < cycles:
        raise ValueError("stream_summary needs 0 <= warmup < cycles")
    start, end = int(start), int(start) + int(cycles)
    measure_from = start + int(warmup)
    measured = end - measure_from

    if unadmitted_times is None:
        unadmitted_times = np.zeros(0, dtype=np.int64)
    unadmitted_times = np.asarray(unadmitted_times, dtype=np.int64)
    unadmitted_measured = int(
        np.count_nonzero(
            (unadmitted_times >= measure_from) & (unadmitted_times < end)
        )
    )

    ok = records.delivered_at >= 0
    offered_mask = (records.injected_at >= measure_from) & (
        records.injected_at < end
    )
    offered = int(np.count_nonzero(offered_mask)) + unadmitted_measured
    delivered_mask = ok & (records.delivered_at > measure_from) & (
        records.delivered_at <= end
    )
    delivered = int(np.count_nonzero(delivered_mask))

    lat_mask = offered_mask & ok & (records.delivered_at <= end)
    lat = (
        records.delivered_at[lat_mask] - records.injected_at[lat_mask]
    ).astype(np.int64)

    live = ~records.dropped
    final_occupancy = int(
        np.count_nonzero(live & (~ok | (records.delivered_at > end)))
    )

    windows = None
    peak_occupancy = final_occupancy
    if window > 0:
        windows = window_series(records, start, end, window)
        if len(windows):
            peak_occupancy = int(max(windows.occupancy.max(), final_occupancy))

    return StreamStats(
        cycles=int(cycles),
        warmup=int(warmup),
        offered=offered,
        delivered=delivered,
        dropped=int(np.count_nonzero(records.dropped)),
        unadmitted=int(unadmitted_times.size),
        offered_rate=offered / measured,
        delivered_rate=delivered / measured,
        mean_latency=float(lat.mean()) if lat.size else 0.0,
        p95_latency=float(np.percentile(lat, 95)) if lat.size else 0.0,
        final_occupancy=final_occupancy,
        peak_occupancy=peak_occupancy,
        totals=summarize_arrays(records, end),
        windows=windows,
    )
