"""Simulation metrics: latency, throughput, utilization.

Aggregation is fully vectorized.  Two record shapes feed it:

* a :class:`PacketArrays` structure-of-arrays record from the vectorized
  :class:`repro.simulator.batch_engine.BatchEngine`;
* a ``list[Packet]`` from the bus engine
  (:class:`repro.simulator.bus_net.BusNetworkSimulator`) and the
  per-packet witness engine of the conformance suite, converted by
  :meth:`PacketArrays.from_packets`.

A drain's statistics are one :class:`ShardStats`, reduced by
:meth:`ShardStats.from_arrays`, so identical runs give bit-identical
statistics whichever shape recorded them (the golden equivalence tests
rely on this), and the records of many drains merge exactly
(:meth:`ShardStats.merge`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from repro.simulator.packets import Packet

__all__ = [
    "PacketArrays",
    "ShardStats",
    "StreamStats",
    "WindowSeries",
    "hist_percentile",
    "wilson_interval",
    "window_series",
    "stream_summary",
]

_I64 = np.int64


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


@dataclass(frozen=True, eq=False)
class ShardStats:
    """The statistics of a drain: exact counters plus latency and hop
    histograms over the delivered packets.

    Means and percentiles are not associative, so the record keeps
    *exact sufficient statistics* instead, and reads every summary
    number off them.  Merging is exact, so any split of a workload's
    records merges to the record of the whole, bit for bit:

    * integer counters add;
    * histograms add (``np.unique`` values with int64 counts);
    * ``mean`` — ``np.mean`` over int64 latencies performs pairwise
      float64 summation whose partial sums are all integers; every one is
      exact below 2**53, so ``sum / n`` lands on the identical float
      regardless of packet order;
    * ``p95`` — the histogram *is* the sorted multiset, and
      :func:`hist_percentile` reads ``np.percentile``'s exact result off
      it without expanding it;
    * ``max`` — the last histogram bin.

    All fields are plain ints and small int64 arrays, so the record
    pickles compactly across process boundaries.
    """

    cycles: int
    injected: int
    delivered: int
    dropped: int
    lat_values: np.ndarray    # unique latencies of delivered packets, sorted
    lat_counts: np.ndarray    # multiplicity per latency value
    hop_values: np.ndarray    # unique hop counts of delivered packets, sorted
    hop_counts: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardStats):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )

    @classmethod
    def from_arrays(cls, records: PacketArrays, cycles: int) -> "ShardStats":
        """Reduce a drain's :class:`PacketArrays` over ``cycles``."""
        ok = records.delivered_at >= 0
        lat = (records.delivered_at[ok] - records.injected_at[ok]).astype(_I64)
        hops = records.hops[ok].astype(_I64)
        lat_values, lat_counts = np.unique(lat, return_counts=True)
        hop_values, hop_counts = np.unique(hops, return_counts=True)
        return cls(
            cycles=int(cycles),
            injected=int(records.injected_at.shape[0]),
            delivered=int(lat.size),
            dropped=int(np.count_nonzero(records.dropped)),
            lat_values=lat_values,
            lat_counts=lat_counts.astype(_I64),
            hop_values=hop_values,
            hop_counts=hop_counts.astype(_I64),
        )

    @classmethod
    def empty(cls) -> "ShardStats":
        z = np.zeros(0, dtype=_I64)
        return cls(**{f.name: z if _is_hist(f) else 0 for f in fields(cls)})

    @staticmethod
    def _merge_hist(
        values: Sequence[np.ndarray], counts: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        uv, inv = np.unique(np.concatenate(values), return_inverse=True)
        uc = np.zeros(uv.size, dtype=_I64)
        np.add.at(uc, inv, np.concatenate(counts))
        return uv, uc

    @classmethod
    def merge(cls, shards: Iterable["ShardStats"]) -> "ShardStats":
        """Exact vectorized reduction of any number of shards.

        Cycle counts *add*: shard ``i + 1`` logically starts on the cycle
        shard ``i`` drained (the sequential-drain timeline), which is what
        a single engine draining the concatenated workload reports.
        """
        shards = list(shards)
        if not shards:
            return cls.empty()
        out = {f.name: sum(getattr(s, f.name) for s in shards)
               for f in fields(cls) if not _is_hist(f)}
        for h in ("lat", "hop"):
            out[f"{h}_values"], out[f"{h}_counts"] = cls._merge_hist(
                [getattr(s, f"{h}_values") for s in shards],
                [getattr(s, f"{h}_counts") for s in shards],
            )
        return cls(**out)

    def _mean(self, values: np.ndarray, counts: np.ndarray) -> float:
        if not self.delivered:
            return 0.0
        return int(np.dot(values, counts)) / self.delivered

    @property
    def mean_latency(self) -> float:
        return self._mean(self.lat_values, self.lat_counts)

    @property
    def p95_latency(self) -> float:
        return hist_percentile(self.lat_values, self.lat_counts, 95)

    @property
    def max_latency(self) -> int:
        return int(self.lat_values[-1]) if self.delivered else 0

    @property
    def mean_hops(self) -> float:
        return self._mean(self.hop_values, self.hop_counts)

    @property
    def throughput(self) -> float:
        """Delivered packets per cycle."""
        return self.delivered / self.cycles if self.cycles else 0.0

    def summary(self) -> dict:
        """The summary numbers, one key each: the run document's
        ``aggregate``, a bundle cell's ``run_stats`` and a stream's
        ``totals``."""
        return {name: getattr(self, name) for name in _SUMMARY}

    def to_dict(self) -> dict:
        """JSON-friendly form of the exact sufficient statistics: plain
        ints plus histogram lists, one key per field.  :meth:`from_dict`
        round-trips bit-for-bit, so a merged record served over HTTP
        reconstructs the identical summary on the client side."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.tolist() if _is_hist(f) else value
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardStats":
        """Inverse of :meth:`to_dict` (exact)."""
        return cls(**{
            f.name: (np.asarray(payload[f.name], dtype=_I64) if _is_hist(f)
                     else int(payload[f.name]))
            for f in fields(cls)
        })

    def __str__(self) -> str:
        return (
            f"ShardStats(cycles={self.cycles}, delivered={self.delivered}/"
            f"{self.injected}, dropped={self.dropped}, "
            f"lat~{self.mean_latency:.2f} (p95={self.p95_latency:.1f}), "
            f"thr={self.throughput:.3f}/cy)"
        )


#: The keys of :meth:`ShardStats.summary`, in document order.
_SUMMARY = ("cycles", "injected", "delivered", "dropped", "mean_latency",
            "p95_latency", "max_latency", "mean_hops", "throughput")


def _is_hist(f) -> bool:
    """Is a :class:`ShardStats` field a histogram array (the rest are
    integer counters)?"""
    return f.type == "np.ndarray"


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

    Merged :class:`ShardStats` carry
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

    Unlike a closed loop's :class:`ShardStats` (which describes a fully
    drained batch), a streaming run stops at a fixed horizon with traffic still in
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
        Whole-run :class:`ShardStats` over everything injected, warmup
        included (undelivered packets count as not delivered), reduced
        over the horizon's end cycle.
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
    totals: ShardStats
    windows: WindowSeries | None = None

    @property
    def delivery_ratio(self) -> float:
        """Delivered over offered inside the measurement window (1.0 when
        nothing was offered) — the saturation detector's test statistic."""
        return self.delivered / self.offered if self.offered else 1.0

    def to_dict(self) -> dict:
        """JSON-friendly form for the experiment service: one key per
        field, scalars as-is, ``totals`` as its
        :meth:`ShardStats.summary`, ``windows`` via
        :meth:`WindowSeries.to_dict` (``null`` when not windowed), plus
        the derived ``delivery_ratio``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["totals"] = self.totals.summary()
        out["windows"] = None if self.windows is None else self.windows.to_dict()
        out["delivery_ratio"] = self.delivery_ratio
        return out

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
        totals=ShardStats.from_arrays(records, end),
        windows=windows,
    )
