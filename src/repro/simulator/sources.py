"""Open-loop streaming traffic sources.

The batch workloads in :mod:`repro.simulator.traffic` are *closed-loop*:
a fixed set of messages is injected and drained to completion, so the
network is never observed under sustained pressure.  The dependability
literature the paper belongs to (and the ROADMAP's north star) evaluates
interconnects as *continuously loaded* systems instead: an external
arrival process keeps offering traffic at a configured rate whether or
not the network keeps up, and the interesting quantities are the
delivered throughput, queue occupancy, and latency as functions of the
offered load — including past the saturation point, where a closed-loop
drain cannot even be expressed.

Every source is an **arrival process**: it decides *when* packets enter
the network and *which* ``(src, dst)`` pairs they carry.  A source is a
pure function of its constructor arguments — :meth:`TrafficSource.schedule`
returns the identical arrays every time it is called — so the same
seeded source can drive the batch engine and the conformance witness
engine and the two runs can be compared packet-for-packet (the
streaming golden tests in ``tests/test_streaming.py`` do exactly that).

Sources
-------
:class:`PoissonSource`
    Memoryless arrivals: per-cycle counts drawn i.i.d. Poisson(rate).
    The canonical open-loop load model.
:class:`OnOffSource`
    Bursty arrivals: an on/off modulating chain with geometric sojourn
    times; Poisson(``rate_on``) arrivals while on, silence while off.
:class:`DeterministicSource`
    A fixed-rate fluid source: exactly ``floor((t+1)*rate) - floor(t*rate)``
    packets at cycle ``t``, so any real rate is hit exactly in the long
    run with the smoothest possible arrival pattern.
:class:`TraceSource`
    Replay an explicit ``(times, pairs)`` trace — recorded workloads,
    adversarial schedules, or cross-validation fixtures.

All rate parameters are **aggregate packets per cycle** across the whole
machine (not per node).  Destination pairs come from the named pattern in
:data:`repro.simulator.traffic.PATTERNS` (default ``uniform``).

Use :func:`make_source` to build a source by name.  Names resolve
through the :data:`SOURCES` :class:`~repro.registry.Registry` — the
experiment spec layer validates against it at construction time, and a
new arrival process is one decorated factory, not an edit to a dispatch
chain.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ParameterError
from repro.registry import Registry
from repro.simulator.traffic import PATTERNS, make_pattern

__all__ = [
    "SOURCES",
    "TrafficSource",
    "PoissonSource",
    "OnOffSource",
    "DeterministicSource",
    "TraceSource",
    "make_source",
]

_I64 = np.int64

#: Registry of source factories:
#: ``name -> (n, rate, *, pattern, seed, mean_on, mean_off) -> TrafficSource``.
SOURCES = Registry("traffic source")


def _draw_pairs(
    n: int, pattern: str, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Exactly ``count`` ``(src, dst)`` rows of the named pattern.

    :func:`repro.simulator.traffic.make_pattern` may return fewer rows
    than requested for random patterns that reject self-sends after
    redirection (``hotspot``), so this tops the batch up deterministically
    until the count is exact — sources must keep their arrival counts and
    pair arrays aligned.
    """
    if count == 0:
        return np.zeros((0, 2), dtype=_I64)
    chunks: list[np.ndarray] = []
    have = 0
    while have < count:
        chunk = make_pattern(n, pattern, count - have, rng)
        if chunk.shape[0] == 0:
            raise ParameterError(
                f"pattern {pattern!r} produced no pairs for n={n}"
            )
        chunks.append(chunk)
        have += chunk.shape[0]
    return np.vstack(chunks)[:count].astype(_I64)


class TrafficSource(ABC):
    """Base class for open-loop arrival processes.

    Parameters
    ----------
    n:
        Node count of the machine the source addresses; pairs lie in
        ``[0, n)`` (logical coordinates, like every traffic pattern).
    pattern:
        Destination pattern name, one of
        :data:`repro.simulator.traffic.PATTERNS`.
    seed:
        Seed for the private :class:`numpy.random.Generator`.  Two
        sources with equal constructor arguments are interchangeable:
        they schedule identical arrivals.

    Subclasses implement :meth:`arrivals_per_cycle`; everything else —
    pair generation, flattening into the ``(times, pairs)`` calendar —
    is shared.
    """

    def __init__(self, n: int, *, pattern: str = "uniform", seed: int = 0):
        if n < 2:
            raise ParameterError("traffic sources need n >= 2")
        PATTERNS.validate(pattern)
        self.n = int(n)
        self.pattern = pattern
        self.seed = int(seed)

    @property
    @abstractmethod
    def rate(self) -> float:
        """Mean offered load in aggregate packets per cycle."""

    @abstractmethod
    def arrivals_per_cycle(
        self, cycles: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-cycle arrival counts: an int64 array of shape ``(cycles,)``.

        Must consume ``rng`` deterministically (no global randomness) so
        :meth:`schedule` stays reproducible.
        """

    def schedule(self, cycles: int) -> tuple[np.ndarray, np.ndarray]:
        """The source's arrival calendar for a ``cycles``-long horizon.

        Returns ``(times, pairs)`` where ``times`` is a sorted int64
        array of *relative* injection cycles in ``[0, cycles)`` and
        ``pairs`` is the aligned ``(len(times), 2)`` array of
        ``(src, dst)`` rows — the structure-of-arrays calendar the
        streaming driver feeds to the engines.  Pure: repeated calls
        return identical arrays (fresh generator from ``seed`` each
        call), which is what makes cross-engine goldens possible.
        """
        if cycles < 1:
            raise ParameterError("schedule needs cycles >= 1")
        rng = np.random.default_rng(self.seed)
        counts = np.asarray(
            self.arrivals_per_cycle(int(cycles), rng), dtype=_I64
        )
        if counts.shape != (cycles,) or (counts < 0).any():
            raise ParameterError(
                "arrivals_per_cycle must return a (cycles,) array of "
                "non-negative counts"
            )
        times = np.repeat(np.arange(cycles, dtype=_I64), counts)
        pairs = _draw_pairs(self.n, self.pattern, int(counts.sum()), rng)
        return times, pairs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(n={self.n}, rate={self.rate:g}, "
            f"pattern={self.pattern!r}, seed={self.seed})"
        )


class PoissonSource(TrafficSource):
    """Memoryless open-loop arrivals: ``count[t] ~ Poisson(rate)`` i.i.d.

    Parameters
    ----------
    n, pattern, seed:
        See :class:`TrafficSource`.
    rate:
        Mean aggregate packets per cycle (> 0).
    """

    def __init__(
        self, n: int, rate: float, *, pattern: str = "uniform", seed: int = 0
    ):
        super().__init__(n, pattern=pattern, seed=seed)
        if not rate > 0:
            raise ParameterError(f"PoissonSource rate must be > 0, got {rate}")
        self._rate = float(rate)

    @property
    def rate(self) -> float:
        return self._rate

    def arrivals_per_cycle(
        self, cycles: int, rng: np.random.Generator
    ) -> np.ndarray:
        return rng.poisson(self._rate, size=cycles).astype(_I64)


class OnOffSource(TrafficSource):
    """Bursty arrivals: a two-state on/off chain modulating a Poisson
    source — the classic worst-case-burstiness load model.

    Sojourn times in each state are geometric with means ``mean_on`` and
    ``mean_off`` cycles (the chain starts *on*).  While on, per-cycle
    counts are Poisson(``rate_on``); while off, zero.  The long-run
    offered load is therefore
    ``rate_on * mean_on / (mean_on + mean_off)`` — exposed as
    :attr:`rate` so load sweeps can treat every source uniformly.

    Parameters
    ----------
    n, pattern, seed:
        See :class:`TrafficSource`.
    rate_on:
        Aggregate packets per cycle while the source is on (> 0).
    mean_on, mean_off:
        Mean sojourn times (cycles, >= 1) of the on and off states.
    """

    def __init__(
        self,
        n: int,
        rate_on: float,
        *,
        mean_on: float = 20.0,
        mean_off: float = 20.0,
        pattern: str = "uniform",
        seed: int = 0,
    ):
        super().__init__(n, pattern=pattern, seed=seed)
        if not rate_on > 0:
            raise ParameterError(f"OnOffSource rate_on must be > 0, got {rate_on}")
        if mean_on < 1 or mean_off < 1:
            raise ParameterError("OnOffSource sojourn means must be >= 1 cycle")
        self.rate_on = float(rate_on)
        self.mean_on = float(mean_on)
        self.mean_off = float(mean_off)

    @property
    def rate(self) -> float:
        return self.rate_on * self.mean_on / (self.mean_on + self.mean_off)

    def arrivals_per_cycle(
        self, cycles: int, rng: np.random.Generator
    ) -> np.ndarray:
        counts = np.zeros(cycles, dtype=_I64)
        t, on = 0, True
        while t < cycles:
            mean = self.mean_on if on else self.mean_off
            sojourn = int(rng.geometric(1.0 / mean))
            if on:
                end = min(t + sojourn, cycles)
                counts[t:end] = rng.poisson(self.rate_on, size=end - t)
            t += sojourn
            on = not on
        return counts


class DeterministicSource(TrafficSource):
    """A constant-rate fluid source with zero jitter.

    Cycle ``t`` injects ``floor((t+1)*rate) - floor(t*rate)`` packets, so
    the cumulative count after ``T`` cycles is exactly ``floor(T*rate)``
    for any real ``rate`` — fractional rates spread as evenly as integer
    arithmetic allows.  Randomness only enters through the destination
    pattern (if it is a random one).

    Parameters
    ----------
    n, pattern, seed:
        See :class:`TrafficSource`.
    rate:
        Aggregate packets per cycle (> 0); need not be an integer.
    """

    def __init__(
        self, n: int, rate: float, *, pattern: str = "uniform", seed: int = 0
    ):
        super().__init__(n, pattern=pattern, seed=seed)
        if not rate > 0:
            raise ParameterError(
                f"DeterministicSource rate must be > 0, got {rate}"
            )
        self._rate = float(rate)

    @property
    def rate(self) -> float:
        return self._rate

    def arrivals_per_cycle(
        self, cycles: int, rng: np.random.Generator
    ) -> np.ndarray:
        edges = np.floor(np.arange(cycles + 1, dtype=np.float64) * self._rate)
        return np.diff(edges).astype(_I64)


class TraceSource(TrafficSource):
    """Replay an explicit arrival trace.

    Parameters
    ----------
    n:
        Node count (pairs are range-checked against it).
    times:
        Injection cycles, one per packet, non-decreasing, >= 0.
    pairs:
        Aligned ``(len(times), 2)`` array of ``(src, dst)`` rows with
        ``src != dst``.

    :meth:`schedule` truncates the trace to the requested horizon; the
    nominal :attr:`rate` is the trace's packets-per-cycle over its own
    span.  Useful for recorded workloads and for hand-built adversarial
    schedules in tests.
    """

    def __init__(self, n: int, times: np.ndarray, pairs: np.ndarray):
        # a trace needs no pattern/seed; fix the harmless defaults
        super().__init__(n, pattern="uniform", seed=0)
        times = np.asarray(times, dtype=_I64).ravel()
        pairs = np.asarray(pairs, dtype=_I64).reshape(-1, 2)
        if times.shape[0] != pairs.shape[0]:
            raise ParameterError("trace times and pairs must align row-for-row")
        if times.size and (np.diff(times) < 0).any():
            raise ParameterError("trace times must be non-decreasing")
        if times.size and times[0] < 0:
            raise ParameterError("trace times must be >= 0")
        if pairs.size:
            if pairs.min() < 0 or pairs.max() >= n:
                raise ParameterError(f"trace pairs must lie in [0, {n})")
            if (pairs[:, 0] == pairs[:, 1]).any():
                raise ParameterError("trace pairs must have src != dst")
        self.times = times
        self.pairs = pairs

    @property
    def rate(self) -> float:
        if self.times.size == 0:
            return 0.0
        span = int(self.times[-1]) + 1
        return self.times.size / span

    def arrivals_per_cycle(
        self, cycles: int, rng: np.random.Generator
    ) -> np.ndarray:
        counts = np.zeros(cycles, dtype=_I64)
        kept = self.times[self.times < cycles]
        np.add.at(counts, kept, 1)
        return counts

    def schedule(self, cycles: int) -> tuple[np.ndarray, np.ndarray]:
        if cycles < 1:
            raise ParameterError("schedule needs cycles >= 1")
        keep = self.times < cycles
        return self.times[keep].copy(), self.pairs[keep].copy()


@SOURCES.register("poisson")
def _s_poisson(n, rate, *, pattern="uniform", seed=0, mean_on=20.0, mean_off=20.0):
    return PoissonSource(n, rate, pattern=pattern, seed=seed)


@SOURCES.register("onoff")
def _s_onoff(n, rate, *, pattern="uniform", seed=0, mean_on=20.0, mean_off=20.0):
    # scale the on-state rate up so the long-run mean equals `rate`
    # despite the off periods — load sweeps compare like with like
    duty = mean_on / (mean_on + mean_off)
    return OnOffSource(
        n, rate / duty, mean_on=mean_on, mean_off=mean_off,
        pattern=pattern, seed=seed,
    )


@SOURCES.register("deterministic")
def _s_deterministic(n, rate, *, pattern="uniform", seed=0, mean_on=20.0,
                     mean_off=20.0):
    return DeterministicSource(n, rate, pattern=pattern, seed=seed)


def make_source(
    kind: str,
    n: int,
    rate: float,
    *,
    pattern: str = "uniform",
    seed: int = 0,
    mean_on: float = 20.0,
    mean_off: float = 20.0,
) -> TrafficSource:
    """Build a source by name (one of :data:`SOURCES`) at a target
    *mean* offered load of ``rate`` packets per cycle.

    For ``"onoff"`` the on-state rate is scaled up so the long-run mean
    equals ``rate`` despite the off periods — a load sweep over source
    kinds then compares like with like.  Unknown kinds raise a
    :class:`~repro.errors.ParameterError` listing the valid choices.
    """
    return SOURCES.get(kind)(
        n, rate, pattern=pattern, seed=seed, mean_on=mean_on, mean_off=mean_off
    )
