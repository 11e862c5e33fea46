"""Open-loop traffic sources: determinism, rates, trace replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.simulator import (
    DeterministicSource,
    OnOffSource,
    PoissonSource,
    TraceSource,
    make_source,
)
from repro.simulator.sources import SOURCES


class TestSeededDeterminism:
    @pytest.mark.parametrize("kind", SOURCES.names())
    def test_schedule_is_pure(self, kind):
        """Two calls (and two equal sources) return identical calendars."""
        a = make_source(kind, 64, 1.5, seed=11)
        b = make_source(kind, 64, 1.5, seed=11)
        t1, p1 = a.schedule(300)
        t2, p2 = a.schedule(300)
        t3, p3 = b.schedule(300)
        assert np.array_equal(t1, t2) and np.array_equal(p1, p2)
        assert np.array_equal(t1, t3) and np.array_equal(p1, p3)

    @pytest.mark.parametrize("kind", ["poisson", "onoff"])
    def test_different_seeds_differ(self, kind):
        t1, _ = make_source(kind, 64, 2.0, seed=0).schedule(200)
        t2, _ = make_source(kind, 64, 2.0, seed=1).schedule(200)
        assert not (t1.size == t2.size and np.array_equal(t1, t2))

    @pytest.mark.parametrize("kind", SOURCES.names())
    def test_calendar_shape(self, kind):
        times, pairs = make_source(kind, 32, 1.0, seed=3).schedule(250)
        assert times.ndim == 1 and pairs.shape == (times.size, 2)
        assert (np.diff(times) >= 0).all(), "times must be sorted"
        assert times.size == 0 or (0 <= times.min() and times.max() < 250)
        assert (pairs[:, 0] != pairs[:, 1]).all()
        assert pairs.min() >= 0 and pairs.max() < 32


class TestRates:
    def test_deterministic_exact_total(self):
        src = DeterministicSource(16, 0.75)
        times, _ = src.schedule(400)
        assert times.size == 300  # floor(400 * 0.75)

    def test_deterministic_smooth(self):
        """Integer rates put exactly `rate` packets on every cycle."""
        times, _ = DeterministicSource(16, 2.0).schedule(100)
        assert np.array_equal(np.bincount(times, minlength=100),
                              np.full(100, 2))

    def test_poisson_mean(self):
        times, _ = PoissonSource(64, 3.0, seed=5).schedule(4000)
        assert times.size / 4000 == pytest.approx(3.0, rel=0.1)

    def test_onoff_long_run_mean_matches_rate(self):
        src = OnOffSource(64, 4.0, mean_on=10, mean_off=30, seed=7)
        assert src.rate == pytest.approx(1.0)
        times, _ = src.schedule(20_000)
        assert times.size / 20_000 == pytest.approx(1.0, rel=0.15)

    def test_onoff_has_silent_stretches(self):
        """Burstiness: some cycles inject nothing even at high on-rate."""
        src = OnOffSource(64, 5.0, mean_on=5, mean_off=50, seed=1)
        times, _ = src.schedule(1000)
        counts = np.bincount(times, minlength=1000)
        assert (counts == 0).sum() > 500

    def test_make_source_onoff_rescales_to_mean(self):
        src = make_source("onoff", 64, 2.0, mean_on=10, mean_off=30)
        assert src.rate == pytest.approx(2.0)
        assert src.rate_on == pytest.approx(8.0)


class TestTraceSource:
    def test_replay_and_truncation(self):
        times = np.array([0, 0, 5, 9])
        pairs = np.array([[0, 1], [2, 3], [4, 5], [6, 7]])
        src = TraceSource(16, times, pairs)
        t, p = src.schedule(6)
        assert t.tolist() == [0, 0, 5]
        assert p.tolist() == [[0, 1], [2, 3], [4, 5]]

    def test_validation(self):
        with pytest.raises(ParameterError):
            TraceSource(16, np.array([3, 1]), np.array([[0, 1], [1, 2]]))
        with pytest.raises(ParameterError):
            TraceSource(16, np.array([0]), np.array([[2, 2]]))
        with pytest.raises(ParameterError):
            TraceSource(4, np.array([0]), np.array([[0, 9]]))


class TestValidation:
    def test_unknown_source_kind(self):
        with pytest.raises(ParameterError):
            make_source("bursty", 16, 1.0)

    def test_bad_rate(self):
        with pytest.raises(ParameterError):
            PoissonSource(16, 0.0)

    def test_bad_pattern(self):
        with pytest.raises(ParameterError):
            PoissonSource(16, 1.0, pattern="nope")

    def test_hotspot_pattern_pairs_stay_aligned(self):
        """hotspot rejects self-sends internally; the source must still
        deliver exactly as many pairs as arrivals."""
        src = PoissonSource(32, 2.0, pattern="hotspot", seed=2)
        times, pairs = src.schedule(500)
        assert times.size == pairs.shape[0]
        assert (pairs[:, 0] != pairs[:, 1]).all()
