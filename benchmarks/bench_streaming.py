"""Bench STREAM: open-loop streaming injection and saturation search.

Measures the two claims the streaming subsystem makes: (1) the batch
engine's epoch drain (timed injection, then ``run(until=)``) stays
within a small constant of its closed-loop drain speed (per-cycle
arrivals must not reintroduce a per-cycle Python loop over idle
cycles), and (2) the cross-engine golden holds under sustained load, so
saturation curves are engine-independent.
"""

from __future__ import annotations

import numpy as np

from repro.experiments import ExperimentSpec
from repro.simulator import (
    PoissonSource,
    ReconfigurationController,
    find_saturation,
    run_stream,
)

from benchmarks.conftest import once


def test_stream_heavy_traffic_batch(benchmark):
    """200k packets streamed open-loop through the batch engine."""
    ctrl = ReconfigurationController(2, 9, 1, engine="batch")
    src = PoissonSource(512, 50.0, seed=0)

    stats = once(
        benchmark, run_stream, ctrl, src, cycles=4000, warmup=500, window=500
    )
    assert stats.offered > 150_000
    assert stats.delivery_ratio > 0.95  # 50 pkt/cy is well below saturation
    assert len(stats.windows) == 8


def test_stream_engines_agree_under_load(benchmark):
    """The golden contract, at bench scale with a mid-stream fault."""
    from repro.simulator import FaultScenario

    def both():
        out = {}
        for engine in ("object", "batch"):
            ctrl = ReconfigurationController(2, 6, 1, engine=engine)
            ctrl.schedule(FaultScenario([(200, 11)]))
            src = PoissonSource(64, 8.0, seed=4)
            out[engine] = run_stream(ctrl, src, cycles=800, warmup=100,
                                     window=100)
        return out

    out = once(benchmark, both)
    assert out["object"] == out["batch"]


def test_saturation_search(benchmark):
    """A full bisected saturation search on B^1_{2,6}."""
    base = ExperimentSpec(m=2, h=6, k=1, loop="stream", cycles=800,
                          warmup=150, seed=0)
    rates = list(64 * np.array([1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0]))

    res = once(benchmark, find_saturation, base, rates,
               bisect=4, workers=0)
    assert res.bracketed
    # the machine saturates strictly inside the ladder
    assert rates[0] < res.saturation_rate < rates[-1]
