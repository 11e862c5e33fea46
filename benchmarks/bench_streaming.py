"""Bench STREAM: open-loop streaming injection and saturation search.

Measures the batch engine's epoch drain (timed injection, then
``run(until=)``): it stays within a small constant of its closed-loop
drain speed (per-cycle arrivals must not reintroduce a per-cycle Python
loop over idle cycles), and a bisected saturation search stays cheap.
The batch engine's equality with the per-packet witness under streaming
load is tier-1 (``tests/test_streaming.py``).
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
    ctrl = ReconfigurationController(2, 9, 1)
    src = PoissonSource(512, 50.0, seed=0)

    stats = once(
        benchmark, run_stream, ctrl, src, cycles=4000, warmup=500, window=500
    )
    assert stats.offered > 150_000
    assert stats.delivery_ratio > 0.95  # 50 pkt/cy is well below saturation
    assert len(stats.windows) == 8


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
