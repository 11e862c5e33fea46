"""Benches DIL and SEALG: dilation accounting and SE-machine algorithms.

DIL: all-pairs route dilation — the reconfigured machine is provably at
zero, the bare machine stretches and disconnects.
SEALG: normal algorithms executed on shuffle-exchange edges only
(degree 3), including through faults via the φ∘ψ composition.

The tables are ``dil`` and ``sealg`` of the ``paper-figures`` report.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import (
    FaultTolerantSEMachine,
    bitonic_sort_on_shuffle_exchange,
    fft,
)
from repro.analysis import dilation_profile

from benchmarks.conftest import once


def test_dil_profile_speed(benchmark):
    """DIL (cost probe): all-pairs profile at h=5 (992 pairs x 2 machines)."""
    rec, det = benchmark(dilation_profile, 5, 2, [3, 17])
    assert rec.max_dilation == 0


def test_sealg_sort_speed(benchmark):
    keys = list(np.random.default_rng(0).integers(0, 10**6, size=128))
    out, _ = benchmark(bitonic_sort_on_shuffle_exchange, keys)
    assert out == sorted(keys)


def test_sealg_fft_through_faults(benchmark):
    m = FaultTolerantSEMachine(7, 2)
    m.fail_node(5)
    m.fail_node(99)
    x = np.random.default_rng(1).random(128) + 0j

    def run():
        return fft(x, backend="se", node_map=m.node_map())

    X, trace = once(benchmark, run)
    assert np.allclose(X, np.fft.fft(x))
    assert trace.verify_against(m.healthy_graph())


def test_sealg_se_round_factor(benchmark):
    """SE pays ~2 rounds/bit vs de Bruijn's 1 (the §I constant factor)."""
    from repro.algorithms import DeBruijnEmulation, ShuffleExchangeEmulation, descend_schedule

    h = 6

    def rounds():
        op = lambda b, i, a, p: a + p
        _, d = DeBruijnEmulation(h).run([0] * 64, descend_schedule(h), op)
        _, s = ShuffleExchangeEmulation(h).run([0] * 64, descend_schedule(h), op)
        return d.round_count, s.round_count

    db_rounds, se_rounds = once(benchmark, rounds)
    assert db_rounds == h
    assert h < se_rounds <= 2 * h + h
