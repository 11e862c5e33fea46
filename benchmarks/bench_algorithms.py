"""Bench ALGS: Ascend/Descend workloads across machines.

Times bitonic sort / FFT / prefix on the hypercube runner, the de Bruijn
emulation, and the reconfigured fault-tolerant machine, asserting
correctness and the constant-factor round relationship everywhere.  The
32-node table is ``algs`` in the ``paper-figures`` report.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import (
    FaultTolerantMachine,
    allreduce,
    bitonic_sort_on_debruijn,
    bitonic_sort_on_hypercube,
    exclusive_prefix,
    fft,
)

from benchmarks.conftest import once


def test_algs_bitonic_hypercube_speed(benchmark):
    keys = list(np.random.default_rng(0).integers(0, 10**6, size=256))
    out, _ = benchmark(bitonic_sort_on_hypercube, keys)
    assert out == sorted(keys)


def test_algs_bitonic_debruijn_speed(benchmark):
    keys = list(np.random.default_rng(0).integers(0, 10**6, size=256))
    out, _ = benchmark(bitonic_sort_on_debruijn, keys)
    assert out == sorted(keys)


def test_algs_bitonic_faulty_machine_speed(benchmark):
    m = FaultTolerantMachine(8, 3)
    for f in (3, 100, 250):
        m.fail_node(f)
    keys = list(np.random.default_rng(0).integers(0, 10**6, size=256))
    out, trace = benchmark(bitonic_sort_on_debruijn, keys, m.rec.phi())
    assert out == sorted(keys)
    assert trace.verify_against(m.healthy_graph())


def test_algs_fft_speed(benchmark):
    x = np.random.default_rng(1).random(512) + 0j
    X, _ = benchmark(fft, x)
    assert np.allclose(X, np.fft.fft(x))


def test_algs_prefix_speed(benchmark):
    vals = list(range(512))
    out, _ = benchmark(exclusive_prefix, vals)
    assert out[-1] == sum(range(511))


def test_algs_allreduce_round_count(benchmark):
    """Allreduce (ascend) costs <= 3h+h rounds on de Bruijn vs h on the
    hypercube — the constant-factor claim, measured."""

    def rounds():
        h = 7
        vals = list(range(1 << h))
        _, dtr = allreduce(vals, backend="debruijn")
        _, htr = allreduce(vals, backend="hypercube")
        return dtr.round_count, htr.round_count

    d, hh = once(benchmark, rounds)
    assert hh == 7
    assert d <= 4 * hh
