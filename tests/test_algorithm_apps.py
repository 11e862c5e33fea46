"""Tests for bitonic sort, collectives, FFT, and the FT machine wrapper."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    FaultTolerantMachine,
    allreduce,
    bit_reverse_indices,
    bitonic_sort_on_debruijn,
    bitonic_sort_on_hypercube,
    bitonic_sort_reference,
    bitonic_steps,
    broadcast,
    descend_schedule,
    exclusive_prefix,
    fft,
)
from repro.algorithms.bitonic import bitonic_compare_op
from repro.core import debruijn
from repro.errors import ParameterError


class TestBitonic:
    def test_steps_count(self):
        assert len(bitonic_steps(4)) == 10  # h(h+1)/2

    @pytest.mark.parametrize("h", [1, 2, 3, 4, 5])
    def test_sorts_random(self, h):
        rng = np.random.default_rng(h)
        vals = list(rng.integers(0, 1000, size=1 << h))
        assert bitonic_sort_reference(vals) == sorted(vals)

    @pytest.mark.parametrize("h", [2, 3, 4])
    def test_debruijn_sorts_and_verifies(self, h):
        rng = np.random.default_rng(h + 10)
        vals = list(rng.integers(0, 1000, size=1 << h))
        out, trace = bitonic_sort_on_debruijn(vals)
        assert out == sorted(vals)
        assert trace.verify_against(debruijn(2, max(h, 1)))

    def test_sorts_with_duplicates(self):
        vals = [5, 1, 5, 1, 5, 1, 5, 1]
        assert bitonic_sort_reference(vals) == sorted(vals)

    def test_sorts_descending_input(self):
        vals = list(range(16, 0, -1))
        out, _ = bitonic_sort_on_hypercube(vals)
        assert out == sorted(vals)

    def test_non_pow2_rejected(self):
        with pytest.raises(ParameterError):
            bitonic_sort_on_debruijn([1, 2, 3])

    @given(seed=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_property_sorts(self, seed):
        rng = np.random.default_rng(seed)
        vals = list(rng.integers(-100, 100, size=16))
        assert bitonic_sort_reference(vals) == sorted(vals)


class TestCollectives:
    @pytest.mark.parametrize("backend", ["hypercube", "debruijn"])
    def test_allreduce(self, backend):
        vals = list(range(1, 17))
        out, trace = allreduce(vals, backend=backend)
        assert out == [sum(vals)] * 16

    def test_allreduce_round_counts(self):
        """Allreduce is an ascend: h rounds on the hypercube, within a
        constant factor (at most 4h) on de Bruijn, h=7."""
        h = 7
        vals = list(range(1 << h))
        hout, htr = allreduce(vals, backend="hypercube")
        dout, dtr = allreduce(vals, backend="debruijn")
        assert hout == dout == [sum(vals)] * (1 << h)
        assert htr.round_count == h
        assert dtr.round_count <= 4 * h

    def test_allreduce_custom_combine(self):
        vals = [3, 1, 4, 1, 5, 9, 2, 6]
        out, _ = allreduce(vals, combine=max)
        assert out == [9] * 8

    @pytest.mark.parametrize("backend", ["hypercube", "debruijn"])
    def test_exclusive_prefix(self, backend):
        vals = list(range(16))
        out, _ = exclusive_prefix(vals, backend=backend)
        assert out == [sum(vals[:i]) for i in range(16)]

    def test_prefix_non_commutative_concat(self):
        """Scan over string concatenation (associative, non-commutative)."""
        vals = [chr(ord("a") + i) for i in range(8)]
        out, _ = exclusive_prefix(vals, combine=lambda a, b: a + b, zero="")
        assert out == ["", "a", "ab", "abc", "abcd", "abcde", "abcdef", "abcdefg"]

    @pytest.mark.parametrize("root", [0, 5, 15])
    def test_broadcast(self, root):
        out, _ = broadcast("payload", root, 16)
        assert out == ["payload"] * 16

    def test_broadcast_root_range(self):
        with pytest.raises(ParameterError):
            broadcast(1, 16, 16)

    def test_bad_backend(self):
        with pytest.raises(ParameterError):
            allreduce(list(range(8)), backend="quantum")

    def test_non_pow2_rejected(self):
        with pytest.raises(ParameterError):
            allreduce([1, 2, 3])


class TestFFT:
    def test_bit_reverse_indices(self):
        assert list(bit_reverse_indices(3)) == [0, 4, 2, 6, 1, 5, 3, 7]

    @pytest.mark.parametrize("h", [2, 3, 4, 5])
    @pytest.mark.parametrize("backend", ["hypercube", "debruijn"])
    def test_matches_numpy(self, h, backend):
        rng = np.random.default_rng(h)
        x = rng.random(1 << h) + 1j * rng.random(1 << h)
        X, _ = fft(x, backend=backend)
        assert np.allclose(X, np.fft.fft(x))

    def test_impulse(self):
        x = np.zeros(8)
        x[0] = 1.0
        X, _ = fft(x)
        assert np.allclose(X, np.ones(8))

    def test_non_pow2_rejected(self):
        with pytest.raises(ParameterError):
            fft(np.ones(12))

    def test_trace_on_debruijn(self):
        x = np.arange(16, dtype=float)
        _, trace = fft(x, backend="debruijn")
        assert trace.verify_against(debruijn(2, 4))


class TestFaultTolerantMachine:
    def test_run_without_faults(self):
        m = FaultTolerantMachine(3, 1)
        rec = m.run(list(range(8)), descend_schedule(3), bitonic_compare_op(3))
        assert rec.faults == ()
        assert rec.rounds >= 3

    def test_run_with_faults_sorts(self):
        m = FaultTolerantMachine(4, 2)
        m.fail_node(0)
        m.fail_node(17)
        rng = np.random.default_rng(3)
        vals = list(rng.integers(0, 99, size=16))
        out, trace = bitonic_sort_on_debruijn(vals, node_map=m.rec.phi())
        assert out == sorted(vals)
        assert trace.verify_against(m.healthy_graph())

    def test_healthy_graph_isolates_faults(self):
        m = FaultTolerantMachine(3, 2)
        m.fail_node(4)
        g = m.healthy_graph()
        assert g.degree(4) == 0
        assert g.node_count == m.ft.node_count

    def test_fft_on_faulty_machine(self):
        m = FaultTolerantMachine(4, 1)
        m.fail_node(9)
        rng = np.random.default_rng(4)
        x = rng.random(16) + 1j * rng.random(16)
        X, trace = fft(x, backend="debruijn", node_map=m.rec.phi())
        assert np.allclose(X, np.fft.fft(x))
        assert trace.verify_against(m.healthy_graph())

    def test_repair(self):
        m = FaultTolerantMachine(3, 1)
        m.fail_node(2)
        m.repair_node(2)
        assert m.faults == ()
