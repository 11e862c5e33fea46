"""Tests for the shuffle-exchange emulation and the FT-SE machine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    FaultTolerantSEMachine,
    ShuffleExchangeEmulation,
    allreduce,
    ascend_schedule,
    bitonic_sort_on_shuffle_exchange,
    descend_schedule,
    exclusive_prefix,
    fft,
    run_reference,
)
from repro.core import shuffle_exchange
from repro.errors import ParameterError


def xor_op(bit, i, own, partner):
    return (own + partner) if ((i >> bit) & 1) == 0 else (partner - own)


class TestShuffleExchangeEmulation:
    @pytest.mark.parametrize("h", [3, 4, 5])
    @pytest.mark.parametrize("direction", ["descend", "ascend"])
    def test_matches_reference(self, h, direction):
        sched = descend_schedule(h) if direction == "descend" else ascend_schedule(h)
        vals = list(np.random.default_rng(h).integers(0, 100, size=1 << h))
        ref = run_reference(h, vals, sched, xor_op)
        out, _ = ShuffleExchangeEmulation(h).run(vals, sched, xor_op)
        assert out == ref

    @pytest.mark.parametrize("h", [3, 4, 5])
    def test_trace_stays_on_se_edges(self, h):
        """The defining property: all traffic rides SE shuffle/exchange
        edges only (degree 3!)."""
        _, trace = ShuffleExchangeEmulation(h).run(
            list(range(1 << h)), descend_schedule(h), xor_op
        )
        assert trace.verify_against(shuffle_exchange(h))

    def test_descend_costs_about_2h_rounds(self):
        """SE pays one shuffle + one exchange per bit: ~2h rounds, the
        classic factor-2 against de Bruijn's h."""
        h = 5
        _, trace = ShuffleExchangeEmulation(h).run(
            list(range(32)), descend_schedule(h), xor_op
        )
        assert h < trace.round_count <= 2 * h + h  # + final realignment

    def test_arbitrary_schedule(self):
        h = 4
        sched = [1, 3, 0, 2, 2]
        vals = list(np.random.default_rng(0).integers(0, 50, size=16))
        ref = run_reference(h, vals, sched, xor_op)
        out, trace = ShuffleExchangeEmulation(h).run(vals, sched, xor_op)
        assert out == ref
        assert trace.verify_against(shuffle_exchange(h))

    def test_validation(self):
        with pytest.raises(ParameterError):
            ShuffleExchangeEmulation(3, node_map=np.arange(4))
        with pytest.raises(ParameterError):
            ShuffleExchangeEmulation(3).run([1], [0], xor_op)
        with pytest.raises(ParameterError):
            ShuffleExchangeEmulation(3).run(list(range(8)), [9], xor_op)


class TestSEBackends:
    def test_bitonic_on_se(self):
        keys = list(np.random.default_rng(1).integers(0, 999, size=32))
        out, trace = bitonic_sort_on_shuffle_exchange(keys)
        assert out == sorted(keys)
        assert trace.verify_against(shuffle_exchange(5))

    def test_fft_on_se(self):
        x = np.random.default_rng(2).random(32) + 0j
        X, trace = fft(x, backend="shuffle-exchange")
        assert np.allclose(X, np.fft.fft(x))
        assert trace.verify_against(shuffle_exchange(5))

    def test_collectives_on_se(self):
        vals = list(range(16))
        red, _ = allreduce(vals, backend="se")
        assert red == [sum(vals)] * 16
        pre, _ = exclusive_prefix(vals, backend="se")
        assert pre == [sum(vals[:i]) for i in range(16)]


class TestFaultTolerantSEMachine:
    def test_node_map_composes_phi_psi(self):
        m = FaultTolerantSEMachine(4, 1)
        nm = m.node_map()
        assert np.array_equal(nm, m.rec.phi()[m.psi])

    def test_sort_through_two_faults(self):
        m = FaultTolerantSEMachine(5, 2)
        m.fail_node(4)
        m.fail_node(21)
        keys = list(np.random.default_rng(3).integers(0, 999, size=32))
        out, trace = bitonic_sort_on_shuffle_exchange(keys, node_map=m.node_map())
        assert out == sorted(keys)
        assert trace.verify_against(m.healthy_graph())
        for msgs in trace.rounds:
            for a, b in msgs:
                assert a not in (4, 21) and b not in (4, 21)

    def test_run_verifies(self):
        m = FaultTolerantSEMachine(3, 1)
        m.fail_node(2)
        vals, trace = m.run(list(range(8)), descend_schedule(3), xor_op)
        ref = run_reference(3, list(range(8)), descend_schedule(3), xor_op)
        assert vals == ref

    def test_repair(self):
        m = FaultTolerantSEMachine(3, 1)
        m.fail_node(1)
        assert m.faults == (1,)
        m.repair_node(1)
        assert m.faults == ()

    def test_fft_on_ft_se(self):
        m = FaultTolerantSEMachine(4, 2)
        m.fail_node(0)
        x = np.random.default_rng(4).random(16) + 0j
        X, trace = fft(x, backend="se", node_map=m.node_map())
        assert np.allclose(X, np.fft.fft(x))
        assert trace.verify_against(m.healthy_graph())
