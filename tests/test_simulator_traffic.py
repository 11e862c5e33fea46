"""Tests for traffic patterns and metric aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.simulator import (
    Packet,
    PacketArrays,
    ShardStats,
    all_to_all_traffic,
    bit_reversal_traffic,
    descend_superstep_traffic,
    hotspot_traffic,
    permutation_traffic,
    transpose_traffic,
    uniform_traffic,
)


class TestTrafficPatterns:
    def test_uniform_no_self(self, rng):
        t = uniform_traffic(16, 500, rng)
        assert t.shape == (500, 2)
        assert (t[:, 0] != t[:, 1]).all()
        assert t.min() >= 0 and t.max() < 16

    def test_uniform_covers_sources(self, rng):
        t = uniform_traffic(8, 2000, rng)
        assert set(np.unique(t[:, 0])) == set(range(8))

    def test_uniform_validation(self, rng):
        with pytest.raises(ParameterError):
            uniform_traffic(1, 10, rng)

    def test_transpose(self):
        t = transpose_traffic(16)
        pairs = {(int(a), int(b)) for a, b in t}
        assert (1, 4) in pairs  # (0,1) -> (1,0) on 4x4 grid
        assert all((b * 4 % 16 + b // 4) != 0 or True for a, b in t)

    def test_transpose_needs_square(self):
        with pytest.raises(ParameterError):
            transpose_traffic(8)

    def test_bit_reversal(self):
        t = bit_reversal_traffic(8)
        pairs = {(int(a), int(b)) for a, b in t}
        assert (1, 4) in pairs  # 001 -> 100
        assert (3, 6) in pairs  # 011 -> 110
        assert all(a != b for a, b in pairs)

    def test_bit_reversal_pow2_only(self):
        with pytest.raises(ParameterError):
            bit_reversal_traffic(6)

    def test_hotspot_concentrates(self, rng):
        t = hotspot_traffic(32, 2000, rng, hotspot=3, heat=0.5)
        frac = (t[:, 1] == 3).mean()
        assert frac > 0.3

    def test_hotspot_heat_range(self, rng):
        with pytest.raises(ParameterError):
            hotspot_traffic(8, 10, rng, heat=1.5)

    def test_permutation(self, rng):
        t = permutation_traffic(16, rng)
        assert len(set(map(int, t[:, 0]))) == t.shape[0]
        assert len(set(map(int, t[:, 1]))) == t.shape[0]

    def test_all_to_all(self):
        t = all_to_all_traffic(5)
        assert t.shape == (20, 2)

    def test_descend_superstep(self):
        t = descend_superstep_traffic(8)
        pairs = {(int(a), int(b)) for a, b in t}
        assert (1, 2) in pairs and (1, 3) in pairs
        assert (0, 1) in pairs  # 2*0+1
        assert (0, 0) not in pairs


def _summarize(packets, cycles):
    return ShardStats.from_arrays(PacketArrays.from_packets(packets), cycles)


class TestMetrics:
    def test_summarize_empty(self):
        st = _summarize([], 10)
        assert st.delivered == 0 and st.mean_latency == 0.0

    def test_summarize_mixed(self):
        a = Packet(0, [0, 1], 0, delivered_at=4)
        b = Packet(1, [0, 1, 2], 0, delivered_at=8)
        c = Packet(2, [0, 1], 0)
        c.dropped = True
        st = _summarize([a, b, c], 10)
        assert st.injected == 3 and st.delivered == 2 and st.dropped == 1
        assert st.mean_latency == 6.0
        assert st.max_latency == 8
        assert st.mean_hops == 1.5
        assert st.throughput == pytest.approx(0.2)
