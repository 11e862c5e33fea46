"""Path-dilation analysis: reconfiguration vs detours, quantified.

The paper's reconfiguration has a property the §I baseline lacks: *zero
dilation* — after remapping, every logical route has exactly its
fault-free length, because the lifted hops are single fault-tolerant-graph
edges.  Detour routing in the bare target graph stretches paths and can
disconnect pairs.  :func:`dilation_profile` measures both effects over
all healthy source/destination pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.debruijn import debruijn
from repro.graphs.properties import distance_matrix
from repro.routing.fault_routing import ReconfiguredRouter, survivor_route_table

__all__ = ["DilationProfile", "dilation_profile"]


@dataclass
class DilationProfile:
    """Distribution of (route length − fault-free length) over pairs."""

    machine: str
    pairs: int
    unreachable: int
    histogram: dict[int, int] = field(default_factory=dict)

    @property
    def max_dilation(self) -> int:
        return max(self.histogram) if self.histogram else 0

    @property
    def mean_dilation(self) -> float:
        total = sum(self.histogram.values())
        if not total:
            return 0.0
        return sum(d * c for d, c in self.histogram.items()) / total

    def row(self) -> dict:
        return {
            "machine": self.machine,
            "pairs": self.pairs,
            "unreachable": self.unreachable,
            "mean_dilation": round(self.mean_dilation, 3),
            "max_dilation": self.max_dilation,
        }


def dilation_profile(h: int, k: int, faults: list[int]) -> tuple[DilationProfile, DilationProfile]:
    """Compare dilation of (a) the reconfigured ``B^k_{2,h}`` machine and
    (b) detour routing in the bare ``B_{2,h}`` after the same logical
    faults.

    For (a), ``faults`` are physical FT-graph nodes; the logical machine
    is whole, so every pair is measured against its shift-route length.
    For (b), ``faults`` are target-graph nodes (ids < 2^h are applied;
    spare-only ids have no bare counterpart and are skipped); pairs with
    a faulty endpoint count as unreachable.
    """
    n = 1 << h
    target = debruijn(2, h)

    # (a) reconfigured machine
    router = ReconfiguredRouter(2, h, k)
    for f in faults:
        router.fail_node(f)
    rec_hist: dict[int, int] = {}
    rec_pairs = 0
    from repro.routing.shift_register import route_length

    for s in range(n):
        for d in range(n):
            if s == d:
                continue
            rec_pairs += 1
            dil = router.route_length(s, d) - route_length(s, d, 2, h)
            rec_hist[dil] = rec_hist.get(dil, 0) + 1
    rec = DilationProfile("reconfigured B^k", rec_pairs, 0, rec_hist)

    # (b) bare machine with detours (hop-optimal both sides for a fair
    # comparison: dilation vs fault-free BFS distance), every pair's hop
    # count read off one survivor table
    bare_faults = sorted({f for f in faults if f < n})
    src, dst = np.divmod(np.arange(n * n), n)
    off_diagonal = src != dst
    src, dst = src[off_diagonal], dst[off_diagonal]
    table = survivor_route_table(target, bare_faults)
    _, offsets, kept, _ = table.routes_batch_masked(src, dst)
    dil = np.diff(offsets) - 1 - distance_matrix(target)[src[kept], dst[kept]]
    values, counts = np.unique(dil, return_counts=True)
    det_hist = dict(zip(values.tolist(), counts.tolist()))
    det = DilationProfile(
        "bare dB + detours", src.size, src.size - kept.size, det_hist
    )
    return rec, det
