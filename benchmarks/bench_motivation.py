"""Bench MOTIV: the §I motivation experiment on the simulator.

A 32-node de Bruijn machine loses two processors.  The bare machine
drops every message to/from the dead nodes and stretches detoured paths;
the fault-tolerant machine reconfigures and delivers everything with
unchanged hop counts.  The three-machine table is ``motiv`` of the
``paper-figures`` report.
"""

from __future__ import annotations

import numpy as np

from repro.simulator import (
    DetourController,
    FaultScenario,
    ReconfigurationController,
    uniform_traffic,
)

from benchmarks.conftest import once


def test_motiv_zero_dilation_hops(benchmark):
    """Mean hop count identical before/after faults on the FT machine."""
    pairs = uniform_traffic(32, 400, np.random.default_rng(99))

    def run_pair():
        clean = ReconfigurationController(2, 5, 2)
        s0 = clean.run_workload([pairs.copy()])
        faulty = ReconfigurationController(2, 5, 2)
        faulty.schedule(FaultScenario([(0, 3), (0, 17)]))
        s1 = faulty.run_workload([pairs.copy()])
        return s0, s1

    s0, s1 = once(benchmark, run_pair)
    assert s0.delivered == s1.delivered == 400
    assert s0.mean_hops == s1.mean_hops


def test_motiv_detour_degradation(benchmark):
    """The bare machine's loss rate grows with the fault count."""

    def losses():
        out = []
        for faults in ([5], [5, 9], [5, 9, 22]):
            det = DetourController(2, 5)
            for f in faults:
                det.fail_node(f)
            det.run_workload([uniform_traffic(32, 300, np.random.default_rng(1))])
            out.append(det.unreachable_pairs)
        return out

    seq = once(benchmark, losses)
    assert seq[0] > 0
    assert seq == sorted(seq)  # monotone degradation
