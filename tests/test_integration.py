"""Cross-layer integration tests: the whole stack in one motion.

Each test exercises at least three layers (constructions, routing,
simulation, algorithms, analysis) the way a downstream user would.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    FaultTolerantMachine,
    bitonic_sort_on_debruijn,
    fft,
)
from repro.core import (
    debruijn,
    embed_after_faults,
    exhaustive_tolerance_check,
    ft_debruijn,
    psi_map,
    samatham_pradhan,
    shuffle_exchange,
    sp_reconfigure,
)
from repro.graphs import is_connected, verify_embedding
from repro.routing import ReconfiguredRouter, RouteTable
from repro.simulator import (
    FaultScenario,
    NetworkSimulator,
    ReconfigurationController,
    permutation_traffic,
    uniform_traffic,
)


class TestFullStack:
    def test_construct_route_simulate_after_faults(self, rng):
        """B^2_{2,5} -> fail 2 nodes -> lifted routing tables -> simulate
        a permutation -> everything delivered on healthy hardware."""
        m, h, k = 2, 5, 2
        router = ReconfiguredRouter(m, h, k)
        router.fail_node(7)
        router.fail_node(20)
        sim = NetworkSimulator(router.ft)
        traffic = permutation_traffic(1 << h, rng)
        sim.inject(
            [(int(s), int(d)) for s, d in traffic],
            router.physical_route,
        )
        sim.run()
        stats = sim.stats()
        assert stats.delivered == traffic.shape[0]
        assert stats.dropped == 0

    def test_sp_baseline_vs_ours_same_guarantee(self):
        """Both constructions sustain the same target after one fault —
        just at wildly different node budgets."""
        m, h, k = 2, 3, 1
        target = debruijn(m, h)
        ours = ft_debruijn(m, h, k)
        theirs = samatham_pradhan(m, h, k)
        fault_ours = 3
        phi = embed_after_faults(ours, target, faults=[fault_ours])
        assert verify_embedding(target, ours, phi)
        copy = sp_reconfigure(m, h, k, [17])
        assert verify_embedding(target, theirs, copy)
        assert theirs.node_count / ours.node_count > 7

    def test_se_machine_through_routing_tables(self):
        """FT shuffle-exchange: route over the embedded SE edges using a
        compiled table on the image graph."""
        h, k = 4, 1
        ft = ft_debruijn(2, h, k)
        se = shuffle_exchange(h)
        nm = embed_after_faults(ft, se, faults=[9], logical_map=psi_map(h))
        # image graph: SE edges placed on physical nodes
        from repro.graphs import StaticGraph

        e = se.edges()
        image = StaticGraph(ft.node_count, np.column_stack([nm[e[:, 0]], nm[e[:, 1]]]))
        # the image is connected on its support; route between two hosts
        p = RouteTable.compile(image).route(int(nm[0]), int(nm[13]))
        assert p[0] == int(nm[0]) and p[-1] == int(nm[13])
        for a, b in zip(p, p[1:]):
            assert image.has_edge(a, b)
            assert ft.has_edge(a, b)  # and each is physical FT hardware

    def test_algorithms_and_tolerance_agree_on_budget(self):
        """Failing k+1 nodes must be rejected everywhere consistently."""
        h, k = 3, 2
        mach = FaultTolerantMachine(h, k)
        mach.fail_node(0)
        mach.fail_node(5)
        with pytest.raises(Exception):
            mach.fail_node(7)
        # while <= k faults keep the guarantee:
        rep = exhaustive_tolerance_check(mach.ft, debruijn(2, h), k)
        assert rep.ok

    def test_controller_with_staggered_faults_and_algorithms(self, rng):
        """Simulated traffic *and* an algorithm run share one machine
        state through a fault sequence."""
        m, h, k = 2, 4, 2
        ctrl = ReconfigurationController(m, h, k)
        ctrl.schedule(FaultScenario([(0, 2), (0, 12)]))
        stats = ctrl.run_workload([uniform_traffic(16, 80, rng)])
        assert stats.delivered == 80
        # same fault set drives the algorithm layer
        keys = list(rng.integers(0, 99, size=16))
        phi = ctrl.rec.phi()
        out, trace = bitonic_sort_on_debruijn(keys, node_map=phi)
        assert out == sorted(keys)
        healthy, _ = ctrl.ft.without_nodes(list(ctrl.rec.faults))
        assert is_connected(healthy)

    def test_fft_numerics_unaffected_by_remap_choice(self):
        """Any legal fault set yields bit-identical FFT results."""
        h, k = 4, 2
        x = np.random.default_rng(0).random(16) + 0j
        results = []
        for faults in ([], [0], [17], [3, 9]):
            m = FaultTolerantMachine(h, k)
            for f in faults:
                m.fail_node(f)
            X, _ = fft(x, backend="debruijn", node_map=m.rec.phi())
            results.append(X)
        for r in results[1:]:
            assert np.array_equal(results[0], r)
