"""Long-horizon churn stress tests: fault/repair sequences with invariants
checked at every step (failure-injection soak testing)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import FaultTolerantMachine, bitonic_sort_on_debruijn
from repro.core import debruijn, ft_debruijn
from repro.core.reconfiguration import Reconfigurator
from repro.errors import FaultSetError
from repro.graphs import is_connected, verify_embedding
from repro.routing import ReconfiguredRouter
from repro.simulator import BatchEngine, uniform_traffic
from repro.routing.shift_register import shift_route
from tests.conformance.harness import NetworkSimulator


class TestReconfiguratorChurn:
    def test_hundred_step_churn_invariants(self, rng):
        """Random fail/repair churn: after every step, phi is a valid
        embedding certificate and delta respects Lemma 1."""
        h, k = 4, 3
        ft = ft_debruijn(2, h, k)
        target = debruijn(2, h)
        rec = Reconfigurator(ft.node_count, target.node_count)
        live_faults: set[int] = set()
        for step in range(100):
            if live_faults and (len(live_faults) >= k or rng.random() < 0.45):
                v = int(rng.choice(sorted(live_faults)))
                rec.repair_node(v)
                live_faults.remove(v)
            else:
                v = int(rng.integers(0, ft.node_count))
                if v in live_faults:
                    continue
                rec.fail_node(v)
                live_faults.add(v)
            phi = rec.phi()
            assert verify_embedding(target, ft, phi)
            delta = rec.delta()
            assert (np.diff(delta) >= 0).all()
            assert 0 <= delta.min() and delta.max() <= k

    def test_budget_never_exceeded_under_pressure(self, rng):
        rec = Reconfigurator(20, 16)
        added = 0
        for v in rng.permutation(20):
            try:
                rec.fail_node(int(v))
                added += 1
            except FaultSetError:
                break
        assert added == 4  # exactly the spare budget


class TestRouterChurn:
    def test_routes_always_valid_through_churn(self, rng):
        h, k = 4, 2
        router = ReconfiguredRouter(2, h, k)
        failed: list[int] = []
        for step in range(30):
            if failed and (len(failed) >= k or rng.random() < 0.5):
                router.repair_node(failed.pop())
            else:
                v = int(rng.integers(0, router.ft.node_count))
                if v in failed:
                    continue
                router.fail_node(v)
                failed.append(v)
            s, d = int(rng.integers(0, 16)), int(rng.integers(0, 16))
            p = router.physical_route(s, d)
            for f in failed:
                assert f not in p
            assert len(p) - 1 == len(router.logical_route(s, d)) - 1


class TestMachineChurnWithWorkloads:
    def test_sort_correct_after_every_fault_step(self, rng):
        h, k = 4, 3
        m = FaultTolerantMachine(h, k)
        keys = list(map(int, rng.integers(0, 1000, size=16)))
        expected = sorted(keys)
        for fault in rng.choice(m.ft.node_count, size=k, replace=False):
            m.fail_node(int(fault))
            out, trace = bitonic_sort_on_debruijn(keys, node_map=m.rec.phi())
            assert out == expected
            assert trace.verify_against(m.healthy_graph())

    def test_survivor_graph_connectivity_through_max_faults(self, rng):
        """The healthy portion of B^k stays connected under any k faults
        sampled (necessary for single-machine operation)."""
        h, k = 4, 3
        ft = ft_debruijn(2, h, k)
        for _ in range(25):
            faults = rng.choice(ft.node_count, size=k, replace=False)
            sub, _ = ft.without_nodes(faults)
            assert is_connected(sub)


class TestSimulatorSoak:
    @pytest.mark.parametrize("engine", [BatchEngine, NetworkSimulator],
                             ids=["batch", "object"])
    def test_repeated_batches_with_midstream_faults(self, engine, rng):
        """Inject, fail, reconfigure, inject again — conservation and
        delivery hold across 10 rounds."""
        h, k = 4, 2
        ft = ft_debruijn(2, h, k)
        target_n = 1 << h
        rec = Reconfigurator(ft.node_count, target_n)
        sim = engine(ft)
        total_expected = 0
        for round_no in range(10):
            if round_no in (3, 7) and len(rec.faults) < k:
                candidates = [v for v in range(ft.node_count) if v not in rec.faults]
                victim = int(rng.choice(candidates))
                rec.fail_node(victim)
                sim.disable_node(victim)
            phi = rec.phi()
            batch = uniform_traffic(target_n, 30, rng)
            for s, d in batch:
                logical = shift_route(int(s), int(d), 2, h)
                sim.inject_route([int(phi[v]) for v in logical])
            total_expected += 30
            sim.run()
        stats = sim.stats()
        assert stats.injected == total_expected
        assert stats.delivered == total_expected  # all post-fault routes healthy
        assert stats.dropped == 0
