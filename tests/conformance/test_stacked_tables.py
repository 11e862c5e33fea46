"""Stacked survivor tables: one sweep for many fault sets, one walk for
every set's pairs.

``survivor_route_table(g, sets)`` on a list of ``R`` fault sets compiles
the ``(R, n, n)`` stack of their tables in one bit-parallel sweep, and
``RouteTable.routes_batch_masked(srcs, dsts, which)`` walks each pair
through the table ``which`` names, every pair of the stack in one pass.
A stack must change no table and no route:

1. each layer is bit for bit the table
   ``RouteTable.compile(g, faulty=set)`` compiles alone, and its decoded
   view is the dict reference's (:class:`~tests.conformance.harness.DictGraph`);
2. the stacked walk's ``(flat, offsets, kept, hop)`` is, pair for pair,
   each table's own ``routes_batch_masked``, dead self-pairs included,
   and its slots are one ``directed_edge_slots`` search
   (:func:`~tests.conformance.harness.searched_slots`).

Hypothesis draws the stacks on every ``SIZES`` machine and on
``star(300)`` (the ``uint16`` rank path), mixing empty, repeated,
disconnecting and all-dead sets.  The detour route hook cuts a replica
block's stack by its table-byte budget; with a budget that forces
several sweeps, every table and route is still each set's own.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.simulator.faults as faults_mod
from repro.core.debruijn import debruijn
from repro.errors import RoutingError
from repro.graphs.builders import star
from repro.routing import RouteTable, survivor_route_table
from repro.simulator import DetourController
from tests.conformance.harness import SIZES, DictGraph, searched_slots

#: What a drawn stack layer holds: a few random faults, nothing, a copy
#: of an earlier layer, half the machine (the survivors shatter), or
#: every node.
KINDS = ("random", "empty", "repeat", "disconnecting", "all_dead")

MACHINES = {f"debruijn({m},{h})": (lambda m=m, h=h: debruijn(m, h)) for m, h in SIZES}
MACHINES["star(300)"] = lambda: star(300)  # hub ranks reach 298: uint16


def _draw_sets(kinds, n, seed) -> list[frozenset]:
    rng = np.random.default_rng(seed)
    sets = []
    for kind in kinds:
        if kind == "random":
            fs = rng.choice(n, size=int(rng.integers(1, 6)), replace=False)
        elif kind == "repeat" and sets:
            fs = sets[int(rng.integers(len(sets)))]
        elif kind == "disconnecting":
            fs = rng.choice(n, size=n // 2, replace=False)
        elif kind == "all_dead":
            fs = range(n)
        else:
            fs = ()
        sets.append(frozenset(int(v) for v in fs))
    return sets


def _solo_walks(g, sets, srcs, dsts, which):
    """The stacked walk's expected output, assembled in pair order from
    each set's own table and its solo ``routes_batch_masked``."""
    routes = {}
    for r, fs in enumerate(sets):
        sel = np.flatnonzero(which == r)
        flat, offsets, kept, hop = RouteTable.compile(g, faulty=fs).routes_batch_masked(
            srcs[sel], dsts[sel]
        )
        for j, i in enumerate(sel[kept].tolist()):
            lo, hi = offsets[j], offsets[j + 1]
            routes[i] = (flat[lo:hi], hop[lo:hi])
    kept = np.array(sorted(routes), dtype=np.int64)
    parts = [routes[i] for i in kept.tolist()]
    offsets = np.zeros(len(parts) + 1, dtype=np.int64)
    np.cumsum([f.size for f, _ in parts], out=offsets[1:])
    flat = np.concatenate([f for f, _ in parts] or [np.zeros(0, np.int64)])
    hop = np.concatenate([h for _, h in parts] or [np.zeros(0, np.int64)])
    return flat, offsets, kept, hop


def _stack_case(name, kinds, seed):
    g = MACHINES[name]()
    return g, _draw_sets(kinds, g.node_count, seed)


_stacks = st.lists(st.sampled_from(KINDS), min_size=1, max_size=6)
_seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestStackedCompile:
    @pytest.mark.parametrize("name", sorted(MACHINES))
    @settings(max_examples=8, deadline=None)
    @given(kinds=_stacks, seed=_seeds)
    @example(kinds=list(KINDS), seed=0)
    def test_each_layer_is_its_own_table(self, name, kinds, seed):
        g, sets = _stack_case(name, kinds, seed)
        n = g.node_count
        ref = DictGraph(n, g.iter_edges())
        stack = survivor_route_table(g, sets)
        assert stack.table.shape == (len(sets), n, n)
        assert stack.table.dtype == (np.uint16 if name == "star(300)" else np.uint8)
        for layer, fs in zip(stack.table, sets):
            alone = RouteTable.compile(g, faulty=fs)
            np.testing.assert_array_equal(layer, alone.table)
            decoded = RouteTable(layer, g.row_offsets, g.col_indices).next_hops()
            assert decoded.tolist() == ref.compile_table(faulty=fs)


class TestStackedWalk:
    @pytest.mark.parametrize("name", sorted(MACHINES))
    @settings(max_examples=10, deadline=None)
    @given(kinds=_stacks, seed=_seeds,
           packets=st.integers(min_value=0, max_value=120))
    @example(kinds=list(KINDS), seed=0, packets=60)
    def test_every_pair_walks_its_own_table(self, name, kinds, seed, packets):
        g, sets = _stack_case(name, kinds, seed)
        n, R = g.node_count, len(sets)
        rng = np.random.default_rng(seed)
        # random pairs on random layers, then every node's self-pair, so
        # each layer's dead nodes refuse even the trivial route
        srcs = np.concatenate([rng.integers(0, n, packets), np.arange(n)])
        dsts = np.concatenate([rng.integers(0, n, packets), np.arange(n)])
        which = np.concatenate([rng.integers(0, R, packets), np.arange(n) % R])
        got = survivor_route_table(g, sets).routes_batch_masked(srcs, dsts, which)
        want = _solo_walks(g, sets, srcs, dsts, which)
        for label, a, b in zip(("flat", "offsets", "kept", "hop"), got, want):
            np.testing.assert_array_equal(a, b, err_msg=label)
            assert a.dtype == np.int64, label
        np.testing.assert_array_equal(got[3], searched_slots(g, got[0], got[1]))

    def test_a_stack_needs_each_pairs_table(self):
        g = debruijn(2, 3)
        stack = survivor_route_table(g, [frozenset(), frozenset({3})])
        one = survivor_route_table(g, {3})
        with pytest.raises(RoutingError, match="table index"):
            stack.routes_batch_masked([0], [5])
        with pytest.raises(RoutingError, match="out of range"):
            stack.routes_batch_masked([0], [5], [2])
        with pytest.raises(RoutingError, match="out of range"):
            one.routes_batch_masked([0], [5], [1])
        with pytest.raises(RoutingError, match="one table per pair"):
            stack.routes_batch_masked([0, 1], [5, 6], [0])
        with pytest.raises(RoutingError, match="not a stack"):
            stack.next_hops()
        with pytest.raises(RoutingError, match="fault node 8 out of range"):
            survivor_route_table(g, [frozenset(), frozenset({8})])
        # one table is the R = 1 case: index 0 walks it like no index
        for a, b in zip(one.routes_batch_masked([0, 3], [5, 5], [0, 0]),
                        one.routes_batch_masked([0, 3], [5, 5])):
            np.testing.assert_array_equal(a, b)


class TestBlockBudget:
    def test_budget_cuts_the_stack_into_several_sweeps(self, monkeypatch):
        """Seven distinct fault sets (an empty one among them) under a
        budget of three tables compile in sweeps of 3, 3 and 1, and every
        controller, two of which share a set, gets its set's own
        routes."""
        g = debruijn(2, 5)
        n = g.node_count
        sets = [(), (3,), (3, 7), (0, 31), (5,), tuple(range(0, n, 2)), (9, 10, 11)]
        controllers = []
        for fs in [*sets, (3,)]:
            ctrl = DetourController(2, 5)
            for v in fs:
                ctrl.fail_node(v)
            controllers.append(ctrl)
        compiled = []
        real = faults_mod.survivor_route_table

        def spy(graph, faults):
            table = real(graph, faults)
            stacked = table.table.ndim == 3
            compiled.append(([frozenset(fs) for fs in faults] if stacked
                             else [frozenset(faults)],
                             table.table if stacked else table.table[None]))
            return table

        monkeypatch.setattr(faults_mod, "_STACK_BUDGET", 3 * n * n)
        monkeypatch.setattr(faults_mod, "survivor_route_table", spy)
        pairs = np.column_stack([np.repeat(np.arange(n), n), np.tile(np.arange(n), n)])
        routes = DetourController._block_routes(controllers, pairs)
        assert [len(covered) for covered, _ in compiled] == [3, 3, 1]
        assert [fs for covered, _ in compiled for fs in covered] == [
            frozenset(fs) for fs in sets
        ]
        for covered, layers in compiled:
            for fs, layer in zip(covered, layers):
                np.testing.assert_array_equal(layer, real(g, fs).table)
        for ctrl, got in zip(controllers, routes, strict=True):
            want = real(g, ctrl.faults).routes_batch_masked(pairs[:, 0], pairs[:, 1])
            for label, a, b in zip(("flat", "offsets", "kept", "hop"), got, want):
                np.testing.assert_array_equal(a, b, err_msg=label)
