"""Normal (Ascend/Descend) algorithms and their de Bruijn emulation.

The paper's introduction leans on the fact that shuffle-exchange and
de Bruijn networks run the Preparata–Vuillemin *Ascend*/*Descend* classes
with constant-factor slowdown relative to the hypercube.  This module
makes that executable:

* :func:`run_reference` — the mathematical semantics: at a step for bit
  ``j`` every logical index ``i`` combines with its partner ``i XOR 2^j``.
* :class:`DeBruijnEmulation` — the same schedule on a de Bruijn machine.
  Invariant: after ``t`` net rotation steps, logical item ``b`` resides at
  physical node ``rot^t(b)``.  A pair step for bit ``j`` is legal exactly
  when ``(j + t) mod h == h - 1`` (the partners then differ in the *top*
  bit and share both de Bruijn successors, so the exchange-and-advance
  costs one round); rotation steps (``t ± 1``) realign between
  out-of-order bits.  Descend runs with **zero** extra rotations; Ascend
  costs a constant factor — the classic results, here verified hop by hop.

Every round's messages are recorded as physical ``(src, dst)`` pairs so
tests can assert that *only physical edges* of the hosting
graph (plain ``B_{2,h}``, or the survivors of ``B^k_{2,h}`` through φ)
are ever used — including after faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.labels import rotate_left, validate_h
from repro.errors import ParameterError, SimulationError
from repro.graphs.static_graph import StaticGraph

__all__ = [
    "PairOp",
    "run_reference",
    "descend_schedule",
    "ascend_schedule",
    "EmulationTrace",
    "DeBruijnEmulation",
    "HypercubeRunner",
]

#: ``op(bit, index, own_value, partner_value) -> new value`` for ``index``.
PairOp = Callable[[int, int, object, object], object]


def descend_schedule(h: int) -> list[int]:
    """Bits high-to-low: the Descend class."""
    return list(range(validate_h(h) - 1, -1, -1))


def ascend_schedule(h: int) -> list[int]:
    """Bits low-to-high: the Ascend class."""
    return list(range(validate_h(h)))


def run_reference(h: int, values: Sequence, schedule: Sequence[int], op: PairOp) -> list:
    """Hypercube-semantics reference: apply ``op`` over partner pairs for
    each bit in ``schedule``.  O(len(schedule) * 2^h)."""
    n = 1 << validate_h(h)
    if len(values) != n:
        raise ParameterError(f"need exactly {n} values, got {len(values)}")
    vals = list(values)
    for bit in schedule:
        if not 0 <= bit < h:
            raise ParameterError(f"bit {bit} out of range for h={h}")
        vals = [op(bit, i, vals[i], vals[i ^ (1 << bit)]) for i in range(n)]
    return vals


@dataclass
class EmulationTrace:
    """Physical communication record of an emulated run."""

    rounds: list[list[tuple[int, int]]] = field(default_factory=list)

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    @property
    def message_count(self) -> int:
        return sum(len(r) for r in self.rounds)

    def verify_against(self, host: StaticGraph) -> bool:
        """Every message must traverse a host edge (or be node-local)."""
        for msgs in self.rounds:
            for a, b in msgs:
                if a != b and not host.has_edge(a, b):
                    return False
        return True


class HypercubeRunner:
    """Direct hypercube execution: bit-``j`` steps use dimension-``j``
    links.  The baseline the constant-degree networks are measured
    against (degree ``h`` vs degree 4)."""

    def __init__(self, h: int):
        self.h = validate_h(h)
        self.n = 1 << h

    def run(self, values: Sequence, schedule: Sequence[int],
            op: PairOp) -> tuple[list, EmulationTrace]:
        vals = list(values)
        trace = EmulationTrace()
        for bit in schedule:
            msgs = [(i, i ^ (1 << bit)) for i in range(self.n)]
            vals = [op(bit, i, vals[i], vals[i ^ (1 << bit)]) for i in range(self.n)]
            trace.rounds.append(msgs)
        return vals, trace


class DeBruijnEmulation:
    """Run normal algorithms on a (possibly reconfigured) de Bruijn machine.

    Parameters
    ----------
    h:
        Logical machine size ``2^h``.
    node_map:
        Physical node hosting logical de Bruijn node ``v`` (default
        identity = the bare ``B_{2,h}``; pass the reconfiguration map φ to
        run on the survivors of ``B^k_{2,h}``).
    """

    def __init__(self, h: int, node_map: np.ndarray | None = None):
        self.h = validate_h(h)
        self.n = 1 << h
        if node_map is None:
            node_map = np.arange(self.n, dtype=np.int64)
        self.node_map = np.asarray(node_map, dtype=np.int64)
        if self.node_map.shape != (self.n,):
            raise ParameterError(
                f"node_map must have length {self.n}, got {self.node_map.shape}"
            )

    # -- placement bookkeeping ------------------------------------------------

    def _positions(self, t: int) -> np.ndarray:
        """Physical host of each logical item under offset ``t``:
        ``pos[b] = node_map[rot^t(b)]``."""
        ids = np.arange(self.n, dtype=np.int64)
        return self.node_map[rotate_left(ids, 2, self.h, steps=t % self.h)]

    def _rotation_round(self, t: int, forward: bool) -> list[tuple[int, int]]:
        """Messages for one whole-machine rotation (shuffle or unshuffle
        round): every item moves between consecutive rotation placements —
        each hop is a de Bruijn shift edge."""
        src = self._positions(t)
        dst = self._positions(t + 1 if forward else t - 1)
        return [
            (int(a), int(b)) for a, b in zip(src, dst) if a != b
        ]

    def _pair_round(self, t: int) -> list[tuple[int, int]]:
        """Messages for a pair step at offset ``t``: every physical node
        ``u`` (hosting some item) sends its value to both de Bruijn
        successors ``2u`` and ``2u+1`` (mod 2^h), lifted through the node
        map.  The receivers are exactly where the two pair results live at
        offset ``t + 1``."""
        ids = np.arange(self.n, dtype=np.int64)
        u = rotate_left(ids, 2, self.h, steps=t % self.h)
        msgs: list[tuple[int, int]] = []
        for r in (0, 1):
            y = (2 * u + r) % self.n
            msgs.extend(
                (int(a), int(b))
                for a, b in zip(self.node_map[u], self.node_map[y])
                if a != b
            )
        return sorted(set(msgs))

    # -- execution -----------------------------------------------------------------

    def run(
        self, values: Sequence, schedule: Sequence[int], op: PairOp
    ) -> tuple[list, EmulationTrace]:
        """Execute ``schedule`` and return ``(final_values, trace)``.

        ``final_values[b]`` is the result for logical index ``b`` (items
        are rotated back to offset 0 at the end, with the realignment
        rounds included in the trace)."""
        if len(values) != self.n:
            raise ParameterError(f"need exactly {self.n} values")
        vals = list(values)
        trace = EmulationTrace()
        t = 0
        for bit in schedule:
            if not 0 <= bit < self.h:
                raise ParameterError(f"bit {bit} out of range for h={self.h}")
            needed = (self.h - 1 - bit) % self.h
            delta = (needed - t) % self.h
            if delta <= self.h - delta:
                for _ in range(delta):
                    trace.rounds.append(self._rotation_round(t, forward=True))
                    t += 1
            else:
                for _ in range(self.h - delta):
                    trace.rounds.append(self._rotation_round(t, forward=False))
                    t -= 1
            if (bit + t) % self.h != self.h - 1:
                raise SimulationError("alignment invariant violated")
            trace.rounds.append(self._pair_round(t))
            vals = [op(bit, i, vals[i], vals[i ^ (1 << bit)]) for i in range(self.n)]
            t += 1
        # realign to offset 0 so results sit at node_map[b]
        while t % self.h != 0:
            delta = (-t) % self.h
            if delta <= self.h - delta:
                trace.rounds.append(self._rotation_round(t, forward=True))
                t += 1
            else:
                trace.rounds.append(self._rotation_round(t, forward=False))
                t -= 1
        return vals, trace
