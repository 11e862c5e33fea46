"""De Bruijn target graphs ``B_{m,h}`` (paper Sections III and IV).

The paper gives two equivalent definitions and relies on the second:

1. *Digit overlap* — ``x ~ y`` iff the last ``h-1`` digits of ``x`` equal
   the first ``h-1`` digits of ``y`` or vice versa.
2. *Affine* — ``(x, y)`` is an edge iff there exists ``r in {0..m-1}`` with
   ``y = X(x, m, r, m^h)`` or ``x = X(y, m, r, m^h)``.

Both constructions are implemented (the equivalence is a test), self-loops
are dropped per the paper's convention, and the resulting graphs are plain
:class:`StaticGraph` instances.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.labels import from_digits, to_digits, validate_base, validate_h
from repro.core.xfunc import target_window, x_func_array
from repro.graphs.static_graph import StaticGraph

__all__ = [
    "debruijn",
    "debruijn_digit_definition",
    "debruijn_directed_successors",
    "node_count",
]


def node_count(m: int, h: int) -> int:
    """``|V(B_{m,h})| = m^h``."""
    return validate_base(m) ** validate_h(h)


def debruijn_directed_successors(m: int, h: int) -> np.ndarray:
    """Successor matrix ``S`` of the *directed* de Bruijn graph:
    ``S[x, r] = (m*x + r) mod m^h`` for ``r in 0..m-1``.

    The directed view drives shift-register routing and the Ascend/Descend
    emulation; the undirected target graph is its symmetrization.
    """
    n = node_count(m, h)
    xs = np.arange(n, dtype=np.int64).reshape(-1, 1)
    return x_func_array(xs, m, target_window(m).reshape(1, -1), n)


#: Machines :func:`debruijn` keeps built in one process.
_CACHE_SIZE = 8


def debruijn(m: int, h: int) -> StaticGraph:
    """The base-``m`` ``h``-digit de Bruijn graph ``B_{m,h}`` via the
    affine definition (paper's preferred form).

    ``m^h`` nodes, degree at most ``2m``; self-loops (nodes
    ``c * (m^h - 1) / (m - 1)``) are dropped.

    Built once per process: the graph comes from an LRU of the 8 most
    recently used machines, keyed on ``(int(m), int(h))``, so every
    caller in the process (each cell a pool worker runs) shares one
    immutable :class:`StaticGraph` and the views built lazily on it.
    Invalid parameters raise on every call.  One retained ``B_{m,h}``
    holds ``8 (n + 1 + s)`` bytes of CSR arrays, with ``n = m^h`` nodes
    and ``s <= 2mn`` directed slots, plus ``8 s`` bytes for each of
    ``directed_edge_keys`` and ``edge_ids`` once built: about ``72 n``
    bytes for ``m = 2`` with the edge keys an engine builds (144 KiB
    for ``B_{2,11}``).

    >>> g = debruijn(2, 4)
    >>> g.node_count, g.max_degree()
    (16, 4)
    """
    return _build(validate_base(m), validate_h(h))


@lru_cache(maxsize=_CACHE_SIZE)
def _build(m: int, h: int) -> StaticGraph:
    n = m ** h
    succ = debruijn_directed_successors(m, h)
    src = np.repeat(np.arange(n, dtype=np.int64), m)
    return StaticGraph(n, np.column_stack([src, succ.reshape(-1)]))


def debruijn_digit_definition(m: int, h: int) -> StaticGraph:
    """``B_{m,h}`` via the digit-overlap definition (paper's first form).

    Node ``x = [x_{h-1},...,x_0]_m`` is connected to
    ``[x_{h-2},...,x_0,r]_m`` and ``[r,x_{h-1},...,x_1]_m`` for every
    ``r in {0..m-1}``.  Kept deliberately independent of the affine code
    path so the test suite can assert the two definitions agree edge-for-
    edge (the paper's "it is easily verified" claim, made executable).
    """
    m = validate_base(m)
    h = validate_h(h)
    n = m ** h
    digits = to_digits(np.arange(n, dtype=np.int64), m, h)  # (n, h) big-endian
    edges = []
    for r in range(m):
        left = np.column_stack([digits[:, 1:], np.full((n, 1), r, dtype=np.int64)])
        right = np.column_stack([np.full((n, 1), r, dtype=np.int64), digits[:, :-1]])
        edges.append(np.column_stack([np.arange(n), from_digits(left, m)]))
        edges.append(np.column_stack([np.arange(n), from_digits(right, m)]))
    return StaticGraph(n, np.vstack(edges))
