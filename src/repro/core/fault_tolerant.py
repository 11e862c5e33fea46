"""The fault-tolerant de Bruijn graphs ``B^k_{m,h}`` (paper §III.B, §IV.A).

Definition (base ``m``, ``h`` digits, ``k`` tolerated faults): nodes are
``{0, 1, ..., m^h + k - 1}`` and ``(x, y)`` is an edge iff there exists

    r in { (m-1)(-k), (m-1)(-k)+1, ..., (m-1)(k+1) }

such that ``y = X(x, m, r, m^h + k)`` or ``x = X(y, m, r, m^h + k)``
(self-loops dropped).  Properties proved in the paper and enforced by the
test suite:

* ``B^0_{m,h} == B_{m,h}`` (the window collapses to the target window);
* ``B_{m,h}`` is a subgraph of ``B^k_{m,h}`` under the identity labeling
  whenever the node counts coincide modulo the extra spares — concretely
  the paper notes ``B_{2,h} ⊆ B^k_{2,h}``;
* node count ``m^h + k`` (Corollaries 1, 3) — *optimal*: any (k, G)-tolerant
  graph needs at least ``|V(G)| + k`` nodes;
* degree at most ``4k + 4`` for ``m = 2`` and ``4(m-1)k + 2m`` in general.

The heavy lifting (why any ``k`` faults leave an embedded ``B_{m,h}``) lives
in :mod:`repro.core.reconfiguration` and is verified by
:mod:`repro.core.tolerance`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.labels import validate_base, validate_h
from repro.core.xfunc import ft_window, predecessor_solutions, successor_block, x_func_array
from repro.errors import ParameterError
from repro.graphs.static_graph import StaticGraph

__all__ = [
    "ft_debruijn",
    "ft_node_count",
    "ft_degree_bound",
    "neighbor_blocks",
]


def ft_node_count(m: int, h: int, k: int) -> int:
    """``|V(B^k_{m,h})| = m^h + k`` — target size plus exactly ``k`` spares."""
    if k < 0:
        raise ParameterError(f"fault budget k must be >= 0, got {k}")
    return validate_base(m) ** validate_h(h, minimum=3) + int(k)


def ft_degree_bound(m: int, k: int) -> int:
    """The paper's degree bound for ``B^k_{m,h}``: ``4(m-1)k + 2m``
    (``4k + 4`` when ``m = 2``; Corollaries 1-4)."""
    validate_base(m)
    if k < 0:
        raise ParameterError(f"fault budget k must be >= 0, got {k}")
    return 4 * (m - 1) * k + 2 * m


#: Machines :func:`ft_debruijn` keeps built in one process.
_CACHE_SIZE = 8


def ft_debruijn(m: int, h: int, k: int) -> StaticGraph:
    """Construct ``B^k_{m,h}``.

    Fully vectorized: the successor images of all nodes under the whole
    offset window are generated in one broadcast; symmetrization and
    self-loop dropping are handled by :class:`StaticGraph`.

    Built once per process: the graph comes from an LRU of the 8 most
    recently used machines, keyed on ``(int(m), int(h), int(k))``, so
    every caller in the process (each cell a pool worker runs) shares
    one immutable :class:`StaticGraph` and the views built lazily on it.
    Invalid parameters raise on every call.  One retained machine holds
    ``8 (n + 1 + s)`` bytes of CSR arrays, with ``n = m^h + k`` nodes
    and at most ``s <= (4(m-1)k + 2m) n`` directed slots, plus ``8 s``
    bytes for each of ``directed_edge_keys`` and ``edge_ids`` once
    built (``B^{16}_{2,6}`` with the edge keys an engine builds: 67 KiB).

    >>> g = ft_debruijn(2, 4, 1)       # the paper's Fig. 2 graph
    >>> g.node_count, g.max_degree() <= 8
    (17, True)
    """
    ft_node_count(m, h, k)  # validate first: a refusal is never cached
    return _build(int(m), int(h), int(k))


@lru_cache(maxsize=_CACHE_SIZE)
def _build(m: int, h: int, k: int) -> StaticGraph:
    n = ft_node_count(m, h, k)
    window = ft_window(m, k)
    xs = np.arange(n, dtype=np.int64).reshape(-1, 1)
    ys = x_func_array(xs, m, window.reshape(1, -1), n)
    src = np.repeat(np.arange(n, dtype=np.int64), window.size)
    return StaticGraph(n, np.column_stack([src, ys.reshape(-1)]))


def neighbor_blocks(m: int, h: int, k: int, x: int) -> dict[str, np.ndarray]:
    """Successor and predecessor neighbor sets of node ``x`` in ``B^k_{m,h}``.

    Returns ``{"successors": ..., "predecessors": ...}`` — the two blocks
    whose sizes the degree-accounting argument of §III.A bounds by
    ``(m-1)(2k+1)+1`` each.  Their union is exactly the adjacency of ``x``
    in :func:`ft_debruijn` (asserted in tests).
    """
    n = ft_node_count(m, h, k)
    if not 0 <= x < n:
        raise ParameterError(f"node {x} out of range [0, {n})")
    return {
        "successors": successor_block(x, m, k, n),
        "predecessors": predecessor_solutions(x, m, k, n),
    }
