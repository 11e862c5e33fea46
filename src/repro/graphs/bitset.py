"""Bit-parallel BFS kernels over CSR arrays.

The routing compiler and the all-pairs analytics both reduce to the same
primitive: advance *every* BFS frontier in lockstep, one graph sweep per
level.  Here each node carries a **reach bitset** — row ``v`` of an
``(n, ceil(n/64))`` uint64 matrix, bit ``d`` set when ``v`` has reached
``d`` — so one level of *all n* BFS trees is a handful of vectorized
row gathers instead of ``n`` separate traversals.  Word-level
parallelism does 64 destinations per integer op.

The level sweep iterates over neighbor *ranks*: ``nbr[r, v]`` is the
rank-``r`` entry of ``v``'s CSR row, and one level is ``max_deg``
gathers of ``reach[nbr[r]]``.  That is why this kernel shines exactly
where the paper lives: constant-degree de Bruijn / shuffle-exchange
machines, where ``max_deg`` is 4 regardless of size.  Rows without a
rank-``r`` neighbor still gather (the pad row), so a graph with one hub
of degree ~n, like ``star(n)``, pays ``n`` full gathers per level.

Survivor graphs need no masked CSR.  A node outside the ``alive`` mask
gets no seed bit, and every slot that touches it gathers an all-zero pad
row, so it neither reaches nor is reached, and ranks keep indexing the
unmasked rows.  A *stack* of ``R`` masks sweeps in the same lockstep:
mask ``r``'s trees are reach rows ``r*n .. r*n + n - 1``, its slots
gather only rows of its own block, and every block shares the one pad
row, so one sweep over ``R*n`` rows serves ``R`` fault sets.

Everything in this module is pure NumPy over ``(num_nodes, row_offsets,
col_indices)`` triples — the canonical :class:`~repro.graphs.static_graph.
StaticGraph` planes — and never imports the graph or routing layers.

Rank tables
-----------
:func:`hop_rank_table` stores each next hop as the neighbor's slot rank
in its CSR row.  The dtype is ``np.min_scalar_type(max_deg + 1)`` and
the unreachable sentinel is that dtype's max value: ``uint8`` for every
de Bruijn and shuffle-exchange machine, ``uint16`` for a hub like
``star(300)``.  While the sweep runs, claims accumulate in
``ceil(log2 max_deg)`` bit-planes — never more bytes than the table
itself.  Given ``(R, n)`` alive masks it fills the ``(R, n, n)`` tables
of all of them from one sweep and one decode; one mask is the ``R = 1``
case of the same code, so a stack costs the per-call overhead once.
:func:`all_pairs_distances` records each pair's BFS level the same way,
in ``ceil(log2 (diameter + 1))`` level planes.

Decoding
--------
Bit-planes become entries in one place, :func:`_decode`, one byte lane
at a time: lane ``i`` of an entry holds bits ``8i..8i+7`` of its value,
so ``uint16`` hub tables and long distances take a second lane.  Each
``reach`` byte (8 destinations) gathers from a 256-entry table a uint64
that is 0xFF in the bytes of the destinations not reached, every lane of
the all-ones sentinel; each plane byte ORs in a gathered uint64 that
holds its 8 bits one per byte, shifted to the plane's bit.  Row blocks
sized for L2 are written straight into the output.

Tie-breaking contract
---------------------
:func:`hop_rank_table` resolves equal-length parents to the **lowest CSR
rank**, i.e. the smallest neighbor id (rows are sorted ascending).  The
dict reference in ``tests/conformance/harness.py`` implements the same
rule, and the differential suite pins the two bit-identical.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "all_pairs_distances",
    "hop_rank_table",
]

#: The decode's byte lookups: byte ``j`` of ``_SPREAD[b]`` is bit ``j``
#: of ``b``, and byte ``j`` of ``_CLEAR[b]`` is 0xFF where that bit is
#: clear.
_SPREAD = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).view(np.uint64)[:, 0]
_CLEAR = (_SPREAD ^ np.uint64(0x0101010101010101)) * np.uint64(0xFF)

#: Lane bytes decoded per row block: the block's scratch stays in L2.
_ROW_BLOCK_BYTES = 2**18


def _sweep(
    n: int,
    row_offsets: np.ndarray,
    col_indices: np.ndarray,
    alive: np.ndarray | None = None,
    *,
    planes=(),
    on_level=None,
) -> np.ndarray:
    """Advance all ``n`` BFS trees of each of ``R`` masks in lockstep;
    return the final reach bitsets, ``(R*n, ceil(n/64))`` uint64.

    ``alive`` is ``None`` (one unmasked graph, ``R = 1``) or an ``(R,
    n)`` stack of masks; mask ``r``'s row ``v`` is reach row ``r*n + v``.
    Each level, rank ``r`` gathers the neighbors' *previous-level* reach
    rows and claims every bit no lower rank (and no earlier level) has
    claimed, so each reachable ``(v, d)`` pair is claimed exactly once,
    by the lowest-rank hop-optimal neighbor, and is OR-ed into the
    ``planes`` that hold the set bits of its rank.  ``on_level``
    is called as ``on_level(level, newly)`` with the pairs first reached
    at each level.
    """
    W = (n + 63) >> 6
    deg = np.diff(row_offsets)
    src = np.repeat(np.arange(n), deg)
    R = 1 if alive is None else len(alive)
    N = R * n
    base = n * np.arange(R)[:, None]  # each mask's first reach row
    cols = col_indices + base
    if alive is not None:
        cols[~(alive[:, src] & alive[:, col_indices])] = N
    nbr = np.full((int(deg.max(initial=0)), N), N, dtype=np.intp)
    nbr[np.arange(src.size) - row_offsets[src], src + base] = cols

    reach = np.zeros((N + 1, W), dtype=np.uint64)  # row N: the zero pad
    seeds = np.arange(N) if alive is None else np.flatnonzero(alive)
    dest = seeds % n
    reach[seeds, dest >> 6] = np.uint64(1) << (dest & 63).astype(np.uint64)
    unseen = ~reach[:N]
    claim = np.empty((N, W), dtype=np.uint64)
    rank_planes = [
        [plane for b, plane in enumerate(planes) if r >> b & 1]
        for r in range(len(nbr))
    ]
    level = 0
    while True:
        level += 1
        for row, targets in zip(nbr, rank_planes):
            np.take(reach, row, axis=0, out=claim, mode="clip")
            claim &= unseen
            unseen ^= claim
            for plane in targets:
                plane |= claim
        newly = np.invert(unseen, out=claim)
        newly ^= reach[:N]
        if not newly.any():
            return reach[:N]
        reach[:N] |= newly
        if on_level is not None:
            on_level(level, newly)


def _decode(planes, reach: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out``, an ``(N, n)`` integer matrix, from bit-planes.

    ``out[v, d]`` is the sum of ``(bit d of planes[p][v]) << p``, or
    all-ones bits (the unsigned max, or ``-1``) where bit ``d`` of
    ``reach[v]`` is clear.  Both inputs are bitset rows, ``(N,
    ceil(n/64))`` uint64 (a stack's ``R*n`` rows decode as one matrix);
    see the module docstring for the lookups.
    """
    N, n = out.shape
    nb = (n + 7) >> 3  # the bitset bytes that hold destinations
    rows = max(1, _ROW_BLOCK_BYTES // max(n, 1))
    lanes = out.view(np.uint8).reshape(N, n, out.itemsize)
    lane_buf = np.empty((min(rows, N), nb), dtype=np.uint64)
    bits_buf = np.empty_like(lane_buf)
    for a in range(0, N, rows):
        k = min(rows, N - a)
        lane, bits = lane_buf[:k], bits_buf[:k]
        for i in range(out.itemsize):
            # byte indices are always in range: "wrap" only skips the check
            np.take(_CLEAR, reach[a: a + k].view(np.uint8)[:, :nb], out=lane,
                    mode="wrap")
            for p, plane in enumerate(planes[8 * i: 8 * i + 8]):
                np.take(_SPREAD, plane[a: a + k].view(np.uint8)[:, :nb],
                        out=bits, mode="wrap")
                bits <<= np.uint64(p)
                lane |= bits
            lanes[a: a + k, :, i] = lane.view(np.uint8)[:, :n]
    return out


def hop_rank_table(
    num_nodes: int,
    row_offsets: np.ndarray,
    col_indices: np.ndarray,
    alive: np.ndarray | None = None,
) -> np.ndarray:
    """All-pairs hop-optimal next-hop ranks in one bit-parallel sweep.

    Returns an ``(n, n)`` matrix ``T`` where ``T[v, d]`` is the CSR slot
    rank (within ``v``'s row of the given, unmasked planes) of the
    neighbor that begins a shortest ``v -> d`` path in the graph
    restricted to ``alive`` (default: every node).  The next hop is
    ``col_indices[row_offsets[v] + T[v, d]]``.  ``T[d, d]`` is 0 for a
    live ``d``, and the sentinel — the dtype's max value — marks
    unreachable pairs, including every row, column and diagonal entry
    of a node outside ``alive``.  Ties go to the lowest rank (the
    smallest neighbor id); see the module docstring for the dtype rule.

    A stack of masks, ``alive`` of shape ``(R, n)``, returns the ``(R,
    n, n)`` tables, ``T[r]`` the table of ``alive[r]``, from one sweep
    over ``R*n`` reach rows.
    """
    n = int(num_nodes)
    indptr = np.ascontiguousarray(row_offsets, dtype=np.int64)
    indices = np.ascontiguousarray(col_indices, dtype=np.int64)
    max_deg = int(np.diff(indptr).max(initial=0))
    dtype = np.min_scalar_type(max_deg + 1)
    shape = (n, n)
    if alive is not None:
        alive = np.asarray(alive, dtype=bool)
        shape = alive.shape[:-1] + shape
        alive = alive.reshape(-1, n)
    rows = n if alive is None else alive.size
    planes = np.zeros(
        (max(max_deg - 1, 0).bit_length(), rows, (n + 63) >> 6), dtype=np.uint64
    )
    reach = _sweep(n, indptr, indices, alive, planes=planes)
    out = np.empty(shape, dtype=dtype)
    _decode(planes, reach, out.reshape(rows, n))
    return out


def all_pairs_distances(
    num_nodes: int,
    row_offsets: np.ndarray,
    col_indices: np.ndarray,
) -> np.ndarray:
    """All-pairs hop distances via the same bit-parallel level sweep.

    Returns an ``(n, n)`` int64 matrix with ``-1`` for unreachable pairs
    and ``0`` on the diagonal.  Replaces ``n`` independent BFS runs with
    ``diameter`` sweeps of the whole reach matrix.
    """
    n = int(num_nodes)
    levels: list[np.ndarray] = []  # plane b: the pairs whose level has bit b

    def record(level: int, newly: np.ndarray) -> None:
        if level.bit_length() > len(levels):
            levels.append(np.zeros_like(newly))
        for b, plane in enumerate(levels):
            if level >> b & 1:
                plane |= newly

    reach = _sweep(
        n,
        np.ascontiguousarray(row_offsets, dtype=np.int64),
        np.ascontiguousarray(col_indices, dtype=np.int64),
        on_level=record,
    )
    # the smallest signed dtype past every level: its all-ones is -1
    dtype = np.min_scalar_type(-(1 << len(levels)))
    return _decode(levels, reach, np.empty((n, n), dtype=dtype)).astype(np.int64)
