"""Classic de Bruijn shift-register routing.

A de Bruijn node is a length-``h`` window over a digit stream; to route
from ``x`` to ``y``, find the longest suffix of ``x`` that is a prefix of
``y`` and shift in the remaining digits of ``y`` one per hop.  At most
``h`` hops — the property that makes de Bruijn networks competitive with
hypercubes at constant degree (paper §I and reference [1]).
"""

from __future__ import annotations

import numpy as np

from repro.core.labels import to_digits, validate_base, validate_h
from repro.errors import ParameterError

__all__ = [
    "overlap_length",
    "overlap_length_batch",
    "shift_route",
    "shift_route_batch",
    "route_length",
    "route_length_matrix",
]


def overlap_length(x: int, y: int, m: int, h: int) -> int:
    """Length of the longest suffix of ``x``'s digit string that equals a
    prefix of ``y``'s digit string (0..h).

    >>> overlap_length(0b0111, 0b1110, 2, 4)
    3
    """
    dx = to_digits(x, m, h)
    dy = to_digits(y, m, h)
    for ell in range(h, -1, -1):
        if ell == 0:
            return 0
        if np.array_equal(dx[h - ell:], dy[:ell]):
            return ell
    return 0


def shift_route(x: int, y: int, m: int, h: int) -> list[int]:
    """The shift-register route from ``x`` to ``y`` as a node list
    (inclusive of both endpoints; length ``h - overlap + 1``).

    Every consecutive pair is a directed de Bruijn arc
    ``v -> (m*v + r) mod m^h``.

    >>> shift_route(0, 5, 2, 3)
    [0, 1, 2, 5]
    """
    m = validate_base(m)
    h = validate_h(h)
    n = m ** h
    if not (0 <= x < n and 0 <= y < n):
        raise ParameterError(f"endpoints must lie in [0, {n})")
    ell = overlap_length(x, y, m, h)
    dy = to_digits(y, m, h)
    path = [int(x)]
    cur = int(x)
    for pos in range(ell, h):
        cur = (m * cur + int(dy[pos])) % n
        path.append(cur)
    assert path[-1] == y
    return path


def overlap_length_batch(xs: np.ndarray, ys: np.ndarray, m: int, h: int) -> np.ndarray:
    """Vectorized :func:`overlap_length` over parallel endpoint arrays.

    >>> overlap_length_batch(np.array([0b0111, 0]), np.array([0b1110, 5]), 2, 4).tolist()
    [3, 1]
    """
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ParameterError("endpoint arrays must be 1-D and of equal length")
    if xs.size == 0:
        return np.zeros(0, dtype=np.int64)
    dx = to_digits(xs, m, h)
    dy = to_digits(ys, m, h)
    ell = np.zeros(xs.size, dtype=np.int64)
    undecided = np.ones(xs.size, dtype=bool)
    for length in range(h, 0, -1):
        match = (dx[:, h - length:] == dy[:, :length]).all(axis=1)
        take = undecided & match
        ell[take] = length
        undecided &= ~match
    return ell


def shift_route_batch(
    xs: np.ndarray, ys: np.ndarray, m: int, h: int
) -> tuple[np.ndarray, np.ndarray]:
    """All shift-register routes for parallel ``(xs[i], ys[i])`` pairs,
    flattened for the batch simulation engine.

    Returns ``(flat, offsets)`` where packet ``i``'s route (inclusive of
    both endpoints, exactly :func:`shift_route`'s node list) occupies
    ``flat[offsets[i]:offsets[i + 1]]``.  No per-packet Python loops: the
    digit pipeline advances all routes one shift per vectorized step.

    >>> flat, off = shift_route_batch(np.array([0]), np.array([5]), 2, 3)
    >>> flat.tolist(), off.tolist()
    ([0, 1, 2, 5], [0, 4])
    """
    m = validate_base(m)
    h = validate_h(h)
    n = m ** h
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ParameterError("endpoint arrays must be 1-D and of equal length")
    if xs.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    if xs.min() < 0 or ys.min() < 0 or xs.max() >= n or ys.max() >= n:
        raise ParameterError(f"endpoints must lie in [0, {n})")
    ell = overlap_length_batch(xs, ys, m, h)
    dy = to_digits(ys, m, h)
    lens = h - ell + 1  # nodes per route
    offsets = np.zeros(xs.size + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    work = np.zeros((xs.size, h + 1), dtype=np.int64)
    work[:, 0] = xs
    cur = xs.copy()
    rows = np.arange(xs.size)
    for step in range(1, h + 1):
        active = lens > step
        if not active.any():
            break
        digit = dy[rows[active], ell[active] + step - 1]
        cur[active] = (m * cur[active] + digit) % n
        work[active, step] = cur[active]
    mask = np.arange(h + 1)[None, :] < lens[:, None]
    return work[mask], offsets


def route_length(x: int, y: int, m: int, h: int) -> int:
    """Hop count of the shift-register route: ``h - overlap_length``."""
    return validate_h(h) - overlap_length(x, y, m, h)


def route_length_matrix(m: int, h: int) -> np.ndarray:
    """All-pairs shift-route lengths (an upper bound on true distances,
    exact up to the use of predecessor arcs)."""
    n = validate_base(m) ** validate_h(h)
    out = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        for y in range(n):
            out[x, y] = route_length(x, y, m, h)
    return out
