"""Classic de Bruijn shift-register routing.

A de Bruijn node is a length-``h`` window over a digit stream; to route
from ``x`` to ``y``, find the longest suffix of ``x`` that is a prefix of
``y`` and shift in the remaining digits of ``y`` one per hop.  At most
``h`` hops — the property that makes de Bruijn networks competitive with
hypercubes at constant degree (paper §I and reference [1]).

The scalar :func:`shift_route` is the spec, digit by digit.  The batch
functions are its closed form, with no digit arrays: the overlap ``ℓ``
is the largest ``L`` with ``x mod m**L == y div m**(h-L)``, and every
route position is an (h+1)-digit window ``node * m + next digit``
(:func:`shift_windows_batch`), which is also the logical edge leaving
that node — so the reconfigured lift
(:func:`repro.routing.fault_routing.lifted_routes_batch`) maps routes to
physical queue ids through one table per φ.  A window is below
``m**(h+1)``, so the batch functions are exact for every
``m**(h+1) <= 2**63`` and raise :class:`~repro.errors.ParameterError`
beyond.
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
    "shift_windows_batch",
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


def _endpoints(xs, ys, m: int, h: int):
    """The batch functions' shared checks: ``(m, h, xs, ys)`` with
    ``xs``/``ys`` parallel 1-D int64 arrays of node ids in ``[0, m**h)``.
    Refuses a machine whose (h+1)-digit windows (see
    :func:`shift_windows_batch`) would not fit int64."""
    m = validate_base(m)
    h = validate_h(h)
    if m ** (h + 1) > 2 ** 63:
        raise ParameterError(
            f"batch shift routes need m**(h+1) <= 2**63 ((h+1)-digit windows "
            f"in int64); B_{{{m},{h}}} has m**(h+1) = {m ** (h + 1)}"
        )
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ParameterError("endpoint arrays must be 1-D and of equal length")
    n = m ** h
    if xs.size and (min(xs.min(), ys.min()) < 0 or max(xs.max(), ys.max()) >= n):
        raise ParameterError(f"endpoints must lie in [0, {n})")
    return m, h, xs, ys


def overlap_length_batch(xs: np.ndarray, ys: np.ndarray, m: int, h: int) -> np.ndarray:
    """Vectorized :func:`overlap_length` over parallel endpoint arrays:
    the largest ``L`` with ``x mod m**L == y div m**(h - L)``, one
    modular comparison per candidate length.

    >>> overlap_length_batch(np.array([0b0111, 0]), np.array([0b1110, 5]), 2, 4).tolist()
    [3, 1]
    """
    m, h, xs, ys = _endpoints(xs, ys, m, h)
    ell = np.zeros(xs.size, dtype=np.int64)
    for length in range(1, h + 1):  # ascending: the last match is the largest
        low = m ** length
        # x mod low as x - (x div low) * low: numpy divides by a
        # constant about twice as fast as it takes a remainder
        ell[xs - xs // low * low == ys // m ** (h - length)] = length
    return ell


def shift_windows_batch(
    xs: np.ndarray, ys: np.ndarray, m: int, h: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every position of every shift-register route as its (h+1)-digit
    window ``node * m + next digit``: the logical de Bruijn edge leaving
    that node, ``node -> window mod m**h``.  A route's last position
    holds ``y * m``, whose edge the route never takes.

    Returns ``(windows, offsets)`` in :func:`shift_route_batch`'s layout
    (``windows // m`` is its ``flat``).  In closed form: with ``ℓ`` the
    overlap and ``yl = (y mod m**(h-ℓ)) * m**ℓ`` (``y``'s unshared
    digits moved to the top), the window after ``s`` shifts is
    ``(x mod m**(h-s)) * m**(s+1) + yl * m div m**(h-s)``.  Each shift
    ``s`` of the (h+1) x pairs matrix is one constant modulus, factor
    and divisor, no intermediate reaches ``m**(h+1)``, and the routes
    are exact whenever ``m**(h+1) <= 2**63`` (:class:`ParameterError`
    beyond that).

    >>> win, off = shift_windows_batch(np.array([0]), np.array([5]), 2, 3)
    >>> win.tolist(), off.tolist()
    ([1, 2, 5, 10], [0, 4])
    """
    m, h, xs, ys = _endpoints(xs, ys, m, h)
    ell = overlap_length_batch(xs, ys, m, h)
    power = m ** np.arange(h + 1, dtype=np.int64)
    ylm = ys % power[h - ell] * power[ell] * m
    lens = h - ell + 1  # positions per route
    offsets = np.zeros(xs.size + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    win = np.empty((h + 1, xs.size), dtype=np.int64)  # row s: shift s
    for step in range(h):
        top = m ** (h - step)
        row = win[step]
        np.floor_divide(xs, top, out=row)  # x mod top, as in the overlap
        row *= -top
        row += xs
        row *= m ** (step + 1)
        row += ylm // top
    win[h] = ylm  # after h shifts (ℓ = 0) the route sits at y
    return win.T[np.arange(h + 1) < lens[:, None]], offsets


def shift_route_batch(
    xs: np.ndarray, ys: np.ndarray, m: int, h: int
) -> tuple[np.ndarray, np.ndarray]:
    """All shift-register routes for parallel ``(xs[i], ys[i])`` pairs,
    flattened for the batch simulation engine.

    Returns ``(flat, offsets)`` where packet ``i``'s route (inclusive of
    both endpoints, exactly :func:`shift_route`'s node list) occupies
    ``flat[offsets[i]:offsets[i + 1]]``.  No per-packet Python loops and
    no digit arrays: each node is its :func:`shift_windows_batch` window
    divided by ``m``, exact for every ``m**(h+1) <= 2**63``.

    >>> flat, off = shift_route_batch(np.array([0]), np.array([5]), 2, 3)
    >>> flat.tolist(), off.tolist()
    ([0, 1, 2, 5], [0, 4])
    """
    win, offsets = shift_windows_batch(xs, ys, m, h)
    return win // m, offsets


def route_length(x: int, y: int, m: int, h: int) -> int:
    """Hop count of the shift-register route: ``h - overlap_length``."""
    return validate_h(h) - overlap_length(x, y, m, h)


def route_length_matrix(m: int, h: int) -> np.ndarray:
    """All-pairs shift-route lengths (an upper bound on true distances,
    exact up to the use of predecessor arcs)."""
    m = validate_base(m)
    h = validate_h(h)
    ids = np.arange(m ** h, dtype=np.int64)
    ell = overlap_length_batch(np.repeat(ids, ids.size), np.tile(ids, ids.size), m, h)
    return (h - ell).reshape(ids.size, ids.size)
