"""Traffic pattern generators.

Each generator returns an ``(n_msgs, 2)`` array of ``(src, dst)`` pairs in
*logical* node coordinates.  Patterns follow the interconnection-network
benchmarking canon: uniform random, transpose, bit-reversal, hot-spot,
permutation, all-to-all, plus nearest-neighbor de Bruijn streams that
mimic Ascend/Descend supersteps (the workloads the paper's introduction
motivates).

Patterns are looked up by name through the :data:`PATTERNS`
:class:`~repro.registry.Registry`: every entry is a builder with the
uniform signature ``(n, msgs, rng) -> pairs`` (deterministic patterns
tile themselves to ``msgs`` rows; random ones draw exactly ``msgs``).
:func:`make_pattern` is the lookup front door, and registering a new
pattern is one decorated function — the experiment spec layer, the CLI
``choices=`` lists and the error messages all pick it up from the
registry.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.registry import Registry

__all__ = [
    "PATTERNS",
    "make_pattern",
    "uniform_traffic",
    "transpose_traffic",
    "bit_reversal_traffic",
    "hotspot_traffic",
    "permutation_traffic",
    "all_to_all_traffic",
    "descend_superstep_traffic",
]

#: Registry of pattern builders: ``name -> (n, msgs, rng) -> (msgs, 2)``
#: pairs.  Registration order is the documented order.
PATTERNS = Registry("traffic pattern")


def _check_pow2(n: int) -> int:
    if n < 2 or n & (n - 1):
        raise ParameterError(f"pattern requires a power-of-two node count, got {n}")
    return int(n.bit_length() - 1)


def _tiled(base: np.ndarray, msgs: int) -> np.ndarray:
    """Tile/trim a deterministic pattern to ``msgs`` rows (repeats raise
    contention — the heavy traffic regime); ``msgs <= 0`` returns the
    canonical size."""
    if msgs <= 0 or base.shape[0] == 0:
        return base
    reps = -(-msgs // base.shape[0])  # ceil division
    return np.tile(base, (reps, 1))[:msgs]


def uniform_traffic(n: int, msgs: int, rng: np.random.Generator) -> np.ndarray:
    """``msgs`` messages with src and dst drawn uniformly (src != dst)."""
    if n < 2:
        raise ParameterError("uniform_traffic needs n >= 2")
    src = rng.integers(0, n, size=msgs)
    dst = rng.integers(0, n - 1, size=msgs)
    dst = np.where(dst >= src, dst + 1, dst)  # skip self
    return np.column_stack([src, dst]).astype(np.int64)


def transpose_traffic(n: int) -> np.ndarray:
    """Matrix-transpose permutation: node ``(r, c)`` sends to ``(c, r)``
    on the ``sqrt(n) x sqrt(n)`` grid view of ids."""
    side = int(round(n ** 0.5))
    if side * side != n:
        raise ParameterError("transpose_traffic needs a square node count")
    ids = np.arange(n, dtype=np.int64)
    r, c = ids // side, ids % side
    dst = c * side + r
    mask = dst != ids
    return np.column_stack([ids[mask], dst[mask]])


def bit_reversal_traffic(n: int) -> np.ndarray:
    """Bit-reversal permutation — the classic FFT communication pattern."""
    h = _check_pow2(n)
    ids = np.arange(n, dtype=np.int64)
    rev = np.zeros_like(ids)
    tmp = ids.copy()
    for _ in range(h):
        rev = (rev << 1) | (tmp & 1)
        tmp >>= 1
    mask = rev != ids
    return np.column_stack([ids[mask], rev[mask]])


def hotspot_traffic(
    n: int, msgs: int, rng: np.random.Generator, hotspot: int = 0, heat: float = 0.3
) -> np.ndarray:
    """Uniform traffic with a fraction ``heat`` of destinations redirected
    to one hot node — the contention stress case."""
    if not 0.0 <= heat <= 1.0:
        raise ParameterError(f"heat must be in [0, 1], got {heat}")
    t = uniform_traffic(n, msgs, rng)
    hot = rng.random(msgs) < heat
    t[hot & (t[:, 0] != hotspot), 1] = hotspot
    return t[t[:, 0] != t[:, 1]]


def permutation_traffic(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random permutation workload (every node sends once, receives once)."""
    perm = rng.permutation(n)
    ids = np.arange(n, dtype=np.int64)
    mask = perm != ids
    return np.column_stack([ids[mask], perm[mask]]).astype(np.int64)


def all_to_all_traffic(n: int) -> np.ndarray:
    """Every ordered pair once — the paper's "algorithms use all links"
    regime, at maximum pressure."""
    src = np.repeat(np.arange(n, dtype=np.int64), n)
    dst = np.tile(np.arange(n, dtype=np.int64), n)
    mask = src != dst
    return np.column_stack([src[mask], dst[mask]])


def descend_superstep_traffic(n: int) -> np.ndarray:
    """One Descend round on a de Bruijn machine: every node sends to both
    of its shift successors (the traffic of normal algorithms, §I)."""
    _check_pow2(n)
    ids = np.arange(n, dtype=np.int64)
    a = np.column_stack([ids, (2 * ids) % n])
    b = np.column_stack([ids, (2 * ids + 1) % n])
    out = np.vstack([a, b])
    return out[out[:, 0] != out[:, 1]]


# ---------------------------------------------------------------------------
# the registry: uniform (n, msgs, rng) builders over the generators above
# ---------------------------------------------------------------------------

@PATTERNS.register("uniform")
def _p_uniform(n, msgs, rng):
    if rng is None or msgs <= 0:
        raise ParameterError("uniform pattern needs msgs > 0 and an rng")
    return uniform_traffic(n, msgs, rng)


@PATTERNS.register("transpose")
def _p_transpose(n, msgs, rng):
    return _tiled(transpose_traffic(n), msgs)


@PATTERNS.register("bit-reversal")
def _p_bit_reversal(n, msgs, rng):
    return _tiled(bit_reversal_traffic(n), msgs)


@PATTERNS.register("hotspot")
def _p_hotspot(n, msgs, rng):
    if rng is None or msgs <= 0:
        raise ParameterError("hotspot pattern needs msgs > 0 and an rng")
    return hotspot_traffic(n, msgs, rng)


@PATTERNS.register("permutation")
def _p_permutation(n, msgs, rng):
    if rng is None:
        raise ParameterError("permutation pattern needs an rng")
    return _tiled(permutation_traffic(n, rng), msgs)


@PATTERNS.register("all-to-all")
def _p_all_to_all(n, msgs, rng):
    return _tiled(all_to_all_traffic(n), msgs)


@PATTERNS.register("descend")
def _p_descend(n, msgs, rng):
    return _tiled(descend_superstep_traffic(n), msgs)


def make_pattern(
    n: int, name: str, msgs: int = 0, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Build any registered traffic pattern (one of :data:`PATTERNS`).

    Random patterns (``uniform``, ``hotspot``) draw exactly ``msgs``
    messages from ``rng``.  Deterministic patterns are tiled/trimmed to
    ``msgs`` rows when ``msgs > 0`` (repeats raise contention — the heavy
    traffic regime), or returned at their canonical size when ``msgs`` is
    0.  Unknown names raise a :class:`~repro.errors.ParameterError`
    listing the valid choices.
    """
    return PATTERNS.get(name)(n, msgs, rng)
