"""Ablations on the construction's two knobs (paper §VI future work).

* **Window tightness** (ABL-WIN): the FT window ``{-k .. k+1}`` (base 2)
  is exactly what Theorem 1's proof consumes.  :func:`window_necessity`
  removes one offset at a time and re-checks tolerance — every removal
  must produce a counterexample, showing the construction is lean.
* **Extra spares** (ABL-SPARE): §VI asks whether ``> k`` spares can lower
  the degree.  :func:`extra_spare_search` explores generalized
  constructions with ``N + p`` nodes (``p >= k``) and asymmetric windows
  ``{-a .. b}``, reporting the smallest window (degree) that is still
  (k, B_{2,h})-tolerant under the monotone remap for each spare count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.debruijn import debruijn
from repro.core.tolerance import exhaustive_tolerance_check
from repro.errors import ParameterError, ToleranceViolation
from repro.graphs.static_graph import StaticGraph

__all__ = [
    "generalized_ft_graph",
    "window_necessity",
    "WindowResult",
    "extra_spare_search",
    "SpareSearchResult",
]


def generalized_ft_graph(h: int, spares: int, offsets) -> StaticGraph:
    """A base-2 FT-style graph on ``2^h + spares`` nodes with an arbitrary
    offset set: ``(x, y)`` is an edge iff ``y = (2x + r) mod (2^h + spares)``
    (or symmetrically) for some ``r`` in ``offsets``."""
    if spares < 0:
        raise ParameterError(f"spares must be >= 0, got {spares}")
    n = (1 << h) + spares
    offsets = np.asarray(sorted(set(int(r) for r in offsets)), dtype=np.int64)
    xs = np.arange(n, dtype=np.int64).reshape(-1, 1)
    ys = (2 * xs + offsets.reshape(1, -1)) % n
    src = np.repeat(np.arange(n, dtype=np.int64), offsets.size)
    return StaticGraph(n, np.column_stack([src, ys.reshape(-1)]))


@dataclass(frozen=True)
class WindowResult:
    """Outcome of removing one offset from the canonical window."""

    removed_offset: int
    still_tolerant: bool
    counterexample: tuple[int, ...] | None


def window_necessity(h: int, k: int) -> list[WindowResult]:
    """Remove each offset of ``{-k .. k+1}`` in turn and exhaustively
    re-check (k, B_{2,h})-tolerance.  The paper's window is *irredundant*
    iff every removal breaks it (measured: the ``abl-win`` table of the
    ``paper-figures`` report)."""
    target = debruijn(2, h)
    full = list(range(-k, k + 2))
    out: list[WindowResult] = []
    for r in full:
        offsets = [o for o in full if o != r]
        g = generalized_ft_graph(h, k, offsets)
        try:
            exhaustive_tolerance_check(g, target, k)
            out.append(WindowResult(r, True, None))
        except ToleranceViolation as tv:
            out.append(WindowResult(r, False, tv.fault_set))
    return out


@dataclass(frozen=True)
class SpareSearchResult:
    """Best window found for one spare count."""

    spares: int
    window_size: int
    offsets: tuple[int, ...]
    degree_measured: int
    canonical_window_size: int

    @property
    def improves_on_canonical(self) -> bool:
        return self.window_size < self.canonical_window_size


def extra_spare_search(h: int, k: int, max_extra: int = 3) -> list[SpareSearchResult]:
    """For each spare count ``p = k .. k + max_extra``, find the smallest
    contiguous window ``{-a .. b}`` that keeps the monotone-remap
    construction (k, B_{2,h})-tolerant, by exhaustive tolerance checking.

    Monotone remaps always have ``0 <= delta <= p`` when ``p`` spares
    exist but only ``k`` faults occur and the unused spares sit at the
    top; we keep the remap semantics identical (first-N survivors), so
    extra spares relax which offsets are exercised.  The result quantifies
    the §VI question empirically at small scale.
    """
    target = debruijn(2, h)
    canonical = 2 * k + 2
    out: list[SpareSearchResult] = []
    for p in range(k, k + max_extra + 1):
        best: SpareSearchResult | None = None
        for size in range(2, canonical + 1):
            # windows of this size: choose a in 0..size-1, offsets -a..size-1-a
            for a in range(size):
                offsets = tuple(range(-a, size - a))
                g = generalized_ft_graph(h, p, offsets)
                try:
                    exhaustive_tolerance_check(g, target, k)
                except ToleranceViolation:
                    continue
                best = SpareSearchResult(
                    spares=p,
                    window_size=size,
                    offsets=offsets,
                    degree_measured=g.max_degree(),
                    canonical_window_size=canonical,
                )
                break
            if best is not None:
                break
        if best is None:
            best = SpareSearchResult(
                spares=p,
                window_size=canonical,
                offsets=tuple(range(-k, k + 2)),
                degree_measured=generalized_ft_graph(
                    h, p, range(-k, k + 2)
                ).max_degree(),
                canonical_window_size=canonical,
            )
        out.append(best)
    return out
