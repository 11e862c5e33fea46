"""Degree-profile analysis: who pays the degree bound, and when.

Corollaries 1–4 bound the *maximum* degree; real machines also care about
the distribution (port count per node drives cost).  This module profiles
the degree histograms of the constructions, identifies the extremal nodes,
and locates the smallest ``h`` at which each bound becomes tight — the
"bound attainment frontier".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fault_tolerant import ft_debruijn, ft_degree_bound
from repro.errors import ParameterError
from repro.graphs.properties import degree_stats

__all__ = ["DegreeProfile", "degree_profile", "bound_attainment_frontier"]


@dataclass(frozen=True)
class DegreeProfile:
    """Degree landscape of one ``B^k_{m,h}``."""

    m: int
    h: int
    k: int
    bound: int
    maximum: int
    minimum: int
    mean: float
    histogram: dict[int, int]
    extremal_nodes: tuple[int, ...]

    @property
    def tight(self) -> bool:
        """Whether some node attains the corollary bound."""
        return self.maximum == self.bound

    def row(self) -> dict:
        return {
            "m": self.m, "h": self.h, "k": self.k,
            "deg<=": self.bound, "deg_max": self.maximum,
            "deg_min": self.minimum, "deg_mean": round(self.mean, 2),
            "tight": self.tight,
            "extremal": len(self.extremal_nodes),
        }


def degree_profile(m: int, h: int, k: int) -> DegreeProfile:
    """Full degree profile of ``B^k_{m,h}``."""
    g = ft_debruijn(m, h, k)
    stats = degree_stats(g)
    degs = g.degrees()
    extremal = tuple(int(v) for v in np.flatnonzero(degs == stats.maximum))
    return DegreeProfile(
        m=m, h=h, k=k,
        bound=ft_degree_bound(m, k),
        maximum=stats.maximum,
        minimum=stats.minimum,
        mean=stats.mean,
        histogram=stats.histogram,
        extremal_nodes=extremal,
    )


def bound_attainment_frontier(m: int, k: int, h_max: int = 9) -> int | None:
    """Smallest ``h`` (3..h_max) at which the degree bound of
    ``B^k_{m,h}`` is attained with equality, or ``None`` if never in range.

    Small graphs can't pay the full bound (not enough distinct block
    positions); the frontier marks where the corollaries become exact.
    """
    if h_max < 3:
        raise ParameterError("h_max must be >= 3")
    for h in range(3, h_max + 1):
        if degree_profile(m, h, k).tight:
            return h
    return None
