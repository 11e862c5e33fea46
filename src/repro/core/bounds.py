"""Closed-form node and degree formulas for every construction.

This module is the single source of truth for the numbers the paper's
introduction and corollaries quote; tests assert that *measured* values
from the actual constructions match or respect these formulas, and the
comparison tables (``tab1``, ``tab2``) print both side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.baselines import natural_ft_se_degree_bound, sp_node_count, sp_reported_degree
from repro.core.buses import bus_degree_bound
from repro.core.fault_tolerant import ft_degree_bound, ft_node_count
from repro.core.labels import validate_base, validate_h
from repro.errors import ParameterError

__all__ = [
    "ConstructionSpec",
    "target_degree_bound",
    "optimal_ft_node_count",
    "paper_constructions",
    "corollary_table",
]


def target_degree_bound(m: int) -> int:
    """Degree bound of the target ``B_{m,h}``: ``2m`` (4 for base 2)."""
    return 2 * validate_base(m)


def optimal_ft_node_count(n_target: int, k: int) -> int:
    """Minimum possible node count of any (k, G)-tolerant graph for an
    ``n_target``-node target: ``n_target + k`` (remove the k spares and you
    must still hold G).  All of the paper's constructions meet this."""
    if k < 0 or n_target < 0:
        raise ParameterError("need n_target >= 0 and k >= 0")
    return n_target + k


@dataclass(frozen=True)
class ConstructionSpec:
    """One row of the paper's implicit comparison table."""

    name: str
    nodes: int
    degree_bound: int
    source: str

    def row(self) -> tuple[str, int, int, str]:
        return (self.name, self.nodes, self.degree_bound, self.source)


def paper_constructions(m: int, h: int, k: int) -> list[ConstructionSpec]:
    """All constructions at parameters ``(m, h, k)``, ours and baselines."""
    validate_base(m)
    validate_h(h, minimum=3)
    if k < 0:
        raise ParameterError(f"k must be >= 0, got {k}")
    rows = [
        ConstructionSpec(
            f"B^{k}_{{{m},{h}}} (this paper)",
            ft_node_count(m, h, k),
            ft_degree_bound(m, k),
            "Cor. 1/3",
        ),
        ConstructionSpec(
            f"Samatham-Pradhan B_{{{m*(k+1)},{h}}}",
            sp_node_count(m, h, k),
            sp_reported_degree(m, k),
            "[12] as quoted in §I",
        ),
    ]
    if m == 2:
        rows.append(
            ConstructionSpec(
                f"FT shuffle-exchange via ψ (k={k})",
                ft_node_count(2, h, k),
                ft_degree_bound(2, k),
                "§I + [7]",
            )
        )
        rows.append(
            ConstructionSpec(
                f"FT shuffle-exchange, natural labeling (k={k})",
                ft_node_count(2, h, k),
                natural_ft_se_degree_bound(k),
                "§I remark (paper quotes 6k+4)",
            )
        )
        rows.append(
            ConstructionSpec(
                f"Bus implementation of B^{k}_{{2,{h}}}",
                ft_node_count(2, h, k),
                bus_degree_bound(k),
                "§V",
            )
        )
    return rows


def corollary_table(h: int, m_values=(2, 3, 4), k_values=(0, 1, 2, 3)) -> list[dict]:
    """Corollaries 1-4 as data: for each (m, k), the node count and degree
    bound of ``B^k_{m,h}``, plus the k=1 specializations (Cor. 2: degree 8
    for base 2; Cor. 4: degree ``6m - 4``)."""
    out = []
    for m in m_values:
        for k in k_values:
            row = {
                "m": m,
                "h": h,
                "k": k,
                "nodes": ft_node_count(m, h, k),
                "degree_bound": ft_degree_bound(m, k),
            }
            if k == 1:
                row["cor2_or_4"] = 8 if m == 2 else 6 * m - 4
            out.append(row)
    return out
