"""The paper's §I comparison, measured.

Builds the ours-vs-Samatham–Pradhan tables (``tab1``/``tab2`` of the
``paper-figures`` report) with *measured* node counts and degrees from
actually-constructed graphs next to the closed-form values the paper
quotes, plus the FT shuffle-exchange and bus rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.baselines import (
    natural_ft_se_degree_bound,
    natural_ft_shuffle_exchange,
    samatham_pradhan,
    sp_node_count,
    sp_reported_degree,
)
from repro.core.buses import bus_degree_bound, bus_ft_debruijn
from repro.core.fault_tolerant import ft_debruijn, ft_degree_bound

__all__ = ["ComparisonRow", "comparison_base2", "comparison_basem", "se_comparison"]

#: S–P graphs beyond this size are reported from formulas only (the row
#: is marked ``measured=False``) to keep the tables laptop-friendly.
_SP_MEASURE_LIMIT = 300_000


@dataclass(frozen=True)
class ComparisonRow:
    """One (h, k) comparison entry."""

    m: int
    h: int
    k: int
    ours_nodes: int
    ours_degree_bound: int
    ours_degree_measured: int
    sp_nodes: int
    sp_degree_quoted: int
    sp_degree_measured: int | None
    node_ratio: float  # sp_nodes / ours_nodes

    def as_dict(self) -> dict:
        return {
            "m": self.m, "h": self.h, "k": self.k,
            "ours_nodes": self.ours_nodes,
            "ours_deg<=": self.ours_degree_bound,
            "ours_deg=": self.ours_degree_measured,
            "SP_nodes": self.sp_nodes,
            "SP_deg(quoted)": self.sp_degree_quoted,
            "SP_deg=": self.sp_degree_measured,
            "node_ratio": round(self.node_ratio, 1),
        }


def _row(m: int, h: int, k: int) -> ComparisonRow:
    ours = ft_debruijn(m, h, k)
    spn = sp_node_count(m, h, k)
    sp_meas = None
    if spn <= _SP_MEASURE_LIMIT:
        sp_meas = samatham_pradhan(m, h, k).max_degree()
    return ComparisonRow(
        m=m, h=h, k=k,
        ours_nodes=ours.node_count,
        ours_degree_bound=ft_degree_bound(m, k),
        ours_degree_measured=ours.max_degree(),
        sp_nodes=spn,
        sp_degree_quoted=sp_reported_degree(m, k),
        sp_degree_measured=sp_meas,
        node_ratio=spn / ours.node_count,
    )


def comparison_base2(h_values=(3, 4, 5, 6), k_values=(1, 2, 3, 4)) -> list[ComparisonRow]:
    """TAB1: base-2 sweep.  Ours: ``N+k`` nodes, degree ``4k+4``; S–P:
    ``(2k+2)^h`` nodes, quoted degree ``4k+2``."""
    return [_row(2, h, k) for h in h_values for k in k_values]


def comparison_basem(m_values=(3, 4), h_values=(3,), k_values=(1, 2, 3)) -> list[ComparisonRow]:
    """TAB2: base-m sweep.  Ours: degree ``4(m-1)k + 2m``; S–P quoted
    ``2mk + 2``."""
    return [
        _row(m, h, k)
        for m in m_values for h in h_values for k in k_values
    ]


def se_comparison(h_values=(4, 5, 6), k_values=(1, 2, 3)) -> list[dict]:
    """SENAT: FT shuffle-exchange via the de Bruijn relabeling (degree
    4k+4) vs the natural labeling (our derived bound 6k+6; paper remark
    6k+4), measured."""
    out = []
    for h in h_values:
        for k in k_values:
            ours = ft_debruijn(2, h, k)
            nat = natural_ft_shuffle_exchange(h, k)
            out.append({
                "h": h, "k": k,
                "psi_deg<=": 4 * k + 4,
                "psi_deg=": ours.max_degree(),
                "natural_deg<=": natural_ft_se_degree_bound(k),
                "natural_deg(paper)": 6 * k + 4,
                "natural_deg=": nat.max_degree(),
                "bus_deg": bus_degree_bound(k),
                "bus_deg=": bus_ft_debruijn(h, k).max_bus_degree(),
            })
    return out
