#!/usr/bin/env python
"""Provisioning a parallel machine: how many spares, at what port cost?

A systems-engineering view of the paper's trade-off.  You are building a
64-processor de Bruijn machine and must pick the spare count ``k``:

* reliability — the machine survives iff at most ``k`` nodes fail
  (closed-form binomial, cross-checked by Monte-Carlo);
* hardware  — degree grows as ``4k + 4`` point-to-point, ``2k + 3``
  with Section-V buses;
* the alternative — Samatham-Pradhan's construction needs ``(2(k+1))^6``
  nodes for the same guarantee.

Run:  python examples/provisioning_spares.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import (
    monte_carlo_survival,
    survival_probability,
)
from repro.core import bus_degree_bound, ft_degree_bound, sp_node_count
from repro.reports import format_table


def main() -> int:
    h = 6
    n = 1 << h
    q = 0.01  # per-node failure probability over the mission
    target_availability = 0.999
    rng = np.random.default_rng(0)

    rows = []
    chosen = None
    for k in range(0, 9):
        p = survival_probability(n, k, q)
        mc = monte_carlo_survival(n, k, q, trials=40_000, rng=rng)
        rows.append({
            "k": k,
            "nodes": n + k,
            "P(survive)": f"{p:.6f}",
            "monte_carlo": f"{mc:.4f}",
            "p2p degree": ft_degree_bound(2, k),
            "bus ports": bus_degree_bound(k),
            "S-P nodes": sp_node_count(2, h, k),
        })
        if chosen is None and p >= target_availability:
            chosen = k

    print(f"{n}-processor machine, per-node failure prob q = {q}\n")
    print(format_table(rows))
    print(
        f"\nfirst k meeting {target_availability:.1%} availability: k = {chosen} "
        f"-> {n + chosen} nodes, {ft_degree_bound(2, chosen)} links/node "
        f"(or {bus_degree_bound(chosen)} bus ports), versus "
        f"{sp_node_count(2, h, chosen):,} nodes under Samatham-Pradhan."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
