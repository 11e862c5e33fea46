"""Benches FIG1-FIG5: construction cost of the figures' graphs.

The figures themselves are the ``fig1`` ... ``fig5`` tables of the
``paper-figures`` report, whose facts tier-1 asserts
(``tests/test_viz_reporting.py``); these probes time the constructions
at sizes the figures do not reach.
"""

from __future__ import annotations

from repro.core import bus_ft_debruijn, debruijn, ft_debruijn


def test_fig1_construction_speed(benchmark):
    """FIG1 (construction cost): building B_{2,10} (1024 nodes)."""
    g = benchmark(debruijn, 2, 10)
    assert g.node_count == 1024 and g.max_degree() <= 4


def test_fig2_construction_speed(benchmark):
    """FIG2 (construction cost): building B^4_{2,10}."""
    g = benchmark(ft_debruijn, 2, 10, 4)
    assert g.node_count == 1028 and g.max_degree() <= 20


def test_fig4_construction_speed(benchmark):
    """FIG4 (construction cost): bus graph for B^3_{2,9}."""
    bg = benchmark(bus_ft_debruijn, 9, 3)
    assert bg.max_bus_degree() == 9  # 2k+3
