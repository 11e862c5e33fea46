"""Benches TAB1/TAB2: the §I comparison against Samatham–Pradhan.

The paper's quantitative claim: same tolerance with ``N + k`` nodes
instead of ``N^{log_m m(k+1)}``, at degree ``4(m-1)k + 2m`` vs
``2mk + 2``.  The benches rebuild both families, measure, and assert the
shape: our node count is optimal and the S–P blowup is at least 7x even
at the smallest parameters (growing to >10^4 in range).  The full tables
are ``tab1`` and ``tab2`` of the ``paper-figures`` report.
"""

from __future__ import annotations

from repro.analysis.comparison import comparison_base2, comparison_basem

from benchmarks.conftest import once


def test_tab1_row_invariants(benchmark):
    rows = once(benchmark, comparison_base2, (3, 4, 5), (1, 2))
    for r in rows:
        assert r.ours_nodes == 2 ** r.h + r.k            # optimal N + k
        assert r.ours_degree_measured <= 4 * r.k + 4      # Cor. 1
        assert r.sp_nodes == (2 * (r.k + 1)) ** r.h       # S-P blowup
        assert r.node_ratio >= 7.0


def test_tab2_row_invariants(benchmark):
    rows = once(benchmark, comparison_basem, (3,), (3,), (1, 2))
    for r in rows:
        assert r.ours_degree_bound == 4 * (r.m - 1) * r.k + 2 * r.m
        assert r.sp_degree_quoted == 2 * r.m * r.k + 2
        assert r.ours_degree_measured <= r.ours_degree_bound
