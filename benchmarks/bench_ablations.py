"""Benches ABL-WIN / ABL-SPARE / REL: ablations and reliability.

ABL-WIN: the offset window {-k..k+1} is irredundant — removing any
single offset admits a counterexample fault set (the proof's extremal
cases are real).

ABL-SPARE: the §VI open question probed empirically — within the
monotone-remap family, extra spares do not shrink the required window at
small scale (a negative result, reported as such).

REL: survival probabilities, FT vs bare, closed-form + Monte-Carlo.

The full tables are ``abl-win``, ``abl-spare`` and ``rel`` of the
``paper-figures`` report (facts asserted in
``tests/test_viz_reporting.py``); these benches time their kernels.
"""

from __future__ import annotations


from repro.analysis import (
    extra_spare_search,
    monte_carlo_survival,
    survival_probability,
    window_necessity,
)

from benchmarks.conftest import once


def test_abl_window_k2_speed(benchmark):
    res = benchmark(window_necessity, 3, 2)
    assert all(not r.still_tolerant for r in res)


def test_abl_spares_search_speed(benchmark):
    out = benchmark(extra_spare_search, 3, 1, 2)
    assert len(out) == 3


def test_rel_closed_form_vs_monte_carlo(benchmark, rng):
    """REL: Monte-Carlo agrees with the binomial closed form."""

    def compare():
        exact = survival_probability(64, 2, 0.02)
        mc = monte_carlo_survival(64, 2, 0.02, trials=50_000, rng=rng)
        return exact, mc

    exact, mc = once(benchmark, compare)
    assert abs(exact - mc) < 0.01


def test_rel_ft_advantage_shape(benchmark):
    """Adding spares strictly improves survival at any q in (0,1)."""

    def probs():
        return [survival_probability(64, k, 0.03) for k in range(5)]

    seq = once(benchmark, probs)
    assert all(b > a for a, b in zip(seq, seq[1:]))
