"""System reliability of the fault-tolerant constructions.

The paper's Hayes-model guarantee is combinatorial: the machine survives
iff at most ``k`` of its ``N + k`` processors have failed.  This module
turns that into the reliability numbers a systems audience asks for:

* :func:`survival_probability` — closed-form P(machine alive) with i.i.d.
  per-node failure probability ``q`` (binomial tail), for the FT machine
  vs the bare machine (which dies at the *first* fault);
* :func:`expected_faults_to_failure` — expected number of random node
  failures until the machine dies (k+1 for the FT machine, 1 for bare:
  a clean "spares buy you exactly k extra deaths" statement);
* :func:`monte_carlo_survival` — simulation cross-check of the closed
  forms.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "survival_probability",
    "bare_survival_probability",
    "expected_faults_to_failure",
    "monte_carlo_survival",
    "reliability_table",
]


def survival_probability(n_target: int, k: int, q: float) -> float:
    """P(at most k of n_target + k nodes fail), nodes failing i.i.d. with
    probability ``q`` — the FT machine's survival probability: the
    binomial CDF, summed term by term in log space so that large
    machines neither overflow the binomial coefficient nor underflow
    the powers."""
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"failure probability must be in [0,1], got {q}")
    if k < 0 or n_target <= 0:
        raise ParameterError("need n_target > 0 and k >= 0")
    if q in (0.0, 1.0):
        return 1.0 - q  # nothing fails, or everything does (k < n_target + k)
    n = n_target + k
    log_q, log_p = math.log(q), math.log1p(-q)
    tail = math.fsum(
        math.exp(math.log(math.comb(n, i)) + i * log_q + (n - i) * log_p)
        for i in range(k + 1)
    )
    return min(tail, 1.0)


def bare_survival_probability(n_target: int, q: float) -> float:
    """P(zero of n_target nodes fail) — the spare-less machine."""
    if not 0.0 <= q <= 1.0:
        raise ParameterError(f"failure probability must be in [0,1], got {q}")
    return float((1.0 - q) ** n_target)


def expected_faults_to_failure(k: int) -> int:
    """Number of (adversarial or random) node deaths the machine absorbs
    before failing: ``k + 1``-st death kills it.  The bare machine dies at
    death 1."""
    if k < 0:
        raise ParameterError(f"k must be >= 0, got {k}")
    return k + 1


def monte_carlo_survival(
    n_target: int, k: int, q: float, trials: int, rng: np.random.Generator
) -> float:
    """Empirical estimate of :func:`survival_probability`."""
    fails = rng.random((trials, n_target + k)) < q
    return float((fails.sum(axis=1) <= k).mean())


def reliability_table(n_target: int, k_values=(0, 1, 2, 4),
                      q_values=(1e-3, 1e-2, 5e-2)) -> list[dict]:
    """REL experiment: survival probabilities across spare counts and
    failure rates, FT vs bare."""
    rows = []
    for q in q_values:
        row = {
            "q": q,
            "bare": bare_survival_probability(n_target, q),
        }
        for k in k_values:
            row[f"k={k}"] = survival_probability(n_target, k, q)
        rows.append(row)
    return rows
