"""(k, G)-tolerance verification engines (paper Section II's definition).

``G'`` is (k, G)-tolerant when **every** survivor set of size
``|V(G')| - k`` induces a subgraph containing ``G``.  Three engines:

* :func:`embed_after_faults` — the constructive certificate for one fault
  set, using the paper's monotone remap φ (optionally composed with a
  logical pre-map such as the shuffle-exchange ψ);
* :func:`exhaustive_tolerance_check` — iterate *all* ``C(N+k, k)`` fault
  sets (small parameters; this is the executable form of Theorems 1 and 2);
* :func:`random_tolerance_check` / :func:`adversarial_fault_sets` —
  randomized and structured sampling for larger parameters.

Each engine returns a :class:`ToleranceReport`; a counterexample raises
:class:`ToleranceViolation` (or is recorded, under ``collect=True``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from repro.core.reconfiguration import rank_remap
from repro.errors import FaultSetError, ToleranceViolation
from repro.graphs.isomorphism import verify_embedding
from repro.graphs.static_graph import StaticGraph

__all__ = [
    "embed_after_faults",
    "exhaustive_tolerance_check",
    "random_tolerance_check",
    "adversarial_fault_sets",
    "ToleranceReport",
    "max_tolerated_faults",
]


@dataclass
class ToleranceReport:
    """Outcome of a tolerance sweep.

    Attributes
    ----------
    checked:
        Number of fault sets verified.
    total:
        Total number of fault sets in scope (``C(N+k, k)`` for exhaustive
        runs, the sample count otherwise).
    exhaustive:
        Whether every fault set in scope was checked.
    failures:
        Counterexample fault sets (empty iff the construction held).
    """

    checked: int
    total: int
    exhaustive: bool
    failures: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no counterexample was found."""
        return not self.failures

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        status = "OK" if self.ok else f"{len(self.failures)} FAILURES"
        mode = "exhaustive" if self.exhaustive else "sampled"
        return f"ToleranceReport({status}, {self.checked}/{self.total} {mode})"


def embed_after_faults(
    ft: StaticGraph,
    target: StaticGraph,
    faults,
    logical_map: np.ndarray | None = None,
) -> np.ndarray:
    """Constructive survivor embedding for one fault set.

    Computes the paper's monotone remap ``φ`` of the target onto the first
    ``|V(target)|`` survivors of ``ft``, optionally pre-composed with
    ``logical_map`` (target node ``x`` hosted at ``φ(logical_map[x])``,
    e.g. ψ for shuffle-exchange targets).  Verifies the certificate and
    returns the final node map; raises :class:`EmbeddingError` on failure.
    """
    phi = rank_remap(ft.node_count, np.asarray(list(faults), dtype=np.int64), target.node_count
                     if logical_map is None else int(np.max(logical_map)) + 1)
    nm = phi if logical_map is None else phi[np.asarray(logical_map, dtype=np.int64)]
    verify_embedding(target, ft, nm, raise_on_fail=True)
    return nm


def _check_one(
    ft: StaticGraph,
    target_edges: np.ndarray,
    faults: np.ndarray,
    logical_map: np.ndarray | None,
    logical_size: int,
) -> bool:
    """Fast inner loop: build φ, map edges, batch-query ``ft.has_edges``."""
    try:
        phi = rank_remap(ft.node_count, faults, logical_size)
    except FaultSetError:
        return False
    nm = phi if logical_map is None else phi[logical_map]
    if target_edges.shape[0] == 0:
        return True
    return bool(ft.has_edges(nm[target_edges[:, 0]], nm[target_edges[:, 1]]).all())


def _check_one_search(
    ft: StaticGraph, target: StaticGraph, faults: np.ndarray
) -> bool:
    """Full Hayes-model check: does ANY embedding survive this fault set?

    Falls back to backtracking subgraph-monomorphism search over the
    survivor-induced subgraph.  Exponential in the worst case — reserve
    for small graphs or auditing designs whose remap is unknown."""
    from repro.graphs.isomorphism import find_embedding

    sub, _kept = ft.without_nodes(faults)
    if sub.node_count < target.node_count:
        return False
    return find_embedding(target, sub) is not None


def exhaustive_tolerance_check(
    ft: StaticGraph,
    target: StaticGraph,
    k: int,
    logical_map: np.ndarray | None = None,
    *,
    collect: bool = False,
    strategy: str = "monotone",
) -> ToleranceReport:
    """Verify (k, target)-tolerance over **all** fault sets of size ``k``.

    ``strategy`` selects the survivor certificate:

    * ``"monotone"`` (default) — the paper's rank remap φ (optionally
      composed with ``logical_map``).  O(E) per fault set; exactly what
      Theorems 1/2 assert for the ``B^k`` family.
    * ``"search"`` — full Hayes-model tolerance: accept if *any* embedding
      of the target survives (subgraph-monomorphism search).  Use to audit
      designs whose reconfiguration map is unknown; exponential worst case.

    With ``collect=False`` (default) the first counterexample raises
    :class:`ToleranceViolation`.
    """
    if k < 0:
        raise FaultSetError(f"k must be >= 0, got {k}")
    if strategy not in ("monotone", "search"):
        raise FaultSetError(f"unknown strategy {strategy!r}")
    n = ft.node_count
    if n - k < target.node_count:
        raise FaultSetError(
            f"ft graph has {n} nodes; removing {k} cannot host {target.node_count}"
        )
    edges = target.edges()
    lm = None if logical_map is None else np.asarray(logical_map, dtype=np.int64)
    lsize = target.node_count if lm is None else int(lm.max()) + 1
    total = comb(n, k)
    report = ToleranceReport(checked=0, total=total, exhaustive=True)
    for fs in combinations(range(n), k):
        faults = np.array(fs, dtype=np.int64)
        if strategy == "monotone":
            ok = _check_one(ft, edges, faults, lm, lsize)
        else:
            ok = _check_one_search(ft, target, faults)
        report.checked += 1
        if not ok:
            report.failures.append(fs)
            if not collect:
                raise ToleranceViolation(
                    f"fault set {fs} defeats the construction", fault_set=fs
                )
    return report


def random_tolerance_check(
    ft: StaticGraph,
    target: StaticGraph,
    k: int,
    samples: int,
    rng: np.random.Generator,
    logical_map: np.ndarray | None = None,
    *,
    collect: bool = False,
) -> ToleranceReport:
    """Verify tolerance on ``samples`` uniformly random fault sets of size
    ``k`` (plus the adversarial battery from
    :func:`adversarial_fault_sets`, always included)."""
    n = ft.node_count
    edges = target.edges()
    lm = None if logical_map is None else np.asarray(logical_map, dtype=np.int64)
    lsize = target.node_count if lm is None else int(lm.max()) + 1
    batches = list(adversarial_fault_sets(n, k))
    batches += [np.sort(rng.choice(n, size=k, replace=False)) for _ in range(samples)]
    report = ToleranceReport(checked=0, total=len(batches), exhaustive=False)
    for faults in batches:
        ok = _check_one(ft, edges, np.asarray(faults, dtype=np.int64), lm, lsize)
        report.checked += 1
        if not ok:
            fs = tuple(int(v) for v in faults)
            report.failures.append(fs)
            if not collect:
                raise ToleranceViolation(
                    f"fault set {fs} defeats the construction", fault_set=fs
                )
    return report


def adversarial_fault_sets(n: int, k: int):
    """Structured fault patterns that stress the proof's extremal cases:

    * ``k`` consecutive nodes at every window start near 0, the middle and
      the wrap boundary (maximizes one δ jump — the ``s = k+1`` case);
    * evenly spread faults (maximizes the number of distinct δ values);
    * faults at the very top of the id space (spares-only);
    * faults clustered at powers of two (hits the doubling map's image).
    """
    if k == 0:
        yield np.empty(0, dtype=np.int64)
        return
    starts = {0, max(0, n // 2 - k // 2), n - k, max(0, n - 2 * k), 1 % n}
    for s in sorted(starts):
        if 0 <= s <= n - k:
            yield np.arange(s, s + k, dtype=np.int64)
    spread = np.linspace(0, n - 1, num=k, dtype=np.int64)
    yield np.unique(spread) if np.unique(spread).size == k else np.arange(k)
    pows = [1]
    while pows[-1] * 2 < n:
        pows.append(pows[-1] * 2)
    if len(pows) >= k:
        yield np.array(pows[:k], dtype=np.int64)


def max_tolerated_faults(
    ft: StaticGraph,
    target: StaticGraph,
    logical_map: np.ndarray | None = None,
    *,
    k_cap: int | None = None,
) -> int:
    """Largest ``k`` such that *every* ``k``-fault set is survivable via the
    monotone remap (exhaustive; used by the window-tightness ablation).

    Note this measures the *constructive* tolerance of φ.  A graph might in
    principle tolerate more via some other embedding; the tests
    cross-check small cases with the full subgraph-isomorphism search.
    """
    spare = ft.node_count - target.node_count
    cap = spare if k_cap is None else min(spare, k_cap)
    best = -1
    for k in range(cap + 1):
        try:
            exhaustive_tolerance_check(ft, target, k, logical_map)
        except ToleranceViolation:
            break
        best = k
    return best
