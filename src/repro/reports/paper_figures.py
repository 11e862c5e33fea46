"""The source paper's figures, tables and theorem checks as report tables.

``paper-figures`` (registered in :mod:`repro.reports.definitions`) is a
*construction report*: its plan has no simulation cells, and its
aggregate calls :func:`paper_figure_tables`, which rebuilds every
artifact from the constructions themselves — one
:class:`~repro.reports.plan.ReportTable` per artifact, named after it
(``fig1`` ... ``fig5``, ``tab1``, ``thm1``, ``cor14``, ``busdeg``,
``motiv``, ``sat`` ...).  Rows carry ``"cells": []`` because no cell
artifact produced them; the ASCII listings of Figs. 1-5 go into the
bundle's ``summary.md`` as fenced blocks.

This module pulls in the analysis, algorithm and rendering layers, so
the report imports it only inside its aggregate: ``import repro.reports``
stays free of them.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import (
    FaultTolerantMachine,
    FaultTolerantSEMachine,
    bitonic_sort_on_debruijn,
    bitonic_sort_on_hypercube,
    bitonic_sort_on_shuffle_exchange,
    exclusive_prefix,
    fft,
)
from repro.analysis.comparison import comparison_base2, comparison_basem, se_comparison
from repro.analysis.dilation import dilation_profile
from repro.analysis.reliability import reliability_table
from repro.analysis.spares import extra_spare_search, window_necessity
from repro.core import (
    bus_debruijn,
    bus_degree_bound,
    bus_degree_bound_basem,
    bus_ft_debruijn,
    bus_ft_debruijn_basem,
    debruijn,
    embed_se_in_debruijn,
    exhaustive_tolerance_check,
    ft_debruijn,
    ft_degree_bound,
    psi_map,
    rank_remap,
    reconfigure_with_bus_faults,
    shuffle_exchange,
    verify_bus_embedding,
)
from repro.core.debruijn import debruijn_directed_successors
from repro.experiments import ExperimentSpec
from repro.reports.plan import ReportTable
from repro.simulator import (
    BatchEngine,
    BusNetworkSimulator,
    DetourController,
    FaultScenario,
    ReconfigurationController,
    pack_routes,
    uniform_traffic,
)
from repro.simulator.streaming import find_saturation
from repro.viz import adjacency_listing, bus_listing, relabeled_listing

__all__ = ["paper_figure_tables"]


def _table(name: str, caption: str, rows: list[dict]) -> ReportTable:
    """A construction table: columns in first-row order, and every row
    links no cell artifact."""
    return ReportTable(
        name=name,
        caption=caption,
        columns=tuple(rows[0]),
        rows=[dict(row, cells=[]) for row in rows],
    )


def _ok(report) -> str:
    return "OK" if report.ok else "FAIL"


# ---------------------------------------------------------------------------
# Figures: (table, listing)
# ---------------------------------------------------------------------------

def _fig1():
    """Fig. 1: the base-2 four-digit de Bruijn graph B_{2,4}."""
    g = debruijn(2, 4)
    row = {"nodes": g.node_count, "edges": g.edge_count, "max_degree": g.max_degree()}
    return _table("fig1", "B_{2,4} (paper Fig. 1)", [row]), adjacency_listing(g, 2, 4)


def _fig2():
    """Fig. 2: the fault-tolerant graph B^1_{2,4}."""
    g = ft_debruijn(2, 4, 1)
    row = {
        "nodes": g.node_count,
        "max_degree": g.max_degree(),
        "degree_bound": ft_degree_bound(2, 1),
    }
    return (
        _table("fig2", "B^1_{2,4} (paper Fig. 2): 17 nodes, degree <= 8", [row]),
        adjacency_listing(g, 2, 4),
    )


def _fig3():
    """Fig. 3: new labels of B^1_{2,4} after one fault, plus every
    single-fault reconfiguration verified edge by edge."""
    h, k, fault = 4, 1, 4
    ft = ft_debruijn(2, h, k)
    target = debruijn(2, h)
    phi = rank_remap(ft.node_count, [fault], target.node_count)
    listing = relabeled_listing(ft.node_count, phi, [fault], 2, h)
    ok = 0
    e = target.edges()
    for f in range(ft.node_count):
        p = rank_remap(ft.node_count, [f], target.node_count)
        if bool(ft.has_edges(p[e[:, 0]], p[e[:, 1]]).all()):
            ok += 1
    row = {"fault": fault, "verified_single_faults": ok, "total": ft.node_count}
    caption = (
        f"Reconfiguration of B^1_{{2,4}} after a fault at physical node "
        f"{fault} (paper Fig. 3); every single fault verified"
    )
    return _table("fig3", caption, [row]), listing


def _fig4():
    """Fig. 4: bus implementation of B^1_{2,3}."""
    bg = bus_ft_debruijn(3, 1)
    row = {
        "nodes": bg.node_count,
        "buses": bg.bus_count,
        "max_bus_degree": bg.max_bus_degree(),
        "bound_2k+3": bus_degree_bound(1),
    }
    return (
        _table("fig4", "Bus implementation of B^1_{2,3} (paper Fig. 4)", [row]),
        bus_listing(bg),
    )


def _fig5():
    """Fig. 5: reconfiguration after one fault, bus implementation; every
    single node fault and every single bus fault (owner rule) drivable
    over the healthy buses."""
    h, k, fault = 3, 1, 4
    bg = bus_ft_debruijn(h, k)
    target = debruijn(2, h)
    succ = debruijn_directed_successors(2, h)
    phi, eff = reconfigure_with_bus_faults(h, k, node_faults=[fault])
    listing = relabeled_listing(bg.node_count, phi, eff, 2, h)

    def drivable(dead_bus: int, **faults) -> bool:
        # node f owns bus f, so a node fault silences its bus as well
        p, _ = reconfigure_with_bus_faults(h, k, **faults)
        healthy = [b for b in range(bg.bus_count) if b != dead_bus]
        return verify_bus_embedding(
            bg, target, p, healthy_buses=healthy, directed_successors=succ
        )

    row = {
        "fault": fault,
        "node_fault_ok": sum(
            drivable(f, node_faults=[f]) for f in range(bg.node_count)
        ),
        "bus_fault_ok": sum(
            drivable(b, bus_faults=[b]) for b in range(bg.bus_count)
        ),
        "total": bg.node_count,
    }
    caption = (
        f"Bus reconfiguration of B^1_{{2,3}} after a fault at node {fault} "
        f"(paper Fig. 5); single node and single bus faults drivable"
    )
    return _table("fig5", caption, [row]), listing


# ---------------------------------------------------------------------------
# Comparison tables (paper §I prose)
# ---------------------------------------------------------------------------

def _tab1():
    return [_table(
        "tab1",
        "Base-2 comparison: ours (N+k, 4k+4) vs Samatham-Pradhan ((2k+2)^h, 4k+2)",
        [r.as_dict() for r in comparison_base2()],
    )]


def _tab2():
    return [_table(
        "tab2",
        "Base-m comparison: ours (N+k, 4(m-1)k+2m) vs S-P ((m(k+1))^h, 2mk+2)",
        [r.as_dict() for r in comparison_basem()],
    )]


# ---------------------------------------------------------------------------
# Theorems and corollaries
# ---------------------------------------------------------------------------

def _thm1():
    rows = []
    for h, k in [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]:
        rep = exhaustive_tolerance_check(ft_debruijn(2, h, k), debruijn(2, h), k)
        rows.append({"h": h, "k": k, "fault_sets": rep.total, "result": _ok(rep)})
    return [_table(
        "thm1", "Theorem 1: B^k_{2,h} is (k, B_{2,h})-tolerant (exhaustive)", rows
    )]


def _thm2():
    rows = []
    for m, h, k in [(3, 3, 1), (3, 3, 2), (4, 3, 1), (5, 3, 1)]:
        rep = exhaustive_tolerance_check(ft_debruijn(m, h, k), debruijn(m, h), k)
        rows.append(
            {"m": m, "h": h, "k": k, "fault_sets": rep.total, "result": _ok(rep)}
        )
    return [_table(
        "thm2", "Theorem 2: B^k_{m,h} is (k, B_{m,h})-tolerant (exhaustive)", rows
    )]


def _cor14():
    rows = []
    for m, h, k in [(2, 3, 0), (2, 3, 1), (2, 4, 1), (2, 4, 2), (2, 4, 3),
                    (3, 3, 1), (3, 3, 2), (4, 3, 1)]:
        g = ft_debruijn(m, h, k)
        rows.append({
            "m": m, "h": h, "k": k,
            "nodes": g.node_count, "nodes_formula": m ** h + k,
            "deg=": g.max_degree(), "deg<=": ft_degree_bound(m, k),
            "tight": "yes" if g.max_degree() == ft_degree_bound(m, k) else "no",
        })
    return [_table(
        "cor14", "Corollaries 1-4: node counts and degree bounds, measured", rows
    )]


# ---------------------------------------------------------------------------
# Shuffle-exchange
# ---------------------------------------------------------------------------

def _seemb():
    rows = []
    for h in range(3, 11):
        emb = embed_se_in_debruijn(h)  # raises if invalid
        rows.append({
            "h": h,
            "nodes": 1 << h,
            "se_edges": emb.pattern.edge_count,
            "host_edge_fraction": round(emb.used_host_edge_fraction(), 3),
            "valid": "yes",
        })
    tol = []
    for h, k in [(3, 1), (3, 2), (4, 1)]:
        rep = exhaustive_tolerance_check(
            ft_debruijn(2, h, k), shuffle_exchange(h), k, logical_map=psi_map(h)
        )
        tol.append({"h": h, "k": k, "fault_sets": rep.total, "result": _ok(rep)})
    return [
        _table(
            "seemb",
            "SE_h ⊆ B_{2,h} (ref [7], constructed): psi(u) = u (even weight) "
            "| rot^-1(u) (odd weight)",
            rows,
        ),
        _table(
            "seemb-tol",
            "(k, SE_h)-tolerance of B^k_{2,h} via phi∘psi at degree 4k+4 "
            "(exhaustive)",
            tol,
        ),
    ]


def _senat():
    return [_table(
        "senat",
        "FT shuffle-exchange: de Bruijn relabeling (4k+4) vs natural labeling "
        "(ours 6k+6; paper remark 6k+4) vs buses (2k+3)",
        se_comparison(),
    )]


# ---------------------------------------------------------------------------
# Buses
# ---------------------------------------------------------------------------

def _busdeg():
    rows = []
    for h in (3, 4, 5, 6):
        for k in (1, 2, 3, 4):
            bg = bus_ft_debruijn(h, k)
            rows.append({
                "m": 2, "h": h, "k": k,
                "bus_deg=": bg.max_bus_degree(),
                "bound": bus_degree_bound(k),
                "p2p_deg": 4 * k + 4,
                "ratio": round((4 * k + 4) / bg.max_bus_degree(), 2),
            })
    # the base-m generalization §V leaves implicit
    basem_rows = []
    for m in (3, 4):
        for k in (1, 2):
            bg = bus_ft_debruijn_basem(m, 3, k)
            basem_rows.append({
                "m": m, "h": 3, "k": k,
                "bus_deg=": bg.max_bus_degree(),
                "bound": bus_degree_bound_basem(m, k),
                "p2p_deg": ft_degree_bound(m, k),
                "ratio": round(ft_degree_bound(m, k) / bg.max_bus_degree(), 2),
            })
    return [
        _table(
            "busdeg",
            "§V: bus-port degree 2k+3 vs point-to-point 4k+4 (factor ≈ 2)",
            rows,
        ),
        _table(
            "busdeg-basem",
            "§V base-m generalization: (m-1)(2k+1)+2 bus ports",
            basem_rows,
        ),
    ]


def _busslow():
    """§V slowdown: ≈2x when nodes send two distinct values per cycle,
    ≈1x when they send one value (bus broadcast)."""
    h = 6
    n = 1 << h
    g = debruijn(2, h)
    bg = bus_debruijn(h)
    # every node sends to both successors; point-to-point links carry
    # the two sends in parallel whatever the values are
    pairs = [
        (x, (2 * x + r) % n) for x in range(n) for r in (0, 1)
        if (2 * x + r) % n != x
    ]
    p2p = BatchEngine(g)
    p2p.inject_routes(*pack_routes(pairs))  # each pair is a one-hop route
    p2p.run()
    p2p_cycles = p2p.stats().cycles

    rows = []
    for workload, word in (
        ("two distinct values/node", lambda s: None),  # no combining
        ("one broadcast value/node", lambda s: s),     # combines per source
    ):
        bus = BusNetworkSimulator(bg)
        for s, d in pairs:
            bus.inject_route([s, d], word=word(s))
        bus.run()
        bus_cycles = bus.stats().cycles
        rows.append({"workload": workload, "p2p_cycles": p2p_cycles,
                     "bus_cycles": bus_cycles,
                     "slowdown": round(bus_cycles / p2p_cycles, 2)})
    return [_table(
        "busslow",
        "§V: bus slowdown is ≈2x for two-value sends, ≈1x for single-value sends",
        rows,
    )]


# ---------------------------------------------------------------------------
# Motivation & algorithms on the simulator
# ---------------------------------------------------------------------------

def _motiv():
    """§I motivation: spare-less machines degrade under faults; the FT
    construction restores full service after reconfiguration."""
    m, h, k = 2, 5, 2
    n = 1 << h
    rng = np.random.default_rng(2024)
    batches = [uniform_traffic(n, 300, rng) for _ in range(3)]
    offered = sum(len(b) for b in batches)

    base = ReconfigurationController(m, h, k)
    s_base = base.run_workload([b.copy() for b in batches])

    ft = ReconfigurationController(m, h, k)
    ft.schedule(FaultScenario([(0, 7), (0, 19)]))
    s_ft = ft.run_workload([b.copy() for b in batches])

    det = DetourController(m, h)
    det.fail_node(7)
    det.fail_node(19)
    s_det = det.run_workload([b.copy() for b in batches])

    rows = [
        {"machine": label, "offered": offered, "delivered": s.delivered,
         "unreachable": unreachable, "mean_latency": round(s.mean_latency, 2),
         "mean_hops": round(s.mean_hops, 2)}
        for label, s, unreachable in (
            ("FT, no faults", s_base, 0),
            (f"FT, {k} faults + reconfig", s_ft, 0),
            ("bare dB, 2 faults, detours", s_det, det.unreachable_pairs),
        )
    ]
    return [_table(
        "motiv",
        "§I motivation: FT machine keeps full service under faults; "
        "spare-less machine loses nodes",
        rows,
    )]


def _algs():
    """Ascend/Descend workloads on hypercube vs de Bruijn vs reconfigured
    FT machine: correct everywhere, constant-factor rounds."""
    h = 5
    n = 1 << h
    rng = np.random.default_rng(11)
    keys = list(rng.integers(0, 1000, size=n))
    x = rng.random(n) + 1j * rng.random(n)

    hyp_vals, hyp_tr = bitonic_sort_on_hypercube(keys)
    db_vals, db_tr = bitonic_sort_on_debruijn(keys)
    mach = FaultTolerantMachine(h, 2)
    mach.fail_node(3)
    mach.fail_node(20)
    ft_vals, ft_tr = bitonic_sort_on_debruijn(keys, node_map=mach.rec.phi())

    X, fft_tr = fft(x, backend="debruijn")
    fft_ok = bool(np.allclose(X, np.fft.fft(x)))
    pre, pre_tr = exclusive_prefix(list(range(n)))

    rows = [
        {"workload": "bitonic sort", "machine": "hypercube (deg h)",
         "rounds": hyp_tr.round_count, "correct": hyp_vals == sorted(keys)},
        {"workload": "bitonic sort", "machine": "de Bruijn (deg 4)",
         "rounds": db_tr.round_count, "correct": db_vals == sorted(keys)},
        {"workload": "bitonic sort", "machine": "B^2 + 2 faults (deg 12)",
         "rounds": ft_tr.round_count, "correct": ft_vals == sorted(keys)},
        {"workload": "FFT (vs numpy)", "machine": "de Bruijn",
         "rounds": fft_tr.round_count, "correct": fft_ok},
        {"workload": "exclusive prefix", "machine": "de Bruijn",
         "rounds": pre_tr.round_count,
         "correct": pre == [sum(range(i)) for i in range(n)]},
    ]
    return [_table(
        "algs",
        "Normal algorithms: constant-factor slowdown on de Bruijn, unchanged "
        "after faults + reconfiguration",
        rows,
    )]


# ---------------------------------------------------------------------------
# Ablations, dilation, shuffle-exchange algorithms, saturation, reliability
# ---------------------------------------------------------------------------

def _abl_win():
    rows = [
        {"h": h, "k": k, "removed_r": res.removed_offset,
         "still_tolerant": res.still_tolerant,
         "counterexample": res.counterexample or ""}
        for h, k in [(3, 1), (3, 2), (4, 1)]
        for res in window_necessity(h, k)
    ]
    return [_table(
        "abl-win",
        "Window tightness: removing any offset from {-k..k+1} breaks tolerance",
        rows,
    )]


def _abl_spare():
    rows = [
        {"h": h, "k": k, "spares": res.spares,
         "min_window": res.window_size,
         "canonical": res.canonical_window_size,
         "offsets": res.offsets,
         "degree": res.degree_measured,
         "improves": res.improves_on_canonical}
        for h, k in [(3, 1), (3, 2), (4, 1)]
        for res in extra_spare_search(h, k, max_extra=3)
    ]
    return [_table(
        "abl-spare",
        "§VI future work: can > k spares reduce the window/degree? "
        "(empirical, monotone-remap family)",
        rows,
    )]


def _dil():
    """Zero dilation after reconfiguration vs stretch/disconnection under
    detours — all ordered pairs measured."""
    rows = []
    for h, k, faults in [(4, 1, [5]), (4, 2, [5, 11]), (5, 2, [3, 17])]:
        for profile in dilation_profile(h, k, faults):
            rows.append({"h": h, "faults": tuple(faults), **profile.row()})
    return [_table(
        "dil",
        "Route dilation: reconfigured FT machine (zero) vs bare-graph detours",
        rows,
    )]


def _sealg():
    """Normal algorithms on the shuffle-exchange machine — 2-round per-bit
    cost (vs 1 on dB), still fault-transparent through φ∘ψ."""
    h = 5
    n = 1 << h
    rng = np.random.default_rng(23)
    keys = list(map(int, rng.integers(0, 10**6, size=n)))
    x = rng.random(n) + 1j * rng.random(n)

    se_vals, se_tr = bitonic_sort_on_shuffle_exchange(keys)
    se_ok = se_vals == sorted(keys) and se_tr.verify_against(shuffle_exchange(h))

    mach = FaultTolerantSEMachine(h, 2)
    mach.fail_node(4)
    mach.fail_node(21)
    ft_vals, ft_tr = bitonic_sort_on_shuffle_exchange(keys, node_map=mach.node_map())
    ft_ok = ft_vals == sorted(keys) and ft_tr.verify_against(mach.healthy_graph())

    X, fft_tr = fft(x, backend="shuffle-exchange")
    fft_ok = bool(np.allclose(X, np.fft.fft(x)))

    rows = [
        {"workload": "bitonic sort", "machine": "SE_5 (deg 3)",
         "rounds": se_tr.round_count, "correct": se_ok},
        {"workload": "bitonic sort", "machine": "FT-SE via φ∘ψ, 2 faults",
         "rounds": ft_tr.round_count, "correct": ft_ok},
        {"workload": "FFT (vs numpy)", "machine": "SE_5",
         "rounds": fft_tr.round_count, "correct": fft_ok},
    ]
    return [_table(
        "sealg",
        "Normal algorithms on shuffle-exchange: degree-3 execution, "
        "fault-transparent through the ψ relabeling",
        rows,
    )]


def _rel():
    return [_table(
        "rel",
        "Survival probability, 64-processor machine: bare vs k spares "
        "(i.i.d. node failure prob q)",
        reliability_table(n_target=1 << 6),
    )]


def _sat():
    """Open-loop saturation-throughput curves: the FT machine keeps its
    fault-free saturation point after a fault (zero dilation under
    sustained load); the spare-less detour baseline loses it.  Inline,
    on the batch engine — the curves are engine-independent by the
    golden equivalence contract."""
    rates = [4, 8, 12, 14]
    common = dict(m=2, h=5, k=1, loop="stream", cycles=500, warmup=100, seed=0)
    fault = {"name": "fixed", "faults": [[0, 9]]}
    machines = [
        ("FT, no faults", ExperimentSpec(**common)),
        ("FT, 1 fault + reconfig", ExperimentSpec(**common, fault_model=fault)),
        ("bare dB, 1 fault, detours",
         ExperimentSpec(**common, fault_model=fault, controller="detour")),
    ]
    rows, summary = [], []
    for label, base in machines:
        res = find_saturation(base, rates, bisect=3, workers=0)
        for p in res.points:
            point = p.measures()
            rows.append({"machine": label, **{
                k: point[k] for k in ("rate", "offered_rate", "delivered_rate",
                                      "delivery_ratio", "backlog")
            }})
        summary.append({"machine": label,
                        "saturation_rate": round(res.saturation_rate, 3),
                        "bracketed": res.bracketed})
    return [
        _table(
            "sat",
            "Saturation throughput under sustained open-loop load: "
            "reconfiguration preserves it, detours lose it",
            rows,
        ),
        _table(
            "sat-saturation",
            "Detected saturation points (delivered/offered >= 0.95)",
            summary,
        ),
    ]


_FIGURES = (_fig1, _fig2, _fig3, _fig4, _fig5)
_TABLES = (
    _tab1, _tab2, _thm1, _thm2, _cor14, _seemb, _senat, _busdeg, _busslow,
    _motiv, _algs, _abl_win, _abl_spare, _dil, _sealg, _rel, _sat,
)


def paper_figure_tables() -> tuple[list[ReportTable], str]:
    """Every paper artifact as report tables, in paper order, plus the
    markdown summary holding the Fig. 1-5 listings."""
    tables = []
    parts = [
        "Constructions, not simulation cells: every table is rebuilt from "
        "the paper's graphs, remaps and embeddings, with the simulator "
        "and algorithm runs its prose describes.  No row links a cell "
        "artifact.",
    ]
    for build in _FIGURES:
        table, listing = build()
        tables.append(table)
        parts.append(f"### {table.name} listing\n\n{table.caption}\n\n"
                     f"```\n{listing}\n```")
    for build in _TABLES:
        tables.extend(build())
    return tables, "\n\n".join(parts)
