"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``build``    construct a graph family member and print its vitals
``verify``   run a (k, G)-tolerance check (exhaustive or sampled)
``report``   build registered reports: the paper's figures and tables,
             the dependability surface, with optional bundles
``route``         show a logical route and its lift under a fault set
``demo``          thirty-second tour: construct, fail, reconfigure, verify
``run``           execute any experiment spec or grid JSON — closed-loop
                  workloads, open-loop streams, saturation ladders,
                  whole saturation surfaces, and Monte-Carlo replicated
                  fault universes (``fault_model`` + ``replicas``) —
                  through one front door (see :mod:`repro.experiments`
                  and docs/experiments.md)
``serve``         accept the same spec/grid JSON over HTTP on one
                  persistent worker pool (docs/service.md)
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core import (
    bus_ft_debruijn,
    debruijn,
    exhaustive_tolerance_check,
    ft_debruijn,
    ft_degree_bound,
    natural_ft_shuffle_exchange,
    psi_map,
    random_tolerance_check,
    samatham_pradhan,
    shuffle_exchange,
)
from repro.errors import ParameterError, ReproError

__all__ = ["main", "build_parser"]


def _cmd_build(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "debruijn":
        g = debruijn(args.m, args.h)
        extra = ""
    elif kind == "ft":
        g = ft_debruijn(args.m, args.h, args.k)
        extra = f", degree bound {ft_degree_bound(args.m, args.k)}"
    elif kind == "se":
        g = shuffle_exchange(args.h)
        extra = ""
    elif kind == "natural-ft-se":
        g = natural_ft_shuffle_exchange(args.h, args.k)
        extra = f", degree bound {6 * args.k + 6}"
    elif kind == "sp":
        g = samatham_pradhan(args.m, args.h, args.k)
        extra = " (Samatham-Pradhan baseline)"
    elif kind == "bus":
        bg = bus_ft_debruijn(args.h, args.k)
        print(
            f"bus B^{args.k}_{{2,{args.h}}}: {bg.node_count} nodes, "
            f"{bg.bus_count} buses, max bus-degree {bg.max_bus_degree()} "
            f"(bound 2k+3 = {2 * args.k + 3})"
        )
        return 0
    else:  # pragma: no cover - argparse restricts choices
        raise ReproError(f"unknown kind {kind}")
    print(
        f"{kind}(m={args.m}, h={args.h}, k={args.k}): {g.node_count} nodes, "
        f"{g.edge_count} edges, max degree {g.max_degree()}{extra}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    ft = ft_debruijn(args.m, args.h, args.k)
    if args.target == "se":
        if args.m != 2:
            print("shuffle-exchange targets require m=2", file=sys.stderr)
            return 2
        target = shuffle_exchange(args.h)
        lm = psi_map(args.h)
    else:
        target = debruijn(args.m, args.h)
        lm = None
    if args.samples:
        rep = random_tolerance_check(
            ft, target, args.k, samples=args.samples,
            rng=np.random.default_rng(args.seed), logical_map=lm,
        )
    else:
        rep = exhaustive_tolerance_check(ft, target, args.k, logical_map=lm)
    print(rep)
    return 0 if rep.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    import os

    from repro.reports import (
        REPORTS,
        build_report,
        format_table,
        write_report_bundle,
    )
    from repro.simulator.pool import WorkerPool

    if args.list:
        print("\n".join(REPORTS.names()))
        return 0
    # refuse every bad name before a pool opens or a report builds, so a
    # refusal never leaves a half-written bundle behind
    if not args.names:
        raise ParameterError("name at least one report (see --list)")
    for name in args.names:
        REPORTS.validate(name)
        if args.names.count(name) > 1:
            raise ParameterError(f"report {name!r} is named twice")

    _install_signal_handlers()
    with WorkerPool(workers=args.workers,
                    chunk_size=args.chunk_size) as report_pool:
        for name in args.names:
            run = build_report(name, quick=args.quick, pool=report_pool)
            print(f"{run.plan.title}")
            print(f"{len(run.plan.cells)} cells on {run.workers} worker(s), "
                  f"{run.seconds:.3f} s")
            if run.summary:
                print(f"\n{run.summary}")
            for table in run.tables:
                print(f"\n{table.name}: {table.caption}")
                display = [
                    {c: row[c] for c in table.columns} for row in table.rows
                ]
                print(format_table(display))
            if args.bundle:
                out = (args.bundle if len(args.names) == 1
                       else os.path.join(args.bundle, name))
                manifest = write_report_bundle(run, out)
                print(f"\nwrote bundle: {out} "
                      f"({len(manifest['artifacts'])} artifacts "
                      f"+ manifest.json)")
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from repro.routing import ReconfiguredRouter

    router = ReconfiguredRouter(args.m, args.h, args.k)
    for f in args.fault:
        router.fail_node(f)
    logical = router.logical_route(args.src, args.dst)
    physical = router.physical_route(args.src, args.dst)
    print(f"logical  ({len(logical) - 1} hops): {logical}")
    print(f"physical ({len(physical) - 1} hops): {physical}")
    print(f"faults: {list(router.reconfigurator.faults)} — zero dilation")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.core import embed_after_faults
    from repro.viz import relabeled_listing

    h, k, fault = 4, 1, 4
    ft = ft_debruijn(2, h, k)
    target = debruijn(2, h)
    print(f"B^{k}_{{2,{h}}}: {ft.node_count} nodes (minimum possible: N+k), "
          f"degree {ft.max_degree()}")
    print(f"\n*** node {fault} fails ***\n")
    phi = embed_after_faults(ft, target, faults=[fault])
    print(relabeled_listing(ft.node_count, phi, [fault], 2, h))
    rep = exhaustive_tolerance_check(ft, target, k)
    print(f"\nand this works for EVERY fault: {rep}")
    return 0


def _load_run_input(path: str):
    """Parse a ``repro run`` JSON file into a spec or grid.

    Accepted shapes: a bare :class:`~repro.experiments.ExperimentSpec`
    field object, ``{"experiment": {...}}``, or ``{"grid": {...}}`` for
    an :class:`~repro.experiments.ExperimentGrid`.  A file that cannot
    be read, or is not JSON, raises :class:`ReproError` naming the path.
    """
    import json

    from repro.experiments import parse_run_payload

    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ReproError(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise ReproError(f"{path}: not JSON: {exc}") from None
    return parse_run_payload(payload, origin=path)


def _install_signal_handlers() -> None:
    """Make SIGTERM behave like Ctrl-C: the KeyboardInterrupt unwinds
    through the pool's context manager, which force-closes and
    terminates busy workers, so a ``kill`` leaves no orphan
    processes."""
    import signal

    def _raise(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _raise)
    except ValueError:  # pragma: no cover - not the main thread
        pass


def _cmd_run(args: argparse.Namespace) -> int:
    import dataclasses
    import json

    from repro.experiments import run_grid
    from repro.reports import format_table
    from repro.simulator.pool import WorkerPool
    from repro.simulator.grid import ShardStats
    from repro.simulator.streaming import find_saturation

    _install_signal_handlers()
    rates = None
    if args.rates:
        try:
            rates = [float(x) for x in args.rates.split(",")]
        except ValueError:
            print(f"error: --rates expects comma-separated numbers, got "
                  f"{args.rates!r}", file=sys.stderr)
            return 2
    target, kind = _load_run_input(args.spec)
    if rates is not None and (kind != "experiment" or target.loop != "stream"):
        print("error: --rates applies to a single stream experiment "
              "(use a grid with a `rates` axis for surfaces)", file=sys.stderr)
        return 2

    if rates is not None:
        # open-loop saturation ladder: sweep the rates in parallel, then
        # bracket + bisect the saturation point; one warm pool serves
        # the whole ladder
        with WorkerPool(workers=args.workers,
                        chunk_size=args.chunk_size) as run_pool:
            res = find_saturation(
                target, rates, bisect=args.bisect, threshold=args.threshold,
                pool=run_pool,
            )
        print(f"{target.label} — offered-load ladder")
        print(format_table(res.curve()))
        if res.bracketed:
            print(f"saturation ~ {res.saturation_rate:.3f} pkt/cycle "
                  f"(stable {res.stable_rate:.3f}, "
                  f"unstable {res.unstable_rate:.3f}, "
                  f"threshold {res.threshold})")
        else:
            bound = "lower" if res.stable_rate else "upper"
            print(f"saturation not bracketed by the rate ladder; "
                  f"{bound} bound ~ {res.saturation_rate:.3f} pkt/cycle")
        check_failed = False
        if args.check_single:
            single = find_saturation(
                target, rates, bisect=args.bisect, threshold=args.threshold,
                workers=0,
            )
            identical = len(single.points) == len(res.points) and all(
                a.stats == b.stats for a, b in zip(res.points, single.points)
            )
            check_failed = not identical
            print(f"single-process reference: identical stats: {identical}")
        if args.out:
            from repro.reports import write_run_bundle

            write_run_bundle(
                res.points, args.out,
                source={"kind": "saturation", "experiment": target.to_dict(),
                        "rates": rates},
            )
            print(f"wrote per-cell artifacts: {args.out}")
        if args.json:
            payload = {
                "experiment": target.to_dict(),
                "rates": rates,
                "workers": res.workers,
                "threshold": res.threshold,
                "saturation_rate": res.saturation_rate,
                "stable_rate": res.stable_rate,
                "unstable_rate": (
                    None if res.unstable_rate == float("inf")
                    else res.unstable_rate
                ),
                "bracketed": res.bracketed,
                "points": res.curve(),
            }
            with open(args.json, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
            print(f"wrote {args.json}")
        return 1 if check_failed else 0

    specs = [target] if kind == "experiment" else target
    if kind == "grid":
        print(f"experiment grid: {len(target)} cells (loop={target.loop})")
    with WorkerPool(workers=args.workers,
                    chunk_size=args.chunk_size) as run_pool:
        result = run_grid(specs, pool=run_pool)
    rows = result.rows()
    closed = [r for r in result.results if isinstance(r.stats, ShardStats)]
    streamed = [r for r in result.results if not isinstance(r.stats, ShardStats)]
    if closed:
        display = [
            {k: r[k] for k in ("scenario", "cycles", "delivered", "dropped",
                               "mean_latency", "p95_latency", "seconds")}
            for r in rows if "throughput" in r
        ]
        print(format_table(display))
        agg = result.aggregate_stats
        print(f"\naggregate over {len(closed)} closed-loop cell(s): {agg}")
    if streamed:
        display = [
            {k: r[k] for k in ("scenario", "rate", "offered_rate",
                               "delivered_rate", "delivery_ratio", "backlog",
                               "seconds")}
            for r in rows if "delivery_ratio" in r
        ]
        print(format_table(display))
    print(f"wall clock: {result.seconds:.3f} s on {result.workers} worker(s)")

    check_failed = False
    if args.check_single:
        single = run_grid(specs, workers=0)
        identical = all(
            a.stats == b.stats for a, b in zip(result.results, single.results)
        )
        check_failed = not identical
        print(f"single-process reference: identical stats: {identical}")
    if args.out:
        from repro.reports import write_run_bundle

        write_run_bundle(
            result.results, args.out,
            source={"kind": kind, kind: target.to_dict()},
        )
        print(f"wrote per-cell artifacts: {args.out}")
    if args.json:
        payload = {
            "kind": kind,
            kind: target.to_dict(),
            "workers": result.workers,
            "seconds": round(result.seconds, 4),
            "rows": rows,
        }
        if closed:
            payload["aggregate"] = dataclasses.asdict(result.aggregate_stats)
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 1 if check_failed else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    _install_signal_handlers()
    return serve(host=args.host, port=args.port, workers=args.workers,
                 chunk_size=args.chunk_size, max_retries=args.max_retries)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Fault-tolerant de Bruijn and shuffle-exchange networks "
                    "(Bruck, Cypher, Ho; ICPP 1992)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a graph and print vitals")
    b.add_argument("kind", choices=["debruijn", "ft", "se", "natural-ft-se", "sp", "bus"])
    b.add_argument("--m", type=int, default=2)
    b.add_argument("--h", type=int, default=4)
    b.add_argument("--k", type=int, default=1)
    b.set_defaults(func=_cmd_build)

    v = sub.add_parser("verify", help="run a (k, G)-tolerance check")
    v.add_argument("--m", type=int, default=2)
    v.add_argument("--h", type=int, default=3)
    v.add_argument("--k", type=int, default=1)
    v.add_argument("--target", choices=["debruijn", "se"], default="debruijn")
    v.add_argument("--samples", type=int, default=0,
                   help="random sample count (0 = exhaustive)")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser(
        "report",
        help="build registered reports, with an optional reproducibility "
             "bundle",
        description="Names from the REPORTS registry (e.g. "
                    "paper-figures, dependability-surface, paper-tables) "
                    "execute their experiment grids on one warm worker "
                    "pool, print the aggregated tables, and with --bundle "
                    "emit a self-describing, byte-identical-on-"
                    "regeneration bundle (manifest.json + raw per-cell "
                    "results + CSV/JSON tables + markdown summary).  "
                    "Every name is checked before anything runs.  See "
                    "docs/reports.md.",
    )
    r.add_argument("names", nargs="*", metavar="NAME",
                   help="registered report names (see --list)")
    r.add_argument("--bundle", default=None, metavar="DIR",
                   help="write the reproducibility bundle into DIR "
                   "(must be empty/nonexistent; one subdirectory per "
                   "report when several are named)")
    r.add_argument("--quick", action="store_true",
                   help="build the QUICK-sized parameterization "
                   "(CI/test scale) instead of the full surface")
    r.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: one per CPU core; "
                   "0 = run inline)")
    r.add_argument("--chunk-size", type=int, default=None,
                   help="tasks per work-stealing chunk (default: auto)")
    r.add_argument("--list", action="store_true",
                   help="list registered report names, then exit")
    r.set_defaults(func=_cmd_report)

    rt = sub.add_parser("route", help="route with reconfiguration")
    rt.add_argument("src", type=int)
    rt.add_argument("dst", type=int)
    rt.add_argument("--m", type=int, default=2)
    rt.add_argument("--h", type=int, default=4)
    rt.add_argument("--k", type=int, default=1)
    rt.add_argument("--fault", type=int, action="append", default=[])
    rt.set_defaults(func=_cmd_route)

    d = sub.add_parser("demo", help="thirty-second tour")
    d.set_defaults(func=_cmd_demo)

    rn = sub.add_parser(
        "run",
        help="execute an experiment spec or grid JSON (the unified "
             "front door for closed-loop and open-loop runs)",
        description="One declarative JSON drives everything: an "
                    "ExperimentSpec object ({...fields...} or "
                    "{'experiment': {...}}) runs one closed-loop "
                    "workload or open-loop stream; {'grid': {...}} "
                    "expands an ExperimentGrid (sizes x patterns x "
                    "loads-or-rates x fault sets-or-models x seeds) and "
                    "sweeps it across the multi-process pool — a stream "
                    "grid with a rates axis is a saturation surface, "
                    "and a fault_model ('fixed', 'iid', 'burst', "
                    "'churn') with replicas > 1 fans seeded Monte-Carlo "
                    "realizations across the same pool.  With "
                    "--rates, a stream spec becomes a saturation "
                    "ladder: the rungs are swept in parallel and the "
                    "saturation point is bracketed and bisected.  Field "
                    "names are validated against the backend registries "
                    "before anything runs; see docs/experiments.md for "
                    "the schema.",
    )
    rn.add_argument("spec", metavar="SPEC.json",
                    help="path to the experiment/grid JSON file")
    rn.add_argument("--rates", default=None, metavar="R1,R2,...",
                    help="stream specs only: evaluate this offered-load "
                    "ladder and bisect the saturation point instead of "
                    "running the spec's single rate")
    rn.add_argument("--bisect", type=int, default=5,
                    help="bisection refinements after bracketing "
                    "(with --rates)")
    rn.add_argument("--threshold", type=float, default=0.95,
                    help="delivered/offered ratio above which a ladder "
                    "point counts as stable (with --rates)")
    rn.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: one per CPU core; "
                    "0 = run inline)")
    rn.add_argument("--chunk-size", type=int, default=None,
                    help="tasks per work-stealing chunk (default: auto)")
    rn.add_argument("--check-single", action="store_true",
                    help="also run single-process and verify every "
                    "cell's stats (with --rates: every ladder and "
                    "bisection point's) are bit-identical")
    rn.add_argument("--json", default=None, metavar="PATH",
                    help="write rows + aggregate (or the saturation "
                    "curve) as JSON")
    rn.add_argument("--out", default=None, metavar="DIR",
                    help="write per-cell raw artifacts + manifest.json "
                    "into DIR via the reports bundle writer (must be "
                    "empty/nonexistent; see docs/reports.md)")
    rn.set_defaults(func=_cmd_run)

    sv = sub.add_parser(
        "serve",
        help="run the experiment service: accept spec/grid JSON over "
             "HTTP on one persistent worker pool",
        description="Starts a daemon that accepts the same "
                    "ExperimentSpec/ExperimentGrid JSON as `repro run` "
                    "via POST /experiments, validates it at the door, "
                    "and schedules jobs on one warm worker pool shared "
                    "across requests.  Results are bit-identical to "
                    "`repro run` on the same JSON; per-cell rows stream "
                    "as NDJSON from /jobs/<id>/stream.  See "
                    "docs/service.md for endpoints and curl recipes.",
    )
    sv.add_argument("--host", default="127.0.0.1",
                    help="bind address (default: 127.0.0.1)")
    sv.add_argument("--port", type=int, default=8642,
                    help="bind port (default: 8642; 0 = ephemeral)")
    sv.add_argument("--workers", type=int, default=None,
                    help="worker processes (default: one per CPU core)")
    sv.add_argument("--chunk-size", type=int, default=None,
                    help="tasks per work-stealing chunk (default: auto)")
    sv.add_argument("--max-retries", type=int, default=2,
                    help="retries for a cell whose worker process dies "
                    "(default: 2)")
    sv.set_defaults(func=_cmd_serve)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
