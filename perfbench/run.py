"""Benchmark runner: one workload, one seed, one run.

    python3 perfbench/run.py --workload reconfig-closed --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the
client sends a fixed number of requests -- as many as take ``--seconds``
seconds on the reference machine, and at least the workload's digest
requests -- then set-up is timed on fresh probe processes.  ``--trace 1`` replays the digest requests three ways
-- on the pool or service with the parent-side layers traced, inline
untraced, and inline with every layer traced -- and reports the
per-layer metrics.  Every output is checked; the last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
import traceback

#: Every run, its probes and its pool workers hash with this seed.  With
#: per-process random hashing, set and dict layouts -- and with them
#: allocation patterns, peak memory and some timings -- change from run
#: to run of the same input.
HASH_SEED = "0"

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    os.execve(sys.executable, [sys.executable, *sys.argv],
              dict(os.environ, PYTHONHASHSEED=HASH_SEED))

import numpy as np  # noqa: E402

from layers import FRONT, INNER, Instrumentation, Tracer  # noqa: E402
from workloads import BENCH_DIR, WORKLOADS  # noqa: E402

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "pkts_per_s": "pkt/s",
    "req_p50_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  Seconds are self
#: times summed over the traced requests.
PER_LAYER = {
    "graphs.build_s": "s", "graphs.build_calls": "count",
    "reconfiguration.remap_s": "s", "reconfiguration.remap_calls": "count",
    "routing.lift_s": "s", "routing.lift_pairs": "count",
    "routing.compile_s": "s", "routing.compile_calls": "count",
    "routing.table_bytes": "bytes",
    "routing.extract_s": "s", "routing.extract_pairs": "count",
    "routing.refused_pairs": "count",
    "engine.inject_s": "s", "engine.inject_packets": "count",
    "engine.step_s": "s", "engine.step_calls": "count",
    "engine.run_s": "s", "engine.run_calls": "count", "engine.cycles": "count",
    "faults.realize_s": "s", "faults.realize_calls": "count",
    "faults.events_fired": "count", "faults.lost_packets": "count",
    "faults.drive_s": "s",
    "sources.schedule_s": "s", "sources.arrivals": "count",
    "streaming.self_s": "s",
    "stats.reduce_s": "s", "stats.reduce_calls": "count",
    "spec.parse_s": "s", "spec.realize_s": "s", "spec.build_s": "s",
    "pool.map_s": "s", "pool.tasks": "count", "pool.spawned": "count",
    "pool.payload_bytes": "bytes", "pool.worker_busy_s": "s",
    "pool.utilization": "ratio", "pool.speedup_vs_inline": "x",
    "bundle.write_s": "s", "bundle.bytes": "bytes", "bundle.files": "count",
    "service.submit_s": "s", "service.queue_wait_s": "s", "service.run_s": "s",
    "service.fetch_s": "s", "service.result_bytes": "bytes",
    "service.retries": "count",
    "other.self_s": "s",
    "trace.wall_s": "s", "trace.self_sum_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Spans whose calls are reported as ``<span>_calls``.
_COUNTED_SPANS = ("graphs.build", "reconfiguration.remap", "routing.compile",
                  "engine.step", "engine.run", "faults.realize", "stats.reduce")
#: Metrics taken from the pool/service pass rather than the inline one.
_FRONT_SPANS = ("pool.map", "bundle.write", "spec.parse")

SETUP_PROBES = 5


def machine() -> dict:
    """The machine and runtime every number in this run came from."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    methods = multiprocessing.get_all_start_methods()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        # WorkerPool(start_method=None) prefers fork, else spawn
        "pool_start_method": "fork" if "fork" in methods else "spawn",
        "pool_workers": os.cpu_count(),
    }


def digest(cells: list) -> str:
    return hashlib.sha256(json.dumps(cells, sort_keys=True).encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident memory of this process and its reaped children
    (the pool workers), in MiB."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def time_setup(name: str) -> float:
    """Seconds from launching a fresh probe process until it is ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "probe.py"), name],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 120)
        line = proc.stdout.readline() if ready else b""
        seconds = time.perf_counter() - t0
        if line.strip() != b"ready":
            raise RuntimeError(f"set-up probe for {name} did not become ready")
    finally:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return seconds


class Tally:
    """Attempted/failed requests, the problems found, and the digest of
    the digest requests' exact stats."""

    def __init__(self):
        self.attempted = 0
        self.failed: set[int] = set()
        self.digest = ""

    def fail(self, index: int, problem: str) -> None:
        self.failed.add(index)
        print(f"FAILED request {index}: {problem}", file=sys.stderr)


def measure(wl, seed: int, seconds: float, probes: int = SETUP_PROBES) -> tuple[dict, Tally]:
    """End-to-end metrics with tracing off, over a fixed number of
    requests: ``seconds`` of request time on the reference machine."""
    t_start = time.perf_counter()
    ctx = wl.start()
    print(f"main process ready in {time.perf_counter() - t_start:.3f} s "
          f"(repro already imported)")
    tally = Tally()
    latencies, done = [], []
    spent = 0.0
    packets = 0
    try:
        for i in range(wl.requests_for(seconds)):
            req = wl.request(seed, i)
            tally.attempted += 1
            t0 = time.perf_counter()
            try:
                out = wl.run(ctx, req)
            except Exception:
                spent += time.perf_counter() - t0
                tally.fail(i, traceback.format_exc())
                continue
            latency = time.perf_counter() - t0
            spent += latency
            latencies.append(latency)
            packets += req.packets
            for problem in wl.check(req, out):
                tally.fail(i, problem)
            done.append((req, out))
        for pos, problem in wl.check_after(ctx, done):
            tally.fail(done[pos][0].index, problem)
    finally:
        wl.close(ctx)
    rss = peak_rss_mb()
    setups = [time_setup(wl.name) for _ in range(probes)]

    tally.digest = digest(
        [c for req, out in done if req.index < wl.digest_requests for c in out.cells])
    print(f"stats digest over the first {wl.digest_requests} requests: {tally.digest}")
    n = len(latencies)
    print(f"requests: {n} completed, {tally.attempted} attempted, "
          f"failed_frac {len(tally.failed) / tally.attempted:.4f}")
    if n >= 100:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        print(f"req_p90_s = {p90:.6f} s over {n} requests")
    print(f"set-up probes (s): {', '.join(f'{s:.4f}' for s in setups)}")
    metrics = {
        "setup_s": statistics.median(setups),
        "pkts_per_s": packets / spent,
        "req_p50_s": statistics.median(latencies) if latencies else float("nan"),
        "peak_rss_mb": rss,
    }
    return metrics, tally


def _replay(wl, ctx, reqs, *, inline: bool, tracer: Tracer | None, tally: Tally):
    """Run ``reqs`` once; returns (request seconds, outcomes).  Outputs
    are checked later, outside any instrumentation."""
    wall, outs = 0.0, []
    for req in reqs:
        tally.attempted += 1
        t0 = time.perf_counter()
        if tracer is None:
            out = wl.run(ctx, req, inline=inline)
        else:
            with tracer.span("request"):
                out = wl.run(ctx, req, inline=inline)
            for name, value in out.layer.items():
                tracer.add(name, value)
        wall += time.perf_counter() - t0
        outs.append(out)
    return wall, outs


def measure_traced(wl, seed: int) -> tuple[dict, Tally]:
    """Per-layer metrics from three passes over the digest requests."""
    reqs = [wl.request(seed, i) for i in range(wl.digest_requests)]
    tally = Tally()
    front, inner = Tracer(), Tracer()
    ctx = wl.start()
    try:
        with Instrumentation(front, FRONT):
            wall_a, outs_a = _replay(wl, ctx, reqs, inline=False, tracer=front,
                                     tally=tally)
        wall_b, outs_b = _replay(wl, ctx, reqs, inline=True, tracer=None, tally=tally)
        with Instrumentation(inner, FRONT + INNER):
            wall_c, outs_c = _replay(wl, ctx, reqs, inline=True, tracer=inner,
                                     tally=tally)
        spawned = wl.pool_of(ctx).spawned
        for req, a, b, c in zip(reqs, outs_a, outs_b, outs_c):
            for out in (a, b, c):
                for problem in wl.check(req, out):
                    tally.fail(req.index, problem)
            if not a.cells == b.cells == c.cells:
                tally.fail(req.index, "pool, inline and traced inline stats differ")
    finally:
        wl.close(ctx)
    tally.digest = digest([c for out in outs_a for c in out.cells])
    print(f"stats digest over the first {wl.digest_requests} requests: {tally.digest}")

    metrics = {name: 0.0 for name in PER_LAYER}
    for name, seconds in inner.seconds.items():
        if name != "request" and name not in _FRONT_SPANS:
            metrics[f"{name}_s"] = seconds
    for name in _COUNTED_SPANS:
        metrics[f"{name}_calls"] = inner.calls[name]
    for name, value in inner.counts.items():
        if name in metrics:
            metrics[name] = value
    for name in _FRONT_SPANS:
        metrics[f"{name}_s"] = front.seconds[name]
    for name, value in front.counts.items():   # pool.*, bundle.*, service.*
        if name in metrics:
            metrics[name] = value
    capacity = front.counts["pool.capacity_s"]
    metrics.update({
        "faults.lost_packets": sum(out.lost for out in outs_c),
        "pool.spawned": spawned,
        "pool.payload_bytes": front.payload_bytes(),
        "pool.utilization": metrics["pool.worker_busy_s"] / capacity if capacity else 0.0,
        "pool.speedup_vs_inline": wall_b / wall_a,
        "other.self_s": inner.seconds["request"],
        "trace.wall_s": wall_c,
        "trace.self_sum_s": sum(inner.seconds.values()),
        "trace.overhead_frac": wall_c / wall_b - 1.0,
    })
    print(f"passes over {len(reqs)} requests (s): pool/service {wall_a:.4f}, "
          f"inline {wall_b:.4f}, inline traced {wall_c:.4f}")
    _report_layer_map(wl, metrics, inner)
    return metrics, tally


def _report_layer_map(wl, metrics: dict, inner: Tracer) -> None:
    """Print the inline pass's largest self times and check the
    workload's expected layer map against them."""
    selfs = {("other.self_s" if name == "request" else f"{name}_s"): seconds
             for name, seconds in inner.seconds.items() if name not in _FRONT_SPANS}
    ranked = sorted(selfs, key=selfs.get, reverse=True)
    total = sum(selfs.values()) or 1.0
    print("largest self times: " + ", ".join(
        f"{k} {selfs[k] / total:.0%}" for k in ranked[:5]))
    for claim, holds in wl.layer_claims(metrics, ranked[0]):
        print(f"layer map: {claim}: {'holds' if holds else 'DIFFERS'}")


def emit(metrics: dict, units: dict, tally: Tally) -> dict:
    """Print each metric with its unit; return the result object."""
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    return {
        "correct": not tally.failed and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    print(f"workload {wl.name}: {wl.why}")
    print("machine: " + json.dumps(machine(), sort_keys=True))
    if args.trace:
        metrics, tally = measure_traced(wl, args.seed)
        result = emit(metrics, PER_LAYER, tally)
    else:
        metrics, tally = measure(wl, args.seed, args.seconds)
        result = emit(metrics, END_TO_END, tally)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
