"""The four benchmark workloads, each a closed loop driven by one client.

A workload turns ``(seed, index)`` into one request, runs it through the
same public entry points a user calls (``run_grid`` on a warm
``WorkerPool``, ``write_run_bundle``, the HTTP API of the experiment
service), and checks the outputs.  ``run(..., inline=True)`` replays a
request in this process (``workers=0``), which the exact-merge contract
makes bit-identical to the pool or service run.

Every request is made only from the seed and its index, so the same
seed gives the same inputs.  ``tiny=True`` shrinks every request for
the smoke test.
"""

from __future__ import annotations

import http.client
import importlib.util
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import srcpath  # noqa: F401  (puts the checkout's src/ on sys.path)
from repro.experiments import ExperimentGrid, ExperimentSpec
from repro.reports import bundle as reports_bundle
from repro.service.server import ExperimentService
from repro.simulator import ShardStats, WorkerPool, run_grid

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
#: Where bundles are written while a run lasts (removed at close).
WORK_DIR = os.path.join(BENCH_DIR, ".work")


def _draw_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


@dataclass
class Request:
    """One client request: what to run and how many packets it offers."""

    index: int
    packets: int
    specs: list = field(default_factory=list)    # cells run in one run_grid
    grids: list = field(default_factory=list)    # grids run one after another


@dataclass
class Outcome:
    """What a request returned, reduced to what the checks and the
    trace need."""

    cells: list                  # [(spec digest, exact stats dict)] in order
    results: list = field(default_factory=list)   # ExperimentResults (library path)
    lost: int = 0                # packets lost to faults
    bundle_dir: str | None = None
    layer: dict = field(default_factory=dict)     # service.* client timings


def _cells_of(results) -> list:
    return [(r.spec.digest(), r.stats.to_dict()) for r in results]


def _closed_problems(results) -> list[str]:
    """Conservation on closed-loop cells: everything injected was
    delivered or dropped, and every offered packet was injected unless
    the detour baseline refused it as unreachable."""
    out = []
    for r in results:
        st, sp = r.stats, r.spec
        if st.injected != st.delivered + st.dropped:
            out.append(f"{sp.label}: injected {st.injected} != delivered "
                       f"{st.delivered} + dropped {st.dropped}")
        offered = sp.packets * sp.replicas
        if st.injected + r.unreachable_pairs != offered:
            out.append(f"{sp.label}: injected {st.injected} + unreachable "
                       f"{r.unreachable_pairs} != offered {offered}")
    return out


class Workload:
    """Base class: a warm pool of ``nproc`` workers driven by
    ``run_grid``.  Subclasses define :meth:`request` and the checks."""

    name = ""
    why = ""
    #: Requests that every run completes: the stats digest covers them,
    #: and the traced run replays exactly these.
    digest_requests = 1
    #: Seconds one request takes on the reference machine (2-core Xeon,
    #: Python 3.11, numpy 2.4).  A run sends a fixed number of requests
    #: sized from it, so the work per run is the same on every commit --
    #: worker memory grows with the cells a worker has run, so peak
    #: memory is only comparable over equal work.
    nominal_s = 1.0
    #: Whether a detour closed-loop arm runs, the only path into
    #: ``BatchEngine.run``.
    detour_closed_arm = False

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def requests_for(self, seconds: float) -> int:
        return max(self.digest_requests, round(seconds / self.nominal_s))

    # -- set-up ---------------------------------------------------------

    def warm_specs(self) -> list:
        return [ExperimentSpec(m=2, h=4, k=2, packets=64, seed=i)
                for i in range(os.cpu_count() or 1)]

    def start(self):
        """Spawn the warm pool and run one small untimed cell on every
        worker; returns the context :meth:`run` takes."""
        pool = WorkerPool(workers=os.cpu_count())
        run_grid(self.warm_specs(), pool=pool)
        return pool

    def close(self, ctx) -> None:
        ctx.close()

    def pool_of(self, ctx) -> WorkerPool:
        return ctx

    # -- requests -------------------------------------------------------

    def request(self, seed: int, index: int) -> Request:
        raise NotImplementedError

    def run(self, ctx, req: Request, *, inline: bool = False) -> Outcome:
        kw = {"workers": 0} if inline else {"pool": ctx}
        results = []
        for grid in req.grids or [req.specs]:
            results.extend(run_grid(grid, **kw).results)
        return Outcome(cells=_cells_of(results), results=results,
                       lost=sum(r.lost_to_faults for r in results))

    def check(self, req: Request, out: Outcome) -> list[str]:
        return _closed_problems(out.results)

    def check_after(self, ctx, done: list) -> list[tuple[int, str]]:
        """Checks run once the timed phase is over: ``(request
        position, problem)`` pairs."""
        return []

    def layer_claims(self, metrics: dict, top: str) -> list[tuple[str, bool]]:
        """The layer map this workload was chosen for, as (claim, holds)
        pairs checked against the traced run; ``top`` is the metric with
        the largest self time."""
        return [("engine.run_calls > 0 only with a detour closed-loop arm",
                 (metrics["engine.run_calls"] > 0) == self.detour_closed_arm)]


class ReconfigClosed(Workload):
    name = "reconfig-closed"
    why = ("paper machine B^2_{2,10} under 40k-packet closed-loop batches with "
           "two mid-drain faults: batch-engine step, lift and inject")
    digest_requests = 3

    def request(self, seed, index):
        rng = np.random.default_rng([seed, 1, index])
        h, packets, window = (6, 400, (2, 10)) if self.tiny else (10, 40_000, (10, 50))
        k = 2
        nodes = rng.choice(2**h + k, size=2, replace=False)
        cycles = rng.integers(*window, size=2)
        grid = ExperimentGrid(
            mhk=[(2, h, k)], patterns=["uniform", "hotspot", "transpose"],
            loads=[packets], batches=4,
            fault_models=[{"name": "fixed",
                           "faults": [[int(c), int(v)] for c, v in zip(cycles, nodes)]}],
            seeds=[_draw_seed(rng)],
        )
        return Request(index=index, packets=3 * packets, grids=[grid])

    def layer_claims(self, metrics, top):
        return super().layer_claims(metrics, top) + [
            ("engine.step_s has the largest self time", top == "engine.step_s"),
            ("routing.compile_calls == 0", metrics["routing.compile_calls"] == 0),
        ]


class DetourChurnStream(Workload):
    name = "detour-churn-stream"
    why = ("spare-less detour baseline on B_{2,11}, open-loop stream with churn "
           "faults: one survivor-table compile per fault/repair epoch")
    nominal_s = 4.0
    #: Cells per request, fixed so that the workload does not depend on
    #: the machine's core count.
    cells = 2
    #: Fault/repair epochs every cell has (distinct event cycles): seeds
    #: are drawn until the churn realization has exactly this many, so
    #: cells differ in traffic and fault sites but not in compile count.
    epochs = 20

    def warm_specs(self):
        return [ExperimentSpec(m=2, h=4, k=0, loop="stream", controller="detour",
                               route_mode="table", rate=2.0, cycles=60, warmup=10,
                               seed=i)
                for i in range(os.cpu_count() or 1)]

    def _spec(self, seed):
        if self.tiny:
            return ExperimentSpec(
                m=2, h=5, k=0, loop="stream", controller="detour", route_mode="table",
                rate=4.0, cycles=200, warmup=20, seed=seed,
                fault_model={"name": "churn", "p": 0.95, "rounds": 2,
                             "mean_downtime": 20},
            )
        return ExperimentSpec(
            m=2, h=11, k=0, loop="stream", controller="detour", route_mode="table",
            source="poisson", rate=50.0, cycles=2000, warmup=200, seed=seed,
            fault_model={"name": "churn", "p": 0.998, "rounds": 2,
                         "mean_downtime": 200},
        )

    def _epochs(self, spec) -> int:
        sc = spec.realize_faults()
        return len({c for c, _ in sc.node_faults} | {c for c, _ in sc.node_repairs})

    def request(self, seed, index):
        rng = np.random.default_rng([seed, 2, index])
        specs = []
        while len(specs) < self.cells:
            spec = self._spec(_draw_seed(rng))
            if self.tiny or self._epochs(spec) == self.epochs:
                specs.append(spec)
        arrivals = sum(s.build_source().schedule(s.cycles)[0].size for s in specs)
        return Request(index=index, packets=int(arrivals), specs=specs)

    def layer_claims(self, metrics, top):
        return super().layer_claims(metrics, top) + [
            ("routing.compile_s has the largest self time", top == "routing.compile_s"),
        ]

    def check(self, req, out):
        problems = []
        for spec, r in zip(req.specs, out.results):
            st = r.stats
            arrivals = spec.build_source().schedule(spec.cycles)[0].size
            admitted = st.totals.injected
            if admitted + st.unadmitted != arrivals:
                problems.append(f"{spec.label}: admitted {admitted} + unadmitted "
                                f"{st.unadmitted} != offered {arrivals}")
            settled = st.totals.delivered + st.totals.dropped + st.final_occupancy
            if admitted != settled:
                problems.append(f"{spec.label}: admitted {admitted} != delivered + "
                                f"dropped + in flight {settled}")
        return problems


class MonteCarloBundle(Workload):
    name = "montecarlo-bundle"
    why = ("repeated dependability requests: iid reconfig and detour grids of "
           "384 ms-scale tasks on the pool, then a hashed bundle write")
    digest_requests = 4
    nominal_s = 1.25
    detour_closed_arm = True
    p_levels = (1.0, 0.95, 0.9)

    def warm_specs(self):
        return [ExperimentSpec(m=2, h=4, k=4, packets=32, replicas=2, seed=i,
                               fault_model={"name": "iid", "p": 0.9})
                for i in range(os.cpu_count() or 1)]

    def start(self):
        os.makedirs(WORK_DIR, exist_ok=True)
        self.check_bundle = _check_bundle()
        return super().start()

    def close(self, ctx):
        super().close(ctx)
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    def _shape(self):
        if self.tiny:
            return dict(mhk=[(2, 4, 8)], replicas=2, loads=[32])
        return dict(mhk=[(2, 5, 12), (2, 6, 16)], replicas=16, loads=[256])

    def _fits_spares(self, seed: int) -> bool:
        """Every replica of every reconfig cell stays within the spare
        budget (the iid draws at the lowest p contain the others)."""
        shape = self._shape()
        for m, h, k in shape["mhk"]:
            spec = ExperimentSpec(m=m, h=h, k=k, packets=shape["loads"][0], seed=seed,
                                  fault_model={"name": "iid", "p": min(self.p_levels)})
            if any(spec.realize_faults(i).fault_count > k
                   for i in range(shape["replicas"])):
                return False
        return True

    def request(self, seed, index):
        rng = np.random.default_rng([seed, 3, index])
        seeds = []
        while len(seeds) < 2:
            s = _draw_seed(rng)
            if self._fits_spares(s):
                seeds.append(s)
        common = dict(
            fault_models=[{"name": "iid", "p": p} for p in self.p_levels],
            seeds=seeds, **self._shape(),
        )
        grids = [ExperimentGrid(controller="reconfig", **common),
                 ExperimentGrid(controller="detour", route_mode="table", **common)]
        packets = sum(s.packets * s.replicas for g in grids for s in g.expand())
        return Request(index=index, packets=packets, grids=grids)

    def run(self, ctx, req, *, inline=False):
        out = super().run(ctx, req, inline=inline)
        out.bundle_dir = tempfile.mkdtemp(prefix="bundle-", dir=WORK_DIR)
        reports_bundle.write_run_bundle(
            out.results, out.bundle_dir,
            source={"grids": [g.to_dict() for g in req.grids]},
        )
        return out

    def check(self, req, out):
        problems = _closed_problems(out.results)
        problems += [f"bundle: {p}" for p in self.check_bundle(out.bundle_dir)]
        shutil.rmtree(out.bundle_dir, ignore_errors=True)
        return problems


def _check_bundle():
    """``check_bundle`` from the repository's stdlib-only bundle
    verifier (``tools/check_bundle.py``)."""
    path = os.path.join(ROOT, "tools", "check_bundle.py")
    spec = importlib.util.spec_from_file_location("check_bundle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.check_bundle


class ServiceJobs(Workload):
    name = "service-jobs"
    why = ("in-process HTTP experiment service, one client, one 8000-packet "
           "B^1_{2,8} job at a time: intake, queue, one-cell map, serialization")
    digest_requests = 100
    nominal_s = 0.09

    def start(self):
        svc = ExperimentService(workers=os.cpu_count()).start()
        try:
            warm = ExperimentSpec(m=2, h=4, k=1, packets=64)
            self._submit_and_fetch(svc.port, warm)
            status, body = _http(svc.port, "GET", "/healthz")
            if status != 200 or json.loads(body)["status"] != "ok":
                raise RuntimeError(f"service not healthy: {status} {body[:200]!r}")
        except BaseException:
            svc.close(force=True)
            raise
        return svc

    def pool_of(self, ctx):
        return ctx.pool

    def request(self, seed, index):
        rng = np.random.default_rng([seed, 4, index])
        h, packets = (4, 200) if self.tiny else (8, 8000)
        fault = [int(rng.integers(5, 30)), int(rng.integers(0, 2**h + 1))]
        spec = ExperimentSpec(m=2, h=h, k=1, packets=packets, seed=_draw_seed(rng),
                              fault_model={"name": "fixed", "faults": [fault]})
        return Request(index=index, packets=packets, specs=[spec])

    @staticmethod
    def _submit_and_fetch(port: int, spec) -> tuple[dict, dict]:
        """POST the spec, read its NDJSON stream to the final line, then
        GET the result; returns ``(result payload, client timings)``."""
        t0 = time.perf_counter()
        status, body = _http(port, "POST", "/experiments",
                             json.dumps({"experiment": spec.to_dict()}))
        t1 = time.perf_counter()
        if status != 202:
            raise RuntimeError(f"submit refused: {status} {body[:200]!r}")
        job_id = json.loads(body)["job"]["id"]
        _, stream = _http(port, "GET", f"/jobs/{job_id}/stream")
        final = json.loads(stream.splitlines()[-1])["job"]
        status, body = _http(port, "GET", f"/jobs/{job_id}/result")
        fetched_at = time.time()  # the service stamps jobs with time.time()
        if status != 200 or final["state"] != "done":
            raise RuntimeError(f"job {job_id} ended {final['state']}: {final['error']}")
        result = json.loads(body)
        job = result["job"]
        timings = {
            "service.submit_s": t1 - t0,
            "service.queue_wait_s": job["started_at"] - job["submitted_at"],
            "service.run_s": job["finished_at"] - job["started_at"],
            "service.fetch_s": fetched_at - job["finished_at"],
            "service.result_bytes": len(body),
            "service.retries": job["retries"],
        }
        return result, timings

    def run(self, ctx, req, *, inline=False):
        spec = req.specs[0]
        if inline:
            res = run_grid([spec], workers=0)
            return Outcome(cells=[(spec.digest(), res.aggregate.to_dict())],
                           results=list(res.results),
                           lost=res.results[0].lost_to_faults)
        result, timings = self._submit_and_fetch(ctx.port, spec)
        return Outcome(cells=[(spec.digest(), result["shard_stats"])], layer=timings)

    def check(self, req, out):
        st = ShardStats.from_dict(out.cells[0][1])
        problems = []
        if st.injected != st.delivered + st.dropped:
            problems.append(f"injected {st.injected} != delivered {st.delivered} "
                            f"+ dropped {st.dropped}")
        if st.injected != req.packets:
            problems.append(f"injected {st.injected} != offered {req.packets}")
        return problems

    def check_after(self, ctx, done):
        """The HTTP ``shard_stats`` of every job equal an inline
        ``run_grid`` of the same spec."""
        problems = []
        for pos, (req, out) in enumerate(done):
            inline = self.run(ctx, req, inline=True)
            if inline.cells != out.cells:
                problems.append((pos, f"job {req.index}: HTTP shard_stats differ "
                                      f"from an inline run_grid of the same spec"))
        return problems


def _http(port: int, method: str, path: str, body: str | None = None):
    """One request on a fresh loopback connection (the service speaks
    HTTP/1.0 and closes after each response)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


WORKLOADS = {
    cls.name: cls
    for cls in (ReconfigClosed, DetourChurnStream, MonteCarloBundle, ServiceJobs)
}
