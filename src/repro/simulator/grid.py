"""Grid execution on the worker pool, and the exact statistics merge.

The reliability claims of the paper only become measurable at scale —
millions of packets across many fault scenarios.  :func:`run_grid` is
the one dispatch path: it flattens a grid into independent tasks and
maps them over one :class:`~repro.simulator.pool.WorkerPool`.  Every
task is one *block* of single-replica specs, run by :func:`run_block`:

* **per experiment** — every cell of an
  :class:`~repro.experiments.ExperimentGrid` (a declarative sweep over
  ``(m, h, k)``, fault models, traffic patterns, loads *or* offered
  rates, and seed replicas) is an independent simulation — closed-loop
  drains and open-loop streams alike, so a saturation surface (rate x
  size x faults) runs as one sweep.  A cell without replicas is a block
  of one;
* **per replica block** — a Monte-Carlo cell's ``replicas`` are
  realized in the submitting process and cut into blocks
  (:meth:`~repro.experiments.ExperimentSpec.replica_blocks`), one task
  each.  A cell with one injection batch and every fault at cycle 0
  drains a whole block on one engine, its replicas side by side in one
  block-diagonal graph, so a replica's short drain no longer pays the
  engine's fixed per-cycle cost alone, and routes and reduces once per
  block rather than once per replica; every other cell, and a replica
  too large to share, is a block of one.  A map with fewer tasks than
  pool workers cuts its blocks finer, down to one replica each, until
  every worker has one, so a lone replicated cell still fans out.

:meth:`ExperimentSpec.run() <repro.experiments.ExperimentSpec.run>` is
``run_grid([spec], workers=0)``, so a cell run directly and one run in
a sweep share this expansion and its merge.  Every task runs a real
batch-engine simulation, so faults fire at exactly the cycle they come
due.

Results come back as :class:`ShardStats` — a mergeable, pickle-friendly
twin of :class:`RunStats` that carries exact counts plus latency/hop
histograms, so N tasks reduce to the same ``RunStats`` a single-process
run would have produced (bit-identical floats included; the property
tests in ``tests/test_grid.py`` enforce this).

Entry points
------------
:func:`run_grid`           sweep specs/grids across workers (accepts an
                           :class:`~repro.experiments.ExperimentGrid` or
                           a sequence of
                           :class:`~repro.experiments.ExperimentSpec`
                           cells; pass ``pool=`` to reuse warm workers)
:class:`WorkerPool`        the persistent chunked work-stealing pool
                           (re-exported from
                           :mod:`repro.simulator.pool`)
:class:`ShardStats`        the mergeable statistics record
:class:`ExperimentResult`  one executed spec's outcome
:class:`GridResult`        a sweep's per-spec results, aggregate and run
                           document (:meth:`GridResult.to_dict`)

Picking a worker count
----------------------
``workers=None`` uses ``os.cpu_count()`` capped by the task count.
Workers are full processes (the GIL never shares NumPy-heavy drains), so
more workers than physical cores buys nothing; fewer leaves hardware
idle.  ``workers<=1`` runs inline in-process — same code path, no pool —
which is also the reference the equivalence tests compare against.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.simulator.faults import drain_block
from repro.simulator.metrics import PacketArrays, RunStats, hist_percentile
from repro.simulator.pool import WorkerPool

__all__ = [
    "ShardStats",
    "ExperimentResult",
    "GridResult",
    "WorkerPool",
    "run_block",
    "run_grid",
]

_I64 = np.int64


# ---------------------------------------------------------------------------
# mergeable statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ShardStats:
    """Mergeable simulation statistics: the associative half of
    :class:`RunStats`.

    ``RunStats`` itself cannot be merged (means and percentiles are not
    associative), so shards return *exact sufficient statistics* instead:
    plain counters plus latency and hop histograms over the delivered
    packets.  Merging is exact, and :meth:`to_run_stats` reproduces the
    single-process ``RunStats`` bit-for-bit:

    * integer counters add;
    * histograms add (``np.unique`` values with int64 counts);
    * ``mean`` — ``np.mean`` over int64 latencies performs pairwise
      float64 summation whose partial sums are all integers; every one is
      exact below 2**53, so ``float(sum) / n`` lands on the identical
      float regardless of packet order;
    * ``p95`` — the histogram *is* the sorted multiset, and
      :func:`~repro.simulator.metrics.hist_percentile` reads
      ``np.percentile``'s exact result off it without expanding it;
    * ``max`` — the last histogram bin.

    All fields are plain ints and small int64 arrays, so the record
    pickles compactly across process boundaries.
    """

    cycles: int
    injected: int
    delivered: int
    dropped: int
    lat_values: np.ndarray    # unique latencies of delivered packets, sorted
    lat_counts: np.ndarray    # multiplicity per latency value
    hop_values: np.ndarray    # unique hop counts of delivered packets, sorted
    hop_counts: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShardStats):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )

    @classmethod
    def from_arrays(cls, records: PacketArrays, cycles: int) -> "ShardStats":
        """Reduce one shard's :class:`PacketArrays` to mergeable form."""
        ok = records.delivered_at >= 0
        lat = (records.delivered_at[ok] - records.injected_at[ok]).astype(_I64)
        hops = records.hops[ok].astype(_I64)
        lat_values, lat_counts = np.unique(lat, return_counts=True)
        hop_values, hop_counts = np.unique(hops, return_counts=True)
        return cls(
            cycles=int(cycles),
            injected=int(records.injected_at.shape[0]),
            delivered=int(lat.size),
            dropped=int(np.count_nonzero(records.dropped)),
            lat_values=lat_values,
            lat_counts=lat_counts.astype(_I64),
            hop_values=hop_values,
            hop_counts=hop_counts.astype(_I64),
        )

    @classmethod
    def empty(cls) -> "ShardStats":
        z = np.zeros(0, dtype=_I64)
        return cls(**{f.name: z if _is_hist(f) else 0 for f in fields(cls)})

    @staticmethod
    def _merge_hist(
        values: Sequence[np.ndarray], counts: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        v = np.concatenate(values)
        c = np.concatenate(counts)
        uv, inv = np.unique(v, return_inverse=True)
        uc = np.zeros(uv.size, dtype=_I64)
        np.add.at(uc, inv, c)
        return uv, uc

    @classmethod
    def merge(cls, shards: Iterable["ShardStats"]) -> "ShardStats":
        """Exact vectorized reduction of any number of shards.

        Cycle counts *add*: shard ``i + 1`` logically starts on the cycle
        shard ``i`` drained (the sequential-drain timeline), which is what
        a single engine draining the concatenated workload reports.
        """
        shards = list(shards)
        if not shards:
            return cls.empty()
        lat_values, lat_counts = cls._merge_hist(
            [s.lat_values for s in shards], [s.lat_counts for s in shards]
        )
        hop_values, hop_counts = cls._merge_hist(
            [s.hop_values for s in shards], [s.hop_counts for s in shards]
        )
        return cls(
            cycles=sum(s.cycles for s in shards),
            injected=sum(s.injected for s in shards),
            delivered=sum(s.delivered for s in shards),
            dropped=sum(s.dropped for s in shards),
            lat_values=lat_values,
            lat_counts=lat_counts,
            hop_values=hop_values,
            hop_counts=hop_counts,
        )

    def to_dict(self) -> dict:
        """JSON-friendly form of the exact sufficient statistics: plain
        ints plus histogram lists, one key per field.  :meth:`from_dict`
        round-trips bit-for-bit, so a merged record served over HTTP
        reconstructs the identical :class:`RunStats` on the client side."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.tolist() if _is_hist(f) else value
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardStats":
        """Inverse of :meth:`to_dict` (exact)."""
        return cls(**{
            f.name: (np.asarray(payload[f.name], dtype=_I64) if _is_hist(f)
                     else int(payload[f.name]))
            for f in fields(cls)
        })

    def to_run_stats(self, cycles: int | None = None) -> RunStats:
        """The :class:`RunStats` a single-process run would have produced
        (``cycles`` overrides the summed drain timeline when the caller
        tracked idle cycles separately)."""
        cycles = self.cycles if cycles is None else int(cycles)
        delivered = self.delivered
        if delivered:
            lat_sum = int(np.dot(self.lat_values, self.lat_counts))
            hop_sum = int(np.dot(self.hop_values, self.hop_counts))
            p95 = hist_percentile(self.lat_values, self.lat_counts, 95)
            mean_latency = lat_sum / delivered
            mean_hops = hop_sum / delivered
            max_latency = int(self.lat_values[-1])
        else:
            p95 = mean_latency = mean_hops = 0.0
            max_latency = 0
        return RunStats(
            cycles=cycles,
            injected=self.injected,
            delivered=delivered,
            dropped=self.dropped,
            mean_latency=mean_latency,
            p95_latency=p95,
            max_latency=max_latency,
            mean_hops=mean_hops,
            throughput=delivered / cycles if cycles else 0.0,
        )


def _is_hist(f) -> bool:
    """Is a :class:`ShardStats` field a histogram array (the rest are
    integer counters)?"""
    return f.type == "np.ndarray"


# ---------------------------------------------------------------------------
# experiment results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentResult:
    """One executed :class:`~repro.experiments.ExperimentSpec`'s outcome
    (or one replica block of it).

    ``stats`` is loop-shaped, and :attr:`closed` says which loop ran:
    closed-loop runs carry mergeable :class:`ShardStats` (so the blocks
    of one cell reduce exactly — see :meth:`merged_with`), stream runs
    carry :class:`~repro.simulator.metrics.StreamStats`.
    """

    spec: "object"          # ExperimentSpec (kept untyped: layering)
    stats: "ShardStats | object"
    seconds: float
    lost_to_faults: int = 0
    unreachable_pairs: int = 0

    @property
    def closed(self) -> bool:
        """A closed-loop drain (mergeable :class:`ShardStats`), not an
        open-loop stream point."""
        return isinstance(self.stats, ShardStats)

    @property
    def run_stats(self) -> RunStats:
        """Closed-loop :class:`~repro.simulator.metrics.RunStats` (the
        single-process numbers, bit-identical by the :class:`ShardStats`
        contract)."""
        if not self.closed:
            raise ParameterError(
                "run_stats applies to closed-loop results; stream results "
                "carry StreamStats in .stats"
            )
        return self.stats.to_run_stats()

    def stable(self, threshold: float) -> bool:
        """Stream loop: is the point below saturation? — delivered keeps
        up with offered (``delivery_ratio >= threshold``)."""
        return self.stats.delivery_ratio >= threshold

    def merged_with(self, others: Sequence["ExperimentResult"]) -> "ExperimentResult":
        """Fold closed-loop block results of the *same* cell into one
        record (exact — see :class:`ShardStats`).  With nothing to fold
        the record passes through unchanged (a stream cell is always one
        block, so it only ever takes this path)."""
        if not others:
            return self
        parts = [self, *others]
        return ExperimentResult(
            spec=self.spec,
            stats=ShardStats.merge(p.stats for p in parts),
            seconds=sum(p.seconds for p in parts),
            lost_to_faults=sum(p.lost_to_faults for p in parts),
            unreachable_pairs=sum(p.unreachable_pairs for p in parts),
        )

    def measures(self) -> dict:
        """The loop's measurement columns: drain columns for a closed
        loop, saturation-curve columns for a stream point (a
        :meth:`~repro.simulator.streaming.SaturationResult.curve` row);
        both end with the wall-clock ``seconds``."""
        if self.closed:
            st = self.run_stats
            return {
                "cycles": st.cycles,
                "delivered": st.delivered,
                "dropped": st.dropped,
                "mean_latency": round(st.mean_latency, 4),
                "p95_latency": round(st.p95_latency, 4),
                "throughput": round(st.throughput, 4),
                "seconds": round(self.seconds, 4),
            }
        s = self.stats
        return {
            "rate": self.spec.rate,
            "offered_rate": round(s.offered_rate, 4),
            "delivered_rate": round(s.delivered_rate, 4),
            "delivery_ratio": round(s.delivery_ratio, 4),
            "mean_latency": round(s.mean_latency, 4),
            "p95_latency": round(s.p95_latency, 4),
            "backlog": s.final_occupancy,
            "dropped": s.dropped,
            "unadmitted": s.unadmitted,
            "seconds": round(self.seconds, 4),
        }

    def row(self) -> dict:
        """JSON-friendly summary row: the cell's identity (led by the
        ``"scenario"`` label; ``packets`` for a closed loop, ``source``
        for a stream), then :meth:`measures`.  Cells with a fault model
        add a ``fault_model`` column (and ``replicas`` when > 1)."""
        sc = self.spec
        return {
            "scenario": sc.label,
            "m": sc.m, "h": sc.h, "k": sc.k,
            "pattern": sc.pattern,
            **({"packets": sc.packets} if self.closed else {"source": sc.source}),
            **_fault_model_columns(sc),
            "seed": sc.seed,
            "controller": sc.controller,
            "route_mode": sc.route_mode,
            **self.measures(),
        }


def _fault_model_columns(spec) -> dict:
    """Row columns for a cell's fault model and replica count — empty
    for a fault-free single-replica cell."""
    out: dict = {}
    if spec.fault_model is not None:
        out["fault_model"] = dict(spec.fault_model)
    if spec.replicas > 1:
        out["replicas"] = spec.replicas
    return out


# ---------------------------------------------------------------------------
# grid execution
# ---------------------------------------------------------------------------

def run_block(block) -> ExperimentResult:
    """Run one block of single-replica specs (a plain cell, or realized
    replicas from :meth:`~repro.experiments.ExperimentSpec.replica_blocks`)
    and return their merged result, equal to merging each replica's own
    ``run()``.  A block of one runs its spec alone.  A larger block
    builds every replica's controller, whose cycle-0 events fire on it
    while it builds no engine, and drains them together through
    :func:`~repro.simulator.faults.drain_block`: one lift, or one
    survivor table per distinct fault set, and one engine for the whole
    block.  Its stats are one :meth:`ShardStats.from_arrays` over the
    union's records, ``cycles`` the sum of each replica's last delivery,
    which is exactly the merge of the replicas' own stats."""
    if len(block) == 1:
        return block[0]._run()
    first = block[0]
    ctrls = [rep.build_controller() for rep in block]
    t0 = time.perf_counter()
    records, _, cycles = drain_block(ctrls, first.traffic(),
                                     max_cycles=first.max_cycles)
    seconds = time.perf_counter() - t0
    return ExperimentResult(
        spec=first,
        stats=ShardStats.from_arrays(records, sum(cycles)),
        seconds=seconds,
        lost_to_faults=sum(c.lost_to_faults for c in ctrls),
        unreachable_pairs=sum(c.unreachable_pairs for c in ctrls),
    )


@dataclass(frozen=True)
class _BlockTask:
    """One unit of pool work: a block of single-replica specs (a plain
    cell is a block of one), run by :func:`run_block`.  Its repr, which
    a failure message carries, is the cell's label and the block's
    replica range."""

    block: tuple            # single-replica ExperimentSpecs
    cell: str               # the label of the cell the block belongs to
    first: int              # the cell's replica index of block[0]

    def run(self) -> ExperimentResult:
        return run_block(self.block)

    def __repr__(self) -> str:
        last = self.first + len(self.block) - 1
        span = f"replicas {self.first}-{last}" if last > self.first else f"replica {last}"
        return f"{self.cell}, {span}"


def _run_task(task: _BlockTask) -> ExperimentResult:
    return task.run()


def _as_specs(grid) -> list:
    """Normalize a grid or a sequence of spec cells into a flat spec
    list."""
    from repro.experiments.spec import ExperimentGrid, ExperimentSpec

    if isinstance(grid, ExperimentGrid):
        return grid.expand()
    specs = list(grid)
    for cell in specs:
        if not isinstance(cell, ExperimentSpec):
            raise ParameterError(
                f"run_grid expects ExperimentSpec cells, got {cell!r}"
            )
    return specs


def _expand_tasks(specs: Sequence, workers: int = 1) -> tuple[list, list[int]]:
    """Flatten specs into block tasks; ``owner[i]`` maps task ``i``
    back to its spec index (the replica blocks of one cell share an
    owner).  A cell without replicas is a block of one.  Replicated
    cells are realized *here*, in the submitting process, and cut into
    blocks by :meth:`~repro.experiments.ExperimentSpec.replica_blocks`:
    each replica's fault schedule is drawn once from
    ``rng([seed, replica])``, every worker runs frozen ``fixed``
    schedules, and pool and inline execution see bit-identical
    realizations.  With fewer tasks than ``workers`` the blocks are cut
    finer (:func:`_spread_blocks`)."""
    tasks: list = []
    owners: list[int] = []
    for si, sp in enumerate(specs):
        blocks = sp.replica_blocks() if sp.replicas > 1 else [(sp,)]
        starts = np.cumsum([0] + [len(b) for b in blocks[:-1]])
        tasks += [_BlockTask(b, sp.label, int(i)) for b, i in zip(blocks, starts)]
        owners += [si] * len(blocks)
    return _spread_blocks(tasks, owners, workers)


def _spread_blocks(tasks: list, owners: list[int],
                   workers: int) -> tuple[list, list[int]]:
    """Cut replica blocks finer while the map has fewer tasks than
    ``workers``: each step gives one more part to the block with the
    most replicas per part, until every worker has a task or every
    block is down to one replica; a block's parts are its consecutive
    replicas.  A block is one task, so without this a lone replicated
    cell would drain on one worker (or inline: a one-task map runs in
    the caller) while the rest of the pool idles.  Every replica's
    stats are exact in any block, so the cut never moves a result."""
    size = [len(t.block) for t in tasks]
    parts = [1] * len(tasks)
    while sum(parts) < workers:
        i = max(range(len(tasks)), key=lambda j: size[j] / parts[j], default=None)
        if i is None or parts[i] == size[i]:
            break
        parts[i] += 1
    out: list = []
    out_owners: list[int] = []
    for task, owner, n, p in zip(tasks, owners, size, parts):
        if p == 1:
            out.append(task)
        else:
            cuts = np.linspace(0, n, p + 1).astype(int)
            out += [_BlockTask(task.block[a:b], task.cell, task.first + int(a))
                    for a, b in zip(cuts[:-1], cuts[1:])]
        out_owners += [owner] * p
    return out, out_owners


@dataclass(frozen=True)
class GridResult:
    """Everything a sweep produced: per-spec results (grid order) and
    the exact cross-spec aggregate."""

    results: tuple[ExperimentResult, ...]
    seconds: float                      # wall clock of the whole sweep
    workers: int

    @property
    def aggregate(self) -> ShardStats:
        """Exact cross-spec reduction (mergeable form) over the grid's
        *closed-loop* results — stream points carry
        :class:`~repro.simulator.metrics.StreamStats`, whose open-loop
        rates do not reduce across different offered loads, so they are
        reported per point in :meth:`rows` instead."""
        return ShardStats.merge(r.stats for r in self.results if r.closed)

    @property
    def aggregate_stats(self) -> RunStats:
        """The :class:`RunStats` a single process running the whole grid
        sequentially would have produced — bit-identical by the
        :class:`ShardStats` contract."""
        return self.aggregate.to_run_stats()

    def rows(self) -> list[dict]:
        """JSON-friendly per-spec rows (reporting/CI artifacts), one
        :meth:`ExperimentResult.row` per cell."""
        return [r.row() for r in self.results]

    def to_dict(self) -> dict:
        """The run document: ``workers``, ``seconds`` and :meth:`rows`;
        with any closed-loop cell, the exact ``aggregate`` (the
        :class:`RunStats` fields) and its mergeable ``shard_stats``
        (:meth:`ShardStats.to_dict`); with any stream cell, ``streams``,
        each stream cell's full ``StreamStats`` keyed by its grid index.
        ``repro run --json`` writes it after ``kind`` and the echoed
        spec or grid, and the service's ``/jobs/<id>/result`` after
        ``job`` as well."""
        doc = {
            "workers": self.workers,
            "seconds": round(self.seconds, 4),
            "rows": self.rows(),
        }
        if any(r.closed for r in self.results):
            agg = self.aggregate
            doc["aggregate"] = asdict(agg.to_run_stats())
            doc["shard_stats"] = agg.to_dict()
        streams = {
            str(i): r.stats.to_dict()
            for i, r in enumerate(self.results) if not r.closed
        }
        if streams:
            doc["streams"] = streams
        return doc


def run_grid(
    grid,
    *,
    workers: int | None = None,
    pool: WorkerPool | None = None,
) -> GridResult:
    """Sweep an experiment grid across a worker pool and reduce each
    cell's blocks.

    ``grid`` may be an :class:`~repro.experiments.ExperimentGrid` or
    any sequence of :class:`~repro.experiments.ExperimentSpec` cells;
    anything else raises :class:`~repro.errors.ParameterError` before a
    worker is touched.  Closed-loop and stream cells mix freely — a
    stream grid over rates x sizes x fault models *is* a saturation
    surface executed as one sweep.

    The per-spec results come back in grid order regardless of which
    worker finished first, and the merged closed-loop aggregate is
    bit-identical to running every cell inline (``workers=0``) — the
    reducer is exact.

    ``pool`` borrows a warm :class:`~repro.simulator.pool.WorkerPool`
    for the sweep and never closes it (the caller keeps lifecycle);
    without one, ``workers`` sizes an ephemeral pool that lives for this
    call only.
    """
    specs = _as_specs(grid)
    ephemeral = pool is None
    # constructing a pool starts no process: the first map does
    runner = WorkerPool(workers=workers) if ephemeral else pool
    tasks, owners = _expand_tasks(specs, runner.target_workers)
    t0 = time.perf_counter()
    # an ephemeral pool closes on exit (force-closing on an interrupt);
    # a borrowed one stays open for the caller
    with runner if ephemeral else nullcontext():
        raw = runner.map(_run_task, tasks)
    seconds = time.perf_counter() - t0

    by_owner: dict[int, list[ExperimentResult]] = {}
    for owner, res in zip(owners, raw):
        by_owner.setdefault(owner, []).append(res)
    merged = tuple(
        # a replicated cell's parts carry realized single-replica specs;
        # the merged record reports as the declarative spec the caller
        # wrote, mirroring ExperimentSpec.run
        replace(by_owner[i][0].merged_with(by_owner[i][1:]), spec=specs[i])
        for i in range(len(specs))
    )
    return GridResult(
        results=merged,
        seconds=seconds,
        workers=runner.resolve_workers(len(tasks)),
    )
