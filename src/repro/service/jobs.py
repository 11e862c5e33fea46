"""Job subsystem for the experiment service: a priority queue with a
per-job state machine, a runner thread that schedules cells on one
persistent :class:`~repro.simulator.pool.WorkerPool`, bounded retries
for cells whose worker dies, and cancellation that frees pool capacity.

State machine
-------------
::

    queued ──> running ──> done
       │          ├──────> failed      (validation, task error, or a
       │          │                     dead worker past the retry cap)
       └──────────┴──────> cancelled   (queued: immediate; running: at
                                        the next cell boundary)

Every transition happens under one queue-wide lock and notifies one
condition variable, so HTTP streaming handlers can block on "cell *i*
finished or the job went terminal" without polling.

Retries and dead jobs
---------------------
A cell runs as ``run_grid([spec], pool=...)``.  When a worker process
dies mid-cell, the pool's claim-accounting/stall-quiescence machinery
(see :mod:`repro.simulator.pool`) surfaces
:class:`~repro.errors.WorkerDiedError`; the runner retries the cell with
exponential backoff from :data:`BACKOFF_BASE` seconds, up to
``max_retries`` times (the pool respawns workers on the next map).  A
job that exhausts its retries is the dead-job case: it fails with an
error naming the cell, and the pool is free for the next job.
Ordinary :class:`~repro.errors.ReproError` failures (an undeliverable
workload, a simulation protocol violation) fail the job immediately —
retrying a deterministic error is noise.

Determinism contract: cells execute one at a time in grid order, and
the per-cell results are merged exactly like
:func:`~repro.simulator.grid.run_grid` over the whole grid
would — :class:`~repro.simulator.grid.ShardStats` reduction is
exact and order-stable — so a job's stats are bit-identical to
``repro run`` on the same JSON.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time

from repro.errors import ReproError, WorkerDiedError

__all__ = ["Job", "JobQueue", "JobRunner", "STATES", "TERMINAL"]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL = frozenset({DONE, FAILED, CANCELLED})

#: Seconds before a dead-worker cell's first retry; each further retry
#: of the same cell waits twice as long.
BACKOFF_BASE = 0.25


class Job:
    """One submitted experiment or grid, tracked through its lifetime.

    All mutation happens in :class:`JobQueue`/:class:`JobRunner` under
    the queue lock; readers take the same lock via the queue's snapshot
    helpers.
    """

    def __init__(self, job_id: str, kind: str, target, specs, *,
                 priority: int = 0):
        self.id = job_id
        self.kind = kind              # "experiment" | "grid"
        self.target = target          # the submitted spec/grid object
        self.specs = list(specs)      # expanded cells, grid order
        self.priority = int(priority)
        self.state = QUEUED
        self.error: str | None = None
        self.retries = 0              # worker-death retries, cumulative
        self.cancel_requested = False
        self.cell_results: list = []  # ExperimentResult per finished cell
        self.cell_seconds: list = []  # wall clock per finished cell
        self.cell_workers: list = []  # workers each finished cell's map used
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None

    @property
    def cells_total(self) -> int:
        return len(self.specs)

    @property
    def cells_done(self) -> int:
        return len(self.cell_results)

    def summary(self) -> dict:
        """JSON-friendly status row (``/jobs`` and ``/jobs/<id>``)."""
        return {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "priority": self.priority,
            "cells_total": self.cells_total,
            "cells_done": self.cells_done,
            "retries": self.retries,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


class JobQueue:
    """Priority queue of :class:`Job` records plus the service's job
    registry — higher ``priority`` first, FIFO within a priority.

    The queue never forgets a job: terminal jobs stay in the registry
    (``/jobs/<id>`` keeps answering after completion).  ``submit`` /
    ``cancel`` / ``next_job`` are thread-safe; every state change
    notifies :attr:`cond` so streaming readers can wait for progress.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.cond = threading.Condition(self.lock)
        self._jobs: dict[str, Job] = {}
        self._heap: list = []          # (-priority, seq, job_id)
        self._seq = itertools.count()

    def submit(self, kind: str, target, specs, *, priority: int = 0) -> Job:
        with self.cond:
            seq = next(self._seq)
            job = Job(f"job-{seq:06d}", kind, target, specs,
                      priority=priority)
            self._jobs[job.id] = job
            heapq.heappush(self._heap, (-job.priority, seq, job.id))
            self.cond.notify_all()
            return job

    def get(self, job_id: str) -> Job | None:
        with self.lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[dict]:
        with self.lock:
            return [j.summary() for j in self._jobs.values()]

    @property
    def depth(self) -> int:
        """Jobs still waiting to run (queued, not yet picked up)."""
        with self.lock:
            return sum(1 for j in self._jobs.values() if j.state == QUEUED)

    def cancel(self, job_id: str) -> Job | None:
        """Request cancellation.  A queued job cancels immediately; a
        running one stops at its next cell boundary (in-flight pool
        tasks finish, then the capacity is free).  Terminal jobs are
        left alone.  Returns the job, or ``None`` if unknown."""
        with self.cond:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.state == QUEUED:
                job.state = CANCELLED
                job.finished_at = time.time()
            elif job.state == RUNNING:
                job.cancel_requested = True
            self.cond.notify_all()
            return job

    def next_job(self, timeout: float = 0.5) -> Job | None:
        """Pop the highest-priority queued job and mark it running;
        ``None`` on timeout.  Jobs cancelled while queued are skipped
        (their heap entry is stale by design)."""
        with self.cond:
            while True:
                while self._heap:
                    _, _, job_id = heapq.heappop(self._heap)
                    job = self._jobs[job_id]
                    if job.state == QUEUED:
                        job.state = RUNNING
                        job.started_at = time.time()
                        self.cond.notify_all()
                        return job
                if not self.cond.wait(timeout):
                    return None

    # -- runner-side transitions (queue owns the lock/condition) ------------

    def add_cell_result(self, job: Job, cell, seconds: float) -> None:
        """Record a finished cell from its one-cell ``GridResult``."""
        with self.cond:
            job.cell_results.append(cell.results[0])
            job.cell_seconds.append(seconds)
            job.cell_workers.append(cell.workers)
            self.cond.notify_all()

    def finish(self, job: Job, state: str, error: str | None = None) -> None:
        with self.cond:
            job.state = state
            job.error = error
            job.finished_at = time.time()
            self.cond.notify_all()

    def add_retry(self, job: Job) -> None:
        with self.cond:
            job.retries += 1
            self.cond.notify_all()

    def wait_for_progress(self, job: Job, have_cells: int,
                          timeout: float = 1.0) -> bool:
        """Block until ``job`` has more than ``have_cells`` finished
        cells or is terminal; ``False`` on timeout (caller re-checks)."""
        with self.cond:
            return self.cond.wait_for(
                lambda: job.cells_done > have_cells or job.state in TERMINAL,
                timeout,
            )


class JobRunner(threading.Thread):
    """The scheduler loop: one thread, one warm pool, cells in order.

    Cells of one job run sequentially (a replicated cell may still fan
    out over every pool worker via its replica blocks, which
    ``run_grid`` cuts to at least one per worker), so the pool's capacity goes
    wholly to the highest-priority job and a cancellation frees it at
    the next cell boundary.
    """

    def __init__(self, queue: JobQueue, pool, *, max_retries: int = 2):
        super().__init__(name="repro-job-runner", daemon=True)
        self.queue = queue
        self.pool = pool
        self.max_retries = int(max_retries)
        # NB: not `_stop` — threading.Thread.join() calls self._stop()
        self._stopping = threading.Event()

    def stop(self) -> None:
        self._stopping.set()

    def run(self) -> None:  # thread body
        while not self._stopping.is_set():
            job = self.queue.next_job(timeout=0.2)
            if job is not None:
                self._run_job(job)

    def _run_job(self, job: Job) -> None:
        from repro.simulator.grid import run_grid

        for i, spec in enumerate(job.specs):
            if job.cancel_requested or self._stopping.is_set():
                self.queue.finish(job, CANCELLED)
                return
            attempt = 0
            while True:
                try:
                    t0 = time.perf_counter()
                    cell = run_grid([spec], pool=self.pool)
                    break
                except WorkerDiedError as exc:
                    attempt += 1
                    self.queue.add_retry(job)
                    if attempt > self.max_retries:
                        self.queue.finish(
                            job, FAILED,
                            f"cell {i} ({spec.label}): worker died "
                            f"{attempt} time(s), retries exhausted: {exc}",
                        )
                        return
                    # the pool respawns workers on the next map; back off
                    # so a crash loop (bad node, OOM storm) does not spin
                    time.sleep(BACKOFF_BASE * 2 ** (attempt - 1))
                except ReproError as exc:
                    self.queue.finish(
                        job, FAILED,
                        f"cell {i} ({spec.label}): {type(exc).__name__}: {exc}",
                    )
                    return
            self.queue.add_cell_result(job, cell, time.perf_counter() - t0)
        self.queue.finish(job, CANCELLED if job.cancel_requested else DONE)
