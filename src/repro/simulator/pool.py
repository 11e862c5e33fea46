"""Persistent warm worker pool: the one layer of parallelism.

:func:`~repro.simulator.grid.run_grid` sends every kind of
independent work through one :class:`WorkerPool` — spec cells and
blocks of a Monte-Carlo cell's replicas (drained together on one
engine).  The pool keeps its workers *alive across map calls*:

* **long-lived workers** — processes start once (lazily, up to the
  pool's target), then sit on the shared task queue; a second ``map``
  reuses them with zero spawn cost;
* **chunked work stealing** — tasks go onto one queue in chunks, idle
  workers pull the next chunk, so a slow scenario delays the pool by
  one chunk at most;
* **two messages per chunk** — a worker sends ``claim`` before it runs
  a chunk and one ``fin`` carrying every task's outcome after it, never
  a message per task.  Each ``put`` on a ``multiprocessing.Queue``
  wakes the queue's feeder thread, which then competes with the next
  task for the worker's GIL: with a message per task, one worker ran a
  grid of 384 millisecond-scale cells in 2.2 s with about 470 voluntary
  context switches, against 1.1-1.3 s and 6-7 switches with a message
  per chunk, about what the same cells take inline (2-core Xeon VM);
* **results pickled per task** — a worker pickles each result as its
  task finishes, so a result that cannot be pickled is that task's
  failure, named like any other, instead of a ``fin`` the queue's
  feeder thread silently drops;
* **generations** — each ``map`` call is a tagged generation, so
  leftovers of an aborted call (a failed task, a killed worker) are
  recognized and dropped instead of corrupting the next call;
* **liveness** — a worker dying *mid-chunk* (OOM kill, segfault) is
  detected by claim/fin accounting (a claimed chunk whose ``fin`` never
  came) and raised as :class:`~repro.errors.WorkerDiedError`; a worker
  dying *between* chunks is replaced silently and the map completes;
* **explicit lifecycle** — ``close()`` (or the context manager) sends
  one sentinel per worker, joins, and terminates stragglers; workers are
  daemons, so even an abandoned pool cannot outlive the parent.

``run_grid`` either borrows a caller's warm pool (``pool=`` — the path
``repro run``, ``repro serve`` and ``repro report`` take, one pool per
process) or opens an ephemeral one for a single sweep.

Why not ``concurrent.futures.ProcessPoolExecutor``: this pool keeps
chunk granularity, result ordering, the inline ``workers<=1`` reference
path and the failure contract (a :class:`SimulationError` naming the
failed task, dead workers detected by claim/fin accounting) in
explicit lines that the tests pin down.  The trade is that rarer hazards
the stdlib hardens against (a worker dying *while holding* the
task-queue lock) are accepted as out of scope.
"""

from __future__ import annotations

import os
import pickle
import queue as _queue
import traceback
import weakref
from typing import Callable, Sequence

from repro.errors import SimulationError, WorkerDiedError

__all__ = ["WorkerPool"]


def _map_inline(func: Callable, tasks: Sequence) -> list:
    """The ``workers <= 1`` reference path: same code, same failure
    contract, no processes."""
    results = []
    for idx, task in enumerate(tasks):
        try:
            results.append(func(task))
        except Exception as exc:
            raise SimulationError(
                f"shard worker failed on task {idx} ({task!r}): "
                f"{type(exc).__name__}: {exc}"
            ) from exc
    return results


# ---------------------------------------------------------------------------
# the persistent pool
# ---------------------------------------------------------------------------

def _pool_worker(worker_seq: int, task_q, result_q) -> None:
    """Persistent worker loop (child process).

    Protocol: pull ``(gen, chunk_id, func, [(idx, task), ...])`` items
    until the ``None`` sentinel.  Each chunk sends exactly two messages:
    ``("claim", gen, chunk_id, worker_seq)`` *before* it runs, and
    ``("fin", gen, chunk_id, worker_seq, outcomes)`` after, where
    ``outcomes`` lists ``(idx, ok, pickled-result-or-traceback)`` for
    every task in chunk order.  The claim lets the parent tell a worker
    that died mid-chunk (tasks lost → error) from one that died idle
    (replace and continue).  A task exception becomes its ``ok=False``
    entry and the chunk's later tasks still run; KeyboardInterrupt/
    SystemExit propagate so Ctrl-C actually stops the worker.

    Each result is pickled right after its task runs, so a result that
    cannot be pickled fails *its* task with the pickling traceback.
    Left to the queue, the pickling error would surface in the queue's
    feeder thread, which drops the whole ``fin``: no worker dies, and
    the parent would wait for that chunk forever.
    """
    while True:
        try:
            item = task_q.get()
        except (EOFError, OSError):  # parent closed the queue
            return
        if item is None:
            return
        gen, chunk_id, func, items = item
        result_q.put(("claim", gen, chunk_id, worker_seq))
        outcomes = []
        for idx, task in items:
            try:
                outcomes.append(
                    (idx, True, pickle.dumps(func(task), pickle.HIGHEST_PROTOCOL))
                )
            except Exception as exc:
                outcomes.append(
                    (idx, False,
                     f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")
                )
        result_q.put(("fin", gen, chunk_id, worker_seq, outcomes))


def _terminate_procs(procs: list) -> None:
    """GC backstop for an abandoned pool: don't leave orphans around."""
    for p in procs:
        if p.is_alive():  # pragma: no cover - abandoned-pool path
            p.terminate()


class WorkerPool:
    """A persistent chunked work-stealing process pool.

    Create once, call :meth:`map` many times, :meth:`close` when done
    (or use it as a context manager).  Workers spawn lazily up to
    ``workers`` (default ``os.cpu_count()``) and are *reused* across
    calls — :attr:`spawned` counts total process launches, so a grid of
    200 cells over 4 workers reports 4, not 800.

    The ``map`` contract: results in task order, the lowest-index task
    failure re-raised as :class:`SimulationError` naming the task (the
    task the inline path stops at; a worker's message adds the
    traceback), dead workers detected instead of hanging, and
    ``min(workers, len(tasks)) <= 1`` running inline in-process with
    zero spawns.

    Protocol: the parent puts ``(gen, chunk_id, func, [(idx, task),
    ...])`` chunks on the task queue; a worker answers each with a
    ``claim`` message before running it and one ``fin`` message after,
    which carries ``(idx, ok, pickled-result-or-traceback)`` for every
    task of the chunk in order.  ``map`` records a chunk's outcomes
    when its ``fin`` arrives; the module docstring says why results
    travel once per chunk.

    Parameters
    ----------
    workers:
        Worker-process cap.  ``None`` = ``os.cpu_count()``; ``0``/``1``
        = always inline.
    chunk_size:
        Tasks per steal; ``None`` picks ``ceil(n / (workers * 4))`` per
        map call.

    Workers start with ``fork`` where the platform has it (cheap,
    Linux) and ``spawn`` elsewhere.
    """

    def __init__(self, workers: int | None = None, *,
                 chunk_size: int | None = None):
        self.workers = workers
        self.chunk_size = chunk_size
        self.spawned = 0          # total processes ever launched (tests/benches)
        self._procs: list = []    # mutated in place: the finalizer sees updates
        self._ctx = None
        self._task_q = None
        self._result_q = None
        self._gen = 0
        self._closed = False
        self._finalizer = weakref.finalize(self, _terminate_procs, self._procs)

    # -- sizing -------------------------------------------------------------

    @property
    def target_workers(self) -> int:
        """The pool's worker cap with ``None`` resolved to the CPU count."""
        if self.workers is None:
            return os.cpu_count() or 1
        return max(0, int(self.workers))

    def resolve_workers(self, n_tasks: int) -> int:
        """Process count a ``map`` of ``n_tasks`` tasks would use
        (``<= 1`` means inline)."""
        return min(self.target_workers, n_tasks)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def alive_workers(self) -> int:
        """Currently live worker processes (0 after :meth:`close`)."""
        return sum(1 for p in self._procs if p.is_alive())

    # -- plumbing -----------------------------------------------------------

    def _make_context(self):
        import multiprocessing as mp

        try:
            return mp.get_context("fork")
        except ValueError:  # pragma: no cover - platforms without fork
            return mp.get_context("spawn")

    def _ensure_workers(self, n: int) -> None:
        """Prune dead workers and spawn until ``n`` are live."""
        if self._ctx is None:
            self._ctx = self._make_context()
        if self._task_q is None:
            self._task_q = self._ctx.Queue()
            self._result_q = self._ctx.Queue()
        self._procs[:] = [p for p in self._procs if p.is_alive()]
        while len(self._procs) < n:
            seq = self.spawned
            p = self._ctx.Process(
                target=_pool_worker, args=(seq, self._task_q, self._result_q),
                daemon=True,
            )
            p._pool_seq = seq
            p.start()
            self.spawned += 1
            self._procs.append(p)

    def _reset_after_death(self) -> None:
        """Tear the generation down after a worker died mid-map.

        A process killed at an arbitrary instant (SIGTERM/SIGKILL from
        outside) may have been holding a queue's internal feeder lock,
        which poisons that queue for every surviving and future worker
        — a retry on the same queues would stall forever.  So the whole
        generation is expendable: terminate the survivors (they may be
        blocked on the poisoned queue), discard both queues, and let
        the next ``map`` respawn a clean set lazily."""
        procs = list(self._procs)
        self._procs.clear()
        for p in procs:
            if p.is_alive():
                p.terminate()
        for p in procs:
            p.join(timeout=5)
        for q in (self._task_q, self._result_q):
            if q is not None:
                q.close()
                q.cancel_join_thread()
        self._task_q = self._result_q = None

    def _drain_task_queue(self) -> None:
        """Discard undispatched chunks after an aborted generation."""
        try:
            while True:
                self._task_q.get_nowait()
        except _queue.Empty:
            pass

    # -- the work -----------------------------------------------------------

    def map(self, func: Callable, tasks: Sequence) -> list:
        """Run ``func`` over every task on the warm workers, preserving
        input order.  See the class docstring for the exact contract."""
        if self._closed:
            raise SimulationError("WorkerPool is closed")
        tasks = list(tasks)
        if not tasks:
            return []
        workers = self.resolve_workers(len(tasks))
        if workers <= 1:
            return _map_inline(func, tasks)

        chunk = self.chunk_size or max(1, -(-len(tasks) // (workers * 4)))
        indexed = list(enumerate(tasks))
        chunks = [indexed[i: i + chunk] for i in range(0, len(indexed), chunk)]
        self._ensure_workers(min(workers, len(chunks)))
        self._gen += 1
        gen = self._gen
        for cid, c in enumerate(chunks):
            self._task_q.put((gen, cid, func, c))

        results: list = [None] * len(tasks)
        received = [False] * len(tasks)
        failure: tuple[int, str] | None = None
        died = False
        claims: dict[int, int] = {}      # chunk id -> worker seq
        finished: set[int] = set()
        respawn_budget = 2 * max(1, len(self._procs))
        death_seen = False
        quiet_rounds = 0
        pending = len(tasks)
        while pending:
            try:
                msg = self._result_q.get(timeout=0.5)
            except _queue.Empty:
                dead = [p for p in self._procs if not p.is_alive()]
                if not dead:
                    if death_seen and claims.keys() <= finished:
                        # a death earlier this generation, and now
                        # sustained silence with no claimed chunk in
                        # flight: the dying worker consumed a chunk but
                        # crashed before its claim message flushed — the
                        # tasks are gone without a trace, so waiting any
                        # longer would hang forever
                        quiet_rounds += 1
                        if quiet_rounds >= 4:
                            died = True
                            break
                    continue
                dead_ids = {p._pool_seq for p in dead}
                lost_mid_chunk = any(
                    cid not in finished
                    for cid, w in claims.items() if w in dead_ids
                )
                if lost_mid_chunk or respawn_budget <= 0:
                    died = True
                    break
                # died *between* chunks (external kill, OOM while idle):
                # replace and keep going — no task was lost
                death_seen = True
                quiet_rounds = 0
                respawn_budget -= len(dead)
                self._ensure_workers(min(workers, len(chunks)))
                continue
            quiet_rounds = 0
            if msg[1] != gen:
                continue  # leftovers of an aborted earlier generation
            if msg[0] == "claim":
                claims[msg[2]] = msg[3]
                continue
            finished.add(msg[2])
            for idx, ok, payload in msg[4]:
                if ok:
                    results[idx] = pickle.loads(payload)
                elif failure is None or idx < failure[0]:
                    failure = (idx, payload)
                received[idx] = True
            pending -= len(msg[4])
        if died:
            self._reset_after_death()
        if failure is not None:
            idx, message = failure
            raise SimulationError(
                f"shard worker failed on task {idx} ({tasks[idx]!r}): {message}"
            )
        if died:
            lost = [i for i, got in enumerate(received) if not got]
            raise WorkerDiedError(
                f"shard worker process(es) died without reporting "
                f"(killed or crashed hard); {len(lost)} task(s) lost, "
                f"first: {tasks[lost[0]]!r}"
            )
        return results

    # -- lifecycle ----------------------------------------------------------

    def close(self, *, force: bool = False) -> None:
        """Shut the pool down: sentinel every worker, join, terminate
        stragglers, release the queues.  Idempotent.

        ``force=True`` is the interrupt path (Ctrl-C mid-``map``,
        SIGTERM): workers may be busy and will never reach their
        sentinel, so the undispatched backlog is drained and every
        worker is terminated outright with a short join.
        """
        if self._closed:
            return
        self._closed = True
        procs = list(self._procs)
        self._procs.clear()
        if force:
            if self._task_q is not None:
                self._drain_task_queue()
            for p in procs:
                if p.is_alive():
                    p.terminate()
            for p in procs:
                p.join(timeout=5)
        else:
            if self._task_q is not None:
                for p in procs:
                    if p.is_alive():
                        try:
                            self._task_q.put(None)
                        except Exception:  # pragma: no cover - queue torn down
                            break
            for p in procs:
                p.join(timeout=10)
            for p in procs:
                if p.is_alive():  # pragma: no cover - hung worker backstop
                    p.terminate()
                    p.join(timeout=5)
        for q in (self._task_q, self._result_q):
            if q is not None:
                q.close()
                q.cancel_join_thread()
        self._task_q = self._result_q = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        # an interrupt mid-map leaves workers busy: don't wait politely
        # on a sentinel they will never read
        self.close(force=exc_type is not None
                   and issubclass(exc_type, (KeyboardInterrupt, SystemExit)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"{self.alive_workers} live"
        return (f"WorkerPool(workers={self.workers}, spawned={self.spawned}, "
                f"{state})")
