"""Tests for the persistent worker pool.

Three load-bearing contracts:

* **warm reuse** — one :class:`WorkerPool` serves many ``map`` calls
  (whole grids, whole saturation ladders) without respawning; the
  ``spawned`` counter proves it.
* **no leaks** — ``close()`` leaves no orphan worker (including after
  task failures and hard worker deaths).
* **one contract inline and pooled** — results in task order and
  failures naming their task, whether ``map`` runs in-process or across
  workers; ``run_grid`` borrows a warm pool or opens its own.
* **two messages per chunk** — a worker answers a chunk with one
  ``claim`` and one ``fin`` that carries every task's outcome.
"""

from __future__ import annotations

import os
import pickle
import queue
import threading

import pytest

from repro.errors import SimulationError
from repro.simulator import WorkerPool, run_grid
from repro.simulator.pool import _pool_worker
from repro.simulator.streaming import find_saturation


def _square(x):
    return x * x


def _explode(x):
    raise ValueError("boom")


def _lambda_for_three(x):
    return (lambda: x) if x == 3 else x


def _refuse_two(x):
    if x == 2:
        raise ValueError("two is refused")
    return 10 * x


def _explode_odd(x):
    if x % 2:
        raise ValueError(f"odd {x}")
    return x


def _die_hard(x):
    os._exit(13)  # no exception, no result message — a hard crash


def _grid(cells: int = 4):
    from repro.experiments import ExperimentGrid

    return ExperimentGrid(
        mhk=[(2, 4, 1)], loop="closed", patterns=["uniform"],
        loads=[60], seeds=list(range(cells)),
    )


# ---------------------------------------------------------------------------
# the worker protocol
# ---------------------------------------------------------------------------

class TestWorkerProtocol:
    def test_one_claim_and_one_fin_per_chunk(self):
        """Driven in-process: a chunk of three tasks, the middle one
        raising, then the sentinel.  The worker sends exactly one claim
        and one fin, the fin lists every task in order, the failure
        carries its type, message and traceback, and the task after it
        still ran."""
        task_q, result_q = queue.Queue(), queue.Queue()
        task_q.put((7, 3, _refuse_two, [(4, 1), (5, 2), (6, 3)]))
        task_q.put(None)
        _pool_worker(0, task_q, result_q)
        msgs = []
        while not result_q.empty():
            msgs.append(result_q.get_nowait())
        assert [m[:4] for m in msgs] == [("claim", 7, 3, 0), ("fin", 7, 3, 0)]
        outcomes = msgs[1][4]
        assert [o[0] for o in outcomes] == [4, 5, 6]
        # results travel pickled, each as its task finished
        assert outcomes[0][:2] == (4, True)
        assert pickle.loads(outcomes[0][2]) == 10
        assert outcomes[2][:2] == (6, True)
        assert pickle.loads(outcomes[2][2]) == 30
        idx, ok, payload = outcomes[1]
        assert (idx, ok) == (5, False)
        assert payload.startswith("ValueError: two is refused\n")
        assert "Traceback (most recent call last)" in payload
        assert "_refuse_two" in payload

    def test_unpicklable_result_fails_its_task(self):
        """A result the queue cannot pickle is a named task failure
        within a bounded wait, not a map that waits forever on a ``fin``
        the queue's feeder thread dropped."""
        pool = WorkerPool(workers=2, chunk_size=2)
        outcome = {}

        def run_map():
            try:
                outcome["result"] = pool.map(_lambda_for_three, list(range(6)))
            except Exception as exc:  # noqa: BLE001 - checked below
                outcome["error"] = exc

        runner = threading.Thread(target=run_map, daemon=True)
        runner.start()
        runner.join(timeout=60)
        hung = runner.is_alive()
        pool.close(force=hung)
        assert not hung, "map still waiting after 60 s"
        error = outcome.get("error")
        assert isinstance(error, SimulationError), outcome
        message = str(error)
        assert "failed on task 3 " in message
        assert "pickle" in message.lower()

    def test_pooled_failure_names_the_lowest_task(self):
        """Outcomes arrive per chunk in any order across workers, yet
        the error names the first failing task, as inline does."""
        with WorkerPool(workers=0) as inline:
            with pytest.raises(SimulationError, match=r"failed on task 1 "):
                inline.map(_explode_odd, list(range(8)))
        with WorkerPool(workers=2, chunk_size=1) as pool:
            with pytest.raises(SimulationError,
                               match=r"failed on task 1 .*ValueError: odd 1"):
                pool.map(_explode_odd, list(range(8)))


# ---------------------------------------------------------------------------
# the persistent pool
# ---------------------------------------------------------------------------

class TestWorkerPool:
    def test_inline_when_single_worker(self):
        with WorkerPool(workers=0) as pool:
            assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
            assert pool.spawned == 0

    def test_inline_errors_use_the_same_contract(self):
        """workers<=1 wraps failures exactly like the pool does."""
        with WorkerPool(workers=0) as pool:
            with pytest.raises(SimulationError,
                               match=r"failed on task 0 .*ValueError: boom"):
                pool.map(_explode, [1])

    def test_pool_map_matches_inline(self):
        tasks = list(range(23))
        with WorkerPool(workers=0) as inline:
            expect = inline.map(_square, tasks)
        with WorkerPool(workers=2, chunk_size=3) as pool:
            assert pool.map(_square, tasks) == expect
            assert pool.spawned == 2

    def test_empty_tasks(self):
        with WorkerPool(workers=2) as pool:
            assert pool.map(_square, []) == []
            assert pool.spawned == 0

    def test_closed_pool_rejects_map(self):
        pool = WorkerPool(workers=2)
        pool.close()
        with pytest.raises(SimulationError, match="closed"):
            pool.map(_square, [1, 2])

    def test_warm_reuse_across_maps(self):
        """The tentpole contract: repeated maps reuse the same workers."""
        with WorkerPool(workers=2) as pool:
            for lo in range(0, 40, 10):
                expect = [x * x for x in range(lo, lo + 10)]
                assert pool.map(_square, list(range(lo, lo + 10))) == expect
            assert pool.spawned == 2

    def test_close_leaves_no_orphans(self):
        pool = WorkerPool(workers=2)
        pool.map(_square, list(range(8)))
        procs = list(pool._procs)
        assert pool.alive_workers == 2
        pool.close()
        assert pool.alive_workers == 0
        assert all(not p.is_alive() for p in procs)

    def test_task_failure_keeps_pool_warm(self):
        """A failing task raises the historical error, and the *same*
        workers serve the next map — no respawn, no orphan."""
        with WorkerPool(workers=2, chunk_size=1) as pool:
            with pytest.raises(SimulationError,
                               match=r"failed on task \d+ .*ValueError: boom"):
                pool.map(_explode, [1, 2, 3, 4])
            spawned = pool.spawned
            assert pool.map(_square, [5, 6]) == [25, 36]
            assert pool.spawned == spawned
            assert pool.alive_workers <= 2
        assert pool.alive_workers == 0

    def test_worker_death_detected_and_pool_recovers(self):
        """A worker hard-crashing raises the historical died-without-
        reporting error; the next map respawns and succeeds; close()
        leaves nothing behind."""
        pool = WorkerPool(workers=2, chunk_size=1)
        try:
            with pytest.raises(SimulationError, match="died without reporting"):
                pool.map(_die_hard, [1, 2, 3, 4])
            assert pool.map(_square, [3, 4]) == [9, 16]
        finally:
            procs = list(pool._procs)
            pool.close()
        assert pool.alive_workers == 0
        assert all(not p.is_alive() for p in procs)

    def test_one_pool_serves_grids_and_ladders(self):
        """Acceptance: a whole grid, a second grid, and a saturation
        ladder all ride the same two workers."""
        from repro.experiments import ExperimentSpec

        with WorkerPool(workers=2) as pool:
            a = run_grid(_grid(4), pool=pool)
            b = run_grid(_grid(4), pool=pool)
            assert [r.stats for r in a.results] == [r.stats for r in b.results]
            base = ExperimentSpec(
                m=2, h=4, loop="stream", rate=0.05, cycles=200, warmup=20,
            )
            res = find_saturation(base, [0.02, 0.05], bisect=0, pool=pool)
            assert len(res.points) == 2
            assert pool.spawned <= 2

    def test_driver_borrows_pool_without_closing_it(self):
        """run_grid(pool=...) dispatches on the caller's workers and
        leaves the pool open for the next sweep."""
        with WorkerPool(workers=2) as pool:
            res = run_grid(_grid(4), pool=pool)
            assert res.workers == pool.resolve_workers(4) == 2
            assert not pool.closed
            assert pool.map(_square, [2, 3]) == [4, 9]
            assert pool.spawned == 2

    def test_ephemeral_driver_matches_inline(self):
        """Without a pool, run_grid(workers=2) runs on an ephemeral pool
        of its own and matches the inline run bit for bit."""
        inline = run_grid(_grid(4), workers=0)
        pooled = run_grid(_grid(4), workers=2)
        assert pooled.workers == 2 and inline.workers == 0
        assert [r.stats for r in pooled.results] == [
            r.stats for r in inline.results
        ]
        assert pooled.aggregate == inline.aggregate
