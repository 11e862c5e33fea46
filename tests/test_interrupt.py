"""Interrupt-path hygiene: killing ``repro run`` / ``repro serve`` mid
work must leave nothing behind — no orphan worker processes and no
leaked ``/dev/shm`` segment.

The CLI installs a SIGTERM handler that raises ``KeyboardInterrupt``;
the pool's context manager sees the interrupt unwind and force-closes:
busy workers are terminated (they would never reach their sentinel).
Each CLI child leads a new process group, so an empty group after exit
proves no worker survived, and a before/after listing of ``/dev/shm``
proves no ``repro`` segment was left behind.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.simulator import WorkerPool

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

linux_only = pytest.mark.skipif(
    not os.path.isdir("/proc"), reason="needs /proc for process accounting"
)

# big enough that the sweep is still mid-map when the signal lands:
# 24 seeds x 20000 packets on 128 nodes across 2 workers (several
# seconds of map time after the workers spawn)
SLOW_GRID = {
    "grid": {
        "mhk": [[2, 7, 1]],
        "loop": "closed",
        "patterns": ["uniform"],
        "loads": [20000],
        "seeds": list(range(24)),
    }
}


def _shm_segments() -> set[str]:
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("repro")}
    except FileNotFoundError:
        return set()


def _group_size(pgid: int) -> int:
    """Processes currently in ``pgid``'s process group (via /proc)."""
    count = 0
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            # after the comm field: state, ppid, pgrp, ...
            if int(fields[2]) == pgid:
                count += 1
        except (OSError, ValueError, IndexError):
            continue
    return count


def _spawn(args):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", *args],
        env=env, cwd=REPO, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
        start_new_session=True,  # own process group: orphan detection
    )


def _wait_for_workers(p, deadline_s: float = 60.0) -> None:
    """Block until the child has spawned BOTH worker processes, then a
    beat longer — workers spawn lazily at the first map dispatch, so
    this is 'map in flight', and the settle delay keeps the signal out
    of the fork window (a fork can inherit the pending signal, making
    a *worker* absorb the interrupt instead of the parent)."""
    deadline = time.time() + deadline_s
    while time.time() < deadline:
        if _group_size(p.pid) >= 3:  # parent + 2 workers
            time.sleep(0.25)
            return
        if p.poll() is not None:
            pytest.fail(f"child exited before spawning workers:\n"
                        f"{p.stdout.read()}")
        time.sleep(0.02)
    pytest.fail("workers never spawned")


def _assert_group_empty(pgid: int, timeout: float = 15.0) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.2)
    os.killpg(pgid, signal.SIGKILL)  # clean up before failing loudly
    raise AssertionError("worker processes survived the interrupt")


def _interrupt_and_check(p, before: set) -> None:
    try:
        _wait_for_workers(p)
        p.send_signal(signal.SIGTERM)
        rc = p.wait(timeout=30)
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
    assert rc == 130, p.stdout.read()
    _assert_group_empty(p.pid)
    leaked = _shm_segments() - before
    assert not leaked, f"leaked shm segments: {leaked}"


@linux_only
class TestCliInterrupt:
    def test_sigterm_mid_run_map_leaves_no_orphans_or_segments(self, tmp_path):
        spec = tmp_path / "slow.json"
        spec.write_text(json.dumps(SLOW_GRID))
        before = _shm_segments()
        p = _spawn(["run", str(spec), "--workers", "2"])
        _interrupt_and_check(p, before)

    def test_sigterm_mid_serve_job_leaves_no_orphans_or_segments(self):
        before = _shm_segments()
        p = _spawn(["serve", "--port", "0", "--workers", "2"])
        try:
            banner = p.stdout.readline()
            port = int(re.search(r":(\d+)", banner).group(1))
            # a service cell runs alone, so it must fan out to occupy
            # the pool's worker processes (single-task maps run inline):
            # eight multi-batch replicas are eight block tasks
            replicated = {"m": 2, "h": 7, "k": 1, "packets": 2500,
                          "batches": 2, "replicas": 8}
            body = json.dumps(replicated).encode()
            req = urllib.request.Request(
                f"http://127.0.0.1:{port}/experiments", data=body)
            with urllib.request.urlopen(req, timeout=10) as resp:
                assert resp.status == 202
        except BaseException:
            os.killpg(p.pid, signal.SIGKILL)
            raise
        _interrupt_and_check(p, before)


class TestForceClose:
    def test_interrupt_unwinding_pool_exit_terminates_workers(self):
        """A KeyboardInterrupt unwinding through ``with pool`` takes the
        force-close path: the pool ends closed with no worker alive."""
        pool = WorkerPool(workers=2)
        with pytest.raises(KeyboardInterrupt):
            with pool:
                pool.map(_noop, [1, 2, 3])
                raise KeyboardInterrupt
        assert pool.closed
        assert pool.alive_workers == 0


def _noop(x):
    return x
