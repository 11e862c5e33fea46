"""Tests for the experiment service: HTTP submission on one warm pool.

The load-bearing contracts:

* **validation at the door** — an invalid spec is rejected with the
  registry's ``ParameterError`` message and no worker process is ever
  touched.
* **bit-identity** — a job submitted over HTTP produces rows and an
  aggregate bit-identical to ``repro run`` / :func:`run_grid` on the
  same JSON (wall-clock fields excluded).
* **retries** — a cell whose worker processes die completes on a
  respawned pool with ``retries > 0`` and *identical* stats.
* **cancellation** — queued jobs cancel immediately and never run;
  the queue skips their stale heap entries.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments import parse_run_payload
from repro.service import TERMINAL, ExperimentService, JobQueue
from repro.service.server import MAX_BODY_BYTES
from repro.simulator.grid import ShardStats, _BlockTask, run_grid

GRID = {
    "grid": {
        "mhk": [[2, 4, 1]],
        "loop": "closed",
        "patterns": ["uniform"],
        "loads": [40, 60],
        "seeds": [0, 1],
    }
}

STREAM = {
    "m": 2, "h": 4, "k": 1, "loop": "stream", "rate": 0.05,
    "cycles": 200, "warmup": 40, "source": "poisson",
}

STREAM_GRID = {
    "grid": {
        "mhk": [[2, 4, 1]],
        "loop": "stream",
        "rates": [0.05, 0.5],
        "fault_models": [{"name": "fixed", "faults": []},
                         {"name": "fixed", "faults": [[50, 3]]}],
        "cycles": 200,
        "warmup": 40,
        "window": 50,
    }
}


def _strip(row: dict) -> dict:
    """Drop wall-clock columns: the only legal difference between an
    HTTP run and a CLI run of the same JSON."""
    return {k: v for k, v in row.items() if k != "seconds"}


def _document(doc: dict) -> dict:
    """A run document without what may differ between the service and
    ``repro run --json``: the ``job`` summary, ``workers`` and every
    wall-clock ``seconds``."""
    out = {k: v for k, v in doc.items() if k not in ("job", "workers", "seconds")}
    out["rows"] = [_strip(r) for r in doc["rows"]]
    return out


def _request(port: int, path: str, payload=None, timeout: float = 30.0):
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(f"http://127.0.0.1:{port}{path}", data=data)
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def _request_error(port: int, path: str, body: bytes):
    req = urllib.request.Request(f"http://127.0.0.1:{port}{path}", data=body)
    with pytest.raises(urllib.error.HTTPError) as exc_info:
        urllib.request.urlopen(req, timeout=10)
    err = exc_info.value
    return err.code, json.loads(err.read())["error"]


def _stream_lines(port: int, job_id: str, timeout: float = 120.0):
    url = f"http://127.0.0.1:{port}/jobs/{job_id}/stream"
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        assert resp.headers["Content-Type"] == "application/x-ndjson"
        return [json.loads(line) for line in resp.read().decode().splitlines()]


@pytest.fixture(scope="module")
def service():
    with ExperimentService(workers=2) as svc:
        yield svc


class TestValidation:
    def test_bad_spec_rejected_with_registry_message(self, service):
        code, error = _request_error(
            service.port, "/experiments",
            json.dumps({"m": 2, "h": 4, "k": 1, "packets": 10,
                        "pattern": "carrier-pigeon"}).encode(),
        )
        assert code == 400
        assert "carrier-pigeon" in error and "uniform" in error
        # the door did its job before any worker was touched
        assert service.pool.spawned == 0

    @pytest.mark.parametrize("body,key,replacement", [
        ({"m": 2, "h": 4, "engine": "batch"}, "engine", "batch engine"),
        ({"m": 2, "h": 4, "faults": [[0, 3]]}, "faults", "fault_model="),
        ({"m": 2, "h": 4, "shards": 1}, "shards", "replica blocks"),
        ({"grid": {"mhk": [[2, 4, 1]], "fault_sets": [[]]}}, "fault_sets",
         "fault_models="),
    ], ids=["engine", "faults", "shards", "fault_sets"])
    def test_removed_key_rejected(self, service, body, key, replacement):
        """A removed key is a 400 naming the key and its replacement,
        before any worker is touched."""
        code, error = _request_error(
            service.port, "/experiments", json.dumps(body).encode()
        )
        assert code == 400
        assert f"key {key!r} was removed" in error and replacement in error
        assert service.pool.spawned == 0

    @pytest.mark.parametrize("body", [
        {"m": "two", "h": 4},
        {"grid": {"mhk": ["nope"]}},
        {"grid": {"mhk": [[2, 4, 1]], "loads": ["many"]}},
    ], ids=["non-int-m", "short-mhk", "non-int-load"])
    def test_malformed_values_rejected(self, service, body):
        """A value field coercion cannot take is a 400 naming the
        route, not a dropped connection."""
        code, error = _request_error(
            service.port, "/experiments", json.dumps(body).encode()
        )
        assert code == 400
        assert error.startswith("POST /experiments: malformed field value: ")
        assert service.pool.spawned == 0

    def test_wrapper_with_siblings_rejected(self, service):
        code, error = _request_error(
            service.port, "/experiments",
            json.dumps({"experiment": {"m": 2, "h": 4, "k": 1,
                                       "packets": 10}, "m": 3}).encode(),
        )
        assert code == 400
        assert "experiment" in error

    def test_non_json_body_rejected(self, service):
        code, error = _request_error(service.port, "/experiments", b"not json")
        assert code == 400
        assert "not JSON" in error

    @pytest.mark.parametrize("length, code, words", [
        (MAX_BODY_BYTES + 1, 413, f"limit of {MAX_BODY_BYTES} bytes"),
        (-1, 400, "Content-Length must be >= 0"),
    ], ids=["oversized", "negative"])
    def test_declared_length_refused_before_reading(self, service, length,
                                                    code, words):
        """A declared length over the limit (or below zero) is refused
        without reading the body, so a tiny body sent with a huge or
        negative length gets its answer instead of a hung handler, and
        the service then runs a normal job."""
        conn = http.client.HTTPConnection("127.0.0.1", service.port, timeout=10)
        try:
            conn.putrequest("POST", "/experiments")
            conn.putheader("Content-Length", str(length))
            conn.endheaders(b"{}")
            resp = conn.getresponse()
            assert resp.status == code
            assert words in json.loads(resp.read())["error"]
        finally:
            conn.close()
        status, body = _request(service.port, "/experiments", STREAM)
        assert status == 202
        lines = _stream_lines(service.port, body["job"]["id"])
        assert lines[-1]["job"]["state"] == "done"

    def test_unknown_job_404(self, service):
        code, error = _request_error(
            service.port, "/jobs/job-999999/cancel", b""
        )
        assert code == 404
        assert "job-999999" in error


class TestLifecycle:
    def test_grid_bit_identical_to_run_grid(self, service):
        """Acceptance: an HTTP-submitted grid produces rows and an
        aggregate bit-identical to running the same JSON directly."""
        status, body = _request(service.port, "/experiments?priority=1", GRID)
        assert status == 202
        job = body["job"]
        assert job["kind"] == "grid" and job["cells_total"] == 4
        assert job["priority"] == 1

        lines = _stream_lines(service.port, job["id"])
        assert lines[-1]["job"]["state"] == "done"
        assert [ln["cell"] for ln in lines[:-1]] == [0, 1, 2, 3]

        status, result = _request(service.port, f"/jobs/{job['id']}/result")
        assert status == 200
        assert result["kind"] == "grid"

        target, _ = parse_run_payload(GRID)
        direct = run_grid(target, workers=0)
        assert [_strip(r) for r in result["rows"]] == \
               [_strip(r) for r in direct.rows()]
        assert [_strip(ln["row"]) for ln in lines[:-1]] == \
               [_strip(r) for r in direct.rows()]
        # the merged sufficient statistics round-trip exactly
        assert ShardStats.from_dict(result["shard_stats"]) == direct.aggregate
        agg = direct.aggregate_stats
        assert result["aggregate"]["delivered"] == agg.delivered
        assert result["aggregate"]["mean_latency"] == agg.mean_latency
        assert result["grid"] == target.to_dict()

    def test_stream_experiment_carries_window_series(self, service):
        status, body = _request(service.port, "/experiments", STREAM)
        job = body["job"]
        assert job["kind"] == "experiment" and job["cells_total"] == 1
        lines = _stream_lines(service.port, job["id"])
        assert lines[-1]["job"]["state"] == "done"
        assert "stream" in lines[0]
        target, _ = parse_run_payload(STREAM)
        direct = run_grid([target], workers=0)
        assert _strip(lines[0]["row"]) == _strip(direct.rows()[0])
        assert lines[0]["stream"] == direct.results[0].stats.to_dict()
        status, result = _request(service.port, f"/jobs/{job['id']}/result")
        assert "aggregate" not in result  # open-loop: no cross-rate merge
        assert result["streams"]["0"] == direct.results[0].stats.to_dict()

    def test_jobs_index_and_healthz(self, service):
        status, body = _request(service.port, "/jobs")
        assert status == 200 and len(body["jobs"]) >= 1
        status, health = _request(service.port, "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["pool"]["target_workers"] == 2
        assert health["pool"]["closed"] is False
        assert "queue_depth" in health and "jobs_by_state" in health


class TestOneDocument:
    @pytest.mark.parametrize("payload", [GRID, STREAM_GRID],
                             ids=["closed", "stream"])
    def test_result_is_the_cli_json_document(self, service, tmp_path,
                                             capsys, payload):
        """``/jobs/<id>/result`` is the ``repro run --json`` document of
        the same JSON plus ``job``: every other key, ``shard_stats`` and
        ``streams`` included, holds the same value once ``workers`` and
        the wall-clock ``seconds`` are left out."""
        from repro.cli import main

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(payload))
        out = tmp_path / "run.json"
        assert main(["run", str(spec), "--workers", "0",
                     "--json", str(out)]) == 0
        capsys.readouterr()
        cli = json.loads(out.read_text())

        status, body = _request(service.port, "/experiments", payload)
        job_id = body["job"]["id"]
        assert _stream_lines(service.port, job_id)[-1]["job"]["state"] == "done"
        status, http = _request(service.port, f"/jobs/{job_id}/result")
        assert status == 200

        assert set(http) - set(cli) == {"job"}
        closed = payload["grid"]["loop"] == "closed"
        assert ("shard_stats" in cli) == closed and ("streams" in cli) != closed
        assert _document(http) == _document(cli)

    @pytest.mark.parametrize("payload,workers", [
        ({"m": 2, "h": 4, "k": 1, "packets": 200}, 1),
        ({"m": 2, "h": 5, "k": 1, "controller": "detour", "packets": 256,
          "fault_model": {"name": "iid", "p": 0.9}, "replicas": 16}, 2),
    ], ids=["plain", "replicated"])
    def test_one_cell_reports_the_workers_its_map_used(self, service, tmp_path,
                                                       capsys, payload, workers):
        """A one-cell job's ``workers`` is what its map used, as ``repro
        run --workers 2`` reports on the same file: a plain cell is one
        inline task, while a replicated cell's blocks are cut across
        both workers."""
        from repro.cli import main

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(payload))
        out = tmp_path / "run.json"
        assert main(["run", str(spec), "--workers", "2", "--json", str(out)]) == 0
        capsys.readouterr()
        status, body = _request(service.port, "/experiments", payload)
        job_id = body["job"]["id"]
        assert _stream_lines(service.port, job_id)[-1]["job"]["state"] == "done"
        status, http = _request(service.port, f"/jobs/{job_id}/result")
        assert status == 200
        assert http["workers"] == json.loads(out.read_text())["workers"] == workers


class TestRetry:
    def test_worker_killed_mid_job_completes_via_retry(self, tmp_path,
                                                       monkeypatch):
        """Acceptance: kill the pool's workers while a job's cell is in
        flight; the job still completes — with a retry count > 0 — and
        its stats are identical to an undisturbed run."""
        # eight four-batch replicas: one block task each, over both workers
        spec = {"m": 2, "h": 6, "k": 1, "packets": 4000, "batches": 4,
                "replicas": 8}
        # the first task any pool worker starts marks itself in flight
        # and hangs until killed, so the kill provably lands mid-chunk
        # however fast the job is; every later task (the retried attempt
        # included) runs normally.  Workers fork from this process, so
        # they inherit the patch.
        marker = tmp_path / "in-flight"
        parent = os.getpid()
        real_run = _BlockTask.run

        def run_or_hang(task):
            if os.getpid() != parent:
                try:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    time.sleep(600)
            return real_run(task)

        monkeypatch.setattr(_BlockTask, "run", run_or_hang)
        with ExperimentService(workers=2, max_retries=3) as svc:
            status, body = _request(svc.port, "/experiments", spec)
            job_id = body["job"]["id"]
            job = svc.queue.get(job_id)
            deadline = time.time() + 60
            while not marker.exists():
                assert time.time() < deadline and job.state not in TERMINAL, \
                    f"no task ever started in a pool worker (job {job.state})"
                time.sleep(0.01)
            # the worker announced its chunk before starting the task;
            # give that claim time to reach the runner, then kill
            time.sleep(0.2)
            for p in svc.pool._procs:
                if p.is_alive():
                    p.terminate()

            lines = _stream_lines(svc.port, job_id, timeout=120)
            summary = lines[-1]["job"]
            assert summary["state"] == "done", summary
            assert summary["retries"] > 0
            assert job.retries > 0
            assert svc.pool.spawned > 2  # the respawn actually happened

            status, result = _request(svc.port, f"/jobs/{job_id}/result")

        target, _ = parse_run_payload(spec)
        direct = run_grid([target], workers=0)
        assert ShardStats.from_dict(result["shard_stats"]) == direct.aggregate
        assert [_strip(r) for r in result["rows"]] == \
               [_strip(r) for r in direct.rows()]


class TestCancellation:
    def test_queued_job_cancelled_over_http_never_runs(self):
        svc = ExperimentService(workers=0)
        svc._http_thread.start()  # HTTP only: no runner, jobs stay queued
        try:
            status, body = _request(svc.port, "/experiments",
                                    {"m": 2, "h": 4, "k": 1, "packets": 20})
            job_id = body["job"]["id"]
            status, body = _request(svc.port, f"/jobs/{job_id}/cancel", {})
            assert status == 200
            assert body["job"]["state"] == "cancelled"
            # stream on a terminal job returns just the summary line
            lines = _stream_lines(svc.port, job_id, timeout=10)
            assert len(lines) == 1
            assert lines[0]["job"]["state"] == "cancelled"
            # the result endpoint reports the terminal summary, no rows
            status, body = _request(svc.port, f"/jobs/{job_id}/result")
            assert body["job"]["cells_done"] == 0
        finally:
            svc.httpd.shutdown()
            svc.httpd.server_close()
            svc.pool.close()

    def test_queue_skips_cancelled_and_orders_by_priority(self):
        q = JobQueue()
        spec = object()
        low = q.submit("experiment", spec, [spec], priority=0)
        mid = q.submit("experiment", spec, [spec], priority=1)
        high = q.submit("experiment", spec, [spec], priority=5)
        assert q.depth == 3
        assert q.cancel(mid.id).state == "cancelled"
        assert q.depth == 2
        assert q.next_job(timeout=0).id == high.id
        assert q.next_job(timeout=0).id == low.id
        assert q.next_job(timeout=0) is None
        assert q.cancel("nope") is None

    def test_running_job_cancels_at_cell_boundary(self):
        """A multi-cell job cancelled mid-run stops at the next cell
        boundary: some cells done, state cancelled, capacity free."""
        grid = {"grid": {"mhk": [[2, 4, 1]], "loop": "closed",
                         "patterns": ["uniform"], "loads": [50],
                         "seeds": list(range(8))}}
        with ExperimentService(workers=0) as svc:
            status, body = _request(svc.port, "/experiments", grid)
            job_id = body["job"]["id"]
            job = svc.queue.get(job_id)
            # cancel as soon as it starts running
            deadline = time.time() + 30
            while job.state == "queued" and time.time() < deadline:
                time.sleep(0.005)
            _request(svc.port, f"/jobs/{job_id}/cancel", {})
            lines = _stream_lines(svc.port, job_id, timeout=60)
            state = lines[-1]["job"]["state"]
            # terminal either way; if the race lost, the job just won
            assert state in ("cancelled", "done")
            assert len(lines) - 1 == lines[-1]["job"]["cells_done"]


class TestConcurrentStreams:
    def test_two_streams_of_one_job_see_identical_rows(self, service):
        status, body = _request(service.port, "/experiments", GRID)
        job_id = body["job"]["id"]
        results: list = [None, None]

        def watch(slot):
            results[slot] = _stream_lines(service.port, job_id)

        threads = [threading.Thread(target=watch, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert results[0] is not None and results[1] is not None
        rows0 = [ln["row"] for ln in results[0][:-1]]
        rows1 = [ln["row"] for ln in results[1][:-1]]
        assert rows0 == rows1
