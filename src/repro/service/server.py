"""The always-on experiment service: stdlib HTTP over one warm pool.

``repro serve`` binds a :class:`ThreadingHTTPServer` whose handlers
validate incoming :class:`~repro.experiments.ExperimentSpec` /
:class:`~repro.experiments.ExperimentGrid` JSON at the door (the same
:func:`~repro.experiments.parse_run_payload` the CLI uses — a malformed
payload is rejected with the registry's ``ParameterError`` message
before any worker is touched) and enqueue jobs on the
:class:`~repro.service.jobs.JobQueue`; a single
:class:`~repro.service.jobs.JobRunner` thread schedules cells on one
persistent :class:`~repro.simulator.pool.WorkerPool` shared across
every request.

Endpoints (see docs/service.md for schemas and curl recipes):

=======  =======================  =========================================
POST     ``/experiments``         submit a run payload; ``?priority=N``
GET      ``/jobs``                all jobs, summary rows
GET      ``/jobs/<id>``           one job's status/progress
GET      ``/jobs/<id>/result``    terminal job's full result payload
GET      ``/jobs/<id>/stream``    NDJSON: one row per cell as it finishes
POST     ``/jobs/<id>/cancel``    cancel (queued: now; running: next cell)
GET      ``/healthz``             pool size/spawns, queue depth, progress
=======  =======================  =========================================

The result payload is the ``repro run --json`` document
(:meth:`~repro.simulator.grid.GridResult.to_dict` after ``kind`` and the
echoed spec or grid) plus the ``job`` summary — the stats are
bit-identical to a CLI run of the same JSON, and only ``job``,
``workers`` and the wall-clock ``seconds`` differ between the two.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.errors import ParameterError, ReproError
from repro.service.jobs import TERMINAL, JobQueue, JobRunner

__all__ = ["ExperimentService", "serve"]

_JOB_ROUTE = re.compile(r"^/jobs/([^/]+)(?:/(result|stream|cancel))?$")

#: Largest ``POST /experiments`` body the service reads, in bytes.  A
#: larger declared ``Content-Length`` is refused with 413 before any of
#: the body is read.
MAX_BODY_BYTES = 1 << 20


def _expand(target, kind):
    """A submitted payload's flat cell list, grid order."""
    return target.expand() if kind == "grid" else [target]


def _cell_line(job, index) -> dict:
    """One NDJSON stream line: the cell's report row (identical to the
    ``repro run --json`` row), plus stream cells' window series."""
    res = job.cell_results[index]
    line = {"job": job.id, "cell": index, "row": res.row()}
    if not res.closed:
        line["stream"] = res.stats.to_dict()
    return line


def result_payload(job, workers: int) -> dict:
    """The terminal-job result document (``/jobs/<id>/result``): the
    ``repro run --json`` document of the job's cells, which the runner
    executed in grid order, led by the ``job`` summary."""
    from repro.simulator.grid import GridResult

    grid = GridResult(tuple(job.cell_results), sum(job.cell_seconds), workers)
    return {
        "job": job.summary(),
        "kind": job.kind,
        job.kind: job.target.to_dict(),
        **grid.to_dict(),
    }


class ExperimentService:
    """Owns the queue, the runner, the pool, and the HTTP server.

    ``with ExperimentService(...) as svc: svc.serve_forever()`` is the
    daemon; tests drive :meth:`start`/:meth:`close` directly and talk to
    ``http://127.0.0.1:{svc.port}``.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 workers: int | None = None, max_retries: int = 2):
        from repro.simulator.pool import WorkerPool

        self.queue = JobQueue()
        self.pool = WorkerPool(workers=workers)
        self.runner = JobRunner(self.queue, self.pool, max_retries=max_retries)
        service = self

        class Handler(_Handler):
            svc = service

        self.httpd = ThreadingHTTPServer((host, port), Handler)
        self.httpd.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.2},
            name="repro-http", daemon=True,
        )

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    def start(self) -> "ExperimentService":
        self.runner.start()
        self._http_thread.start()
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`close` (or an interrupt in the caller's
        main thread) — the accept loop itself runs on the daemon HTTP
        thread started by :meth:`start`."""
        self._http_thread.join()

    def health(self) -> dict:
        jobs = self.queue.jobs()
        by_state: dict[str, int] = {}
        for j in jobs:
            by_state[j["state"]] = by_state.get(j["state"], 0) + 1
        return {
            "status": "ok",
            "pool": {
                "target_workers": self.pool.target_workers,
                "alive_workers": self.pool.alive_workers,
                "spawned": self.pool.spawned,
                "closed": self.pool.closed,
            },
            "queue_depth": self.queue.depth,
            "jobs_by_state": by_state,
            "jobs": [
                {"id": j["id"], "state": j["state"],
                 "cells_done": j["cells_done"],
                 "cells_total": j["cells_total"], "retries": j["retries"]}
                for j in jobs if j["state"] not in TERMINAL
            ],
        }

    def close(self, *, force: bool = False) -> None:
        """Stop accepting, stop the runner, shut the pool down.  With
        ``force`` (the interrupt path) busy workers are terminated — see
        :meth:`WorkerPool.close`."""
        self.httpd.shutdown()
        self.httpd.server_close()
        self.runner.stop()
        self.runner.join(timeout=10)
        self.pool.close(force=force)

    def __enter__(self) -> "ExperimentService":
        return self.start()

    def __exit__(self, exc_type, *exc) -> None:
        self.close(force=exc_type is not None
                   and issubclass(exc_type, (KeyboardInterrupt, SystemExit)))


class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.0: responses end by connection close, so the NDJSON stream
    # needs no chunked framing and curl sees lines as they flush
    protocol_version = "HTTP/1.0"
    svc: ExperimentService = None  # bound by ExperimentService.__init__

    # -- plumbing -----------------------------------------------------------

    def log_message(self, fmt, *args):  # pragma: no cover - quiet by default
        pass

    def _json(self, code: int, payload: dict) -> None:
        body = json.dumps(payload, indent=2).encode() + b"\n"
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._json(code, {"error": message})

    # -- routes -------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        if url.path == "/experiments":
            return self._submit(url)
        m = _JOB_ROUTE.match(url.path)
        if m and m.group(2) == "cancel":
            return self._cancel(m.group(1))
        self._error(404, f"no such route: POST {url.path}")

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        if url.path == "/healthz":
            return self._json(200, self.svc.health())
        if url.path == "/jobs":
            return self._json(200, {"jobs": self.svc.queue.jobs()})
        m = _JOB_ROUTE.match(url.path)
        if m:
            job = self.svc.queue.get(m.group(1))
            if job is None:
                return self._error(404, f"unknown job {m.group(1)!r}")
            if m.group(2) is None:
                return self._json(200, {"job": job.summary()})
            if m.group(2) == "result":
                return self._result(job)
            if m.group(2) == "stream":
                return self._stream(job)
        self._error(404, f"no such route: GET {url.path}")

    # -- handlers -----------------------------------------------------------

    def _submit(self, url) -> None:
        from repro.experiments import parse_run_payload

        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            return self._error(400, "Content-Length must be an integer")
        if length < 0:
            return self._error(400, f"Content-Length must be >= 0, got {length}")
        if length > MAX_BODY_BYTES:
            # refused unread: the connection closes after the answer
            return self._error(
                413, f"request body of {length} bytes exceeds the limit of "
                     f"{MAX_BODY_BYTES} bytes"
            )
        try:
            payload = json.loads(self.rfile.read(length) or b"null")
        except (ValueError, json.JSONDecodeError) as exc:
            return self._error(400, f"request body is not JSON: {exc}")
        query = parse_qs(url.query)
        try:
            priority = int(query.get("priority", ["0"])[0])
        except ValueError:
            return self._error(400, "priority must be an integer")
        # validation at the door: registry errors carry the exact
        # ParameterError message and no worker is ever touched
        try:
            target, kind = parse_run_payload(payload, origin="POST /experiments")
        except ParameterError as exc:
            return self._error(400, str(exc))
        except ReproError as exc:
            return self._error(400, str(exc))
        job = self.svc.queue.submit(kind, target, _expand(target, kind),
                                    priority=priority)
        self._json(202, {"job": job.summary()})

    def _cancel(self, job_id: str) -> None:
        job = self.svc.queue.cancel(job_id)
        if job is None:
            return self._error(404, f"unknown job {job_id!r}")
        self._json(200, {"job": job.summary()})

    def _result(self, job) -> None:
        if job.state not in TERMINAL:
            return self._error(
                409, f"job {job.id} is {job.state}; result exists once the "
                     f"job is done/failed/cancelled"
            )
        if job.state != "done":
            return self._json(200, {"job": job.summary()})
        self._json(200, result_payload(job, self.svc.pool.target_workers))

    def _stream(self, job) -> None:
        """NDJSON: emit each finished cell as soon as it lands, then one
        terminal line with the job summary.  Cancelled/failed jobs
        stream whatever completed before the terminal line."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        sent = 0
        while True:
            while sent < job.cells_done:
                line = _cell_line(job, sent)
                self.wfile.write(json.dumps(line).encode() + b"\n")
                self.wfile.flush()
                sent += 1
            if job.state in TERMINAL and sent >= job.cells_done:
                break
            self.svc.queue.wait_for_progress(job, sent, timeout=1.0)
        self.wfile.write(json.dumps({"job": job.summary()}).encode() + b"\n")
        self.wfile.flush()


def serve(*, host: str = "127.0.0.1", port: int = 8642,
          workers: int | None = None, max_retries: int = 2) -> int:
    """Run the service until interrupted (the ``repro serve`` body)."""
    import sys

    with ExperimentService(host=host, port=port, workers=workers,
                           max_retries=max_retries) as svc:
        print(f"repro serve: listening on http://{host}:{svc.port} "
              f"(pool target {svc.pool.target_workers} workers)")
        sys.stdout.flush()
        svc.serve_forever()
    return 0
