#!/usr/bin/env python
"""CI smoke for the experiment service: start ``repro serve``, submit
the sample spec over HTTP, and diff the result against ``repro run``
on the same JSON.

The contract being gated: ``/jobs/<id>/result`` is the ``repro run
--json`` document of the same JSON plus the ``job`` summary.  Every
other key (``rows``, ``aggregate``, ``shard_stats``, ``streams`` and the
echoed spec or grid) must be bit-identical; ``workers`` (for a grid,
the most workers one of the service's one-cell maps used against the
workers the CLI's one map used) and the wall-clock ``seconds`` fields
are the only permitted differences.  Exits nonzero
naming the first divergent row or key otherwise.

Usage::

    python tools/service_smoke.py [--spec examples/experiment_spec.json]
                                  [--workers 2]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _strip(row: dict) -> dict:
    return {k: v for k, v in row.items() if k != "seconds"}


def _document(doc: dict) -> dict:
    """The run document without ``job``, ``workers`` and every
    wall-clock ``seconds``."""
    out = {k: v for k, v in doc.items() if k not in ("job", "workers", "seconds")}
    out["rows"] = [_strip(r) for r in doc.get("rows", [])]
    return out


def _request(port: int, path: str, payload=None, timeout: float = 60.0):
    data = None if payload is None else json.dumps(payload).encode()
    req = urllib.request.Request(f"http://127.0.0.1:{port}{path}", data=data)
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read())


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", default="examples/experiment_spec.json")
    ap.add_argument("--workers", type=int, default=2)
    args = ap.parse_args(argv)

    with open(os.path.join(REPO, args.spec)) as fh:
        payload = json.load(fh)

    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    server = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0",
         "--workers", str(args.workers)],
        env=env, cwd=REPO, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    try:
        banner = server.stdout.readline()
        m = re.search(r":(\d+)", banner)
        if not m:
            print(f"no port in banner: {banner!r}", file=sys.stderr)
            return 1
        port = int(m.group(1))
        print(banner.strip())

        job = _request(port, "/experiments", payload)["job"]
        print(f"submitted {job['id']}: {job['cells_total']} cell(s)")
        deadline = time.time() + 600
        while time.time() < deadline:
            job = _request(port, f"/jobs/{job['id']}")["job"]
            if job["state"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.5)
        if job["state"] != "done":
            print(f"job ended {job['state']}: {job['error']}", file=sys.stderr)
            return 1
        print(f"job done: {job['cells_done']} cells, "
              f"{job['retries']} retries")
        result = _request(port, f"/jobs/{job['id']}/result")
        health = _request(port, "/healthz")
        print(f"healthz: pool {health['pool']}, "
              f"queue depth {health['queue_depth']}")
    finally:
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()

    # reference run through the CLI front door on the same JSON
    artifact = os.path.join(REPO, "service_smoke_reference.json")
    rc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", args.spec,
         "--workers", str(args.workers), "--check-single",
         "--json", artifact],
        env=env, cwd=REPO,
    ).returncode
    if rc != 0:
        print(f"reference `repro run` exited {rc}", file=sys.stderr)
        return 1
    with open(artifact) as fh:
        reference = json.load(fh)

    http_doc, cli_doc = _document(result), _document(reference)
    if set(http_doc) != set(cli_doc):
        print(f"keys differ: HTTP {sorted(http_doc)} vs CLI {sorted(cli_doc)}",
              file=sys.stderr)
        return 1
    http_rows, cli_rows = http_doc.pop("rows"), cli_doc.pop("rows")
    if len(http_rows) != len(cli_rows):
        print(f"row count differs: HTTP {len(http_rows)} vs "
              f"CLI {len(cli_rows)}", file=sys.stderr)
        return 1
    for i, (a, b) in enumerate(zip(http_rows, cli_rows)):
        if a != b:
            print(f"row {i} differs:\n  HTTP: {a}\n  CLI:  {b}",
                  file=sys.stderr)
            return 1
    for key in sorted(http_doc):
        if http_doc[key] != cli_doc[key]:
            print(f"{key} differs:", file=sys.stderr)
            print(f"  HTTP: {http_doc[key]}", file=sys.stderr)
            print(f"  CLI:  {cli_doc[key]}", file=sys.stderr)
            return 1
    print(f"service smoke OK: {len(http_rows)} rows and "
          f"{', '.join(sorted(http_doc))} bit-identical to `repro run` "
          f"(job, workers and seconds excluded)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
