"""The reproducibility bundle: self-describing, byte-identical output.

A bundle is a directory laid out as::

    manifest.json         what's inside: specs, seeds, registry names,
                          per-artifact SHA-256 — the verification root
    cells/<cell_id>.json  raw per-cell results (spec + exact stats)
    tables/<name>.csv     aggregated tables, one row per surface point
    tables/<name>.json    the same rows as JSON, with provenance links
    summary.md            markdown summary, every number linked to the
                          cell artifacts that produced it

Byte-identical regeneration is a hard contract, enforced three ways:

* **no wall clock** — per-cell payloads strip the ``seconds`` timing
  field and nothing ever stamps a date;
* **canonical JSON** — every file goes through :func:`canonical_json`
  (sorted keys, fixed indent, trailing newline);
* **content-derived names** — cell filenames end in the spec's SHA-256
  prefix, so the layout is a pure function of what was run.

``tools/check_bundle.py`` re-verifies all of this from the manifest
alone, with stdlib only.
"""

from __future__ import annotations

import hashlib
import json
import os

from repro.errors import ParameterError
from repro.experiments import (
    CONTROLLERS,
    FAULT_MODELS,
    PATTERNS,
    ROUTE_MODES,
    SOURCES,
)
from repro.simulator.grid import ExperimentResult

__all__ = [
    "BundleWriter",
    "canonical_json",
    "cell_payload",
    "registry_versions",
    "write_report_bundle",
    "write_run_bundle",
]

#: Manifest schema identifier; bump on incompatible layout changes.
BUNDLE_SCHEMA = "repro-report-bundle/1"


def canonical_json(obj) -> str:
    """The one JSON serialization every bundle file uses: sorted keys,
    two-space indent, trailing newline — so regenerated bytes can only
    differ when the values themselves differ."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def registry_versions() -> dict:
    """The live backend registries by name — recorded in the manifest so
    a bundle states which backends existed when it was built."""
    from repro.reports.plan import REPORTS

    return {
        "controllers": list(CONTROLLERS.names()),
        "fault_models": list(FAULT_MODELS.names()),
        "patterns": list(PATTERNS.names()),
        "reports": list(REPORTS.names()),
        "route_modes": list(ROUTE_MODES),
        "sources": list(SOURCES.names()),
    }


def cell_payload(
    result: ExperimentResult,
    *,
    cell_id: str,
    group: str,
    coords: dict,
) -> dict:
    """One cell's raw artifact: the exact spec and exact statistics —
    and deliberately *not* the wall-clock ``seconds`` field, which would
    break byte-identical regeneration."""
    payload = {
        "cell_id": cell_id,
        "group": group,
        "coords": dict(coords),
        "spec": result.spec.to_dict(),
        "spec_digest": result.spec.digest(),
        "loop": result.spec.loop,
        "stats": result.stats.to_dict(),
        "lost_to_faults": int(result.lost_to_faults),
        "unreachable_pairs": int(result.unreachable_pairs),
    }
    if result.closed:
        payload["run_stats"] = result.stats.summary()
    return payload


class BundleWriter:
    """Writes bundle files and accumulates their SHA-256 digests.

    The writer refuses to overwrite a path it already wrote (duplicate
    cell ids would silently drop data) and insists on writing into a
    directory that is empty or nonexistent — a bundle is a whole
    artifact, not an in-place update.
    """

    def __init__(self, root: str):
        self.root = str(root)
        if os.path.exists(self.root) and os.listdir(self.root):
            raise ParameterError(
                f"bundle directory {self.root!r} is not empty; bundles "
                f"regenerate whole — point --bundle/--out at a fresh "
                f"directory"
            )
        os.makedirs(self.root, exist_ok=True)
        self.artifacts: dict[str, str] = {}

    def write_text(self, relpath: str, text: str) -> str:
        if relpath in self.artifacts:
            raise ParameterError(
                f"bundle path {relpath!r} written twice (duplicate cell "
                f"id or table name)"
            )
        data = text.encode()
        path = os.path.join(self.root, relpath)
        os.makedirs(os.path.dirname(path) or self.root, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)
        self.artifacts[relpath] = hashlib.sha256(data).hexdigest()
        return relpath

    def write_json(self, relpath: str, obj) -> str:
        return self.write_text(relpath, canonical_json(obj))

    def write_manifest(self, manifest: dict) -> dict:
        """Write ``manifest.json`` last; it lists every other artifact's
        hash and is itself unhashed (it is the verification root).
        Returns the completed manifest."""
        manifest = dict(manifest)
        manifest["schema"] = BUNDLE_SCHEMA
        manifest["artifacts"] = dict(sorted(self.artifacts.items()))
        path = os.path.join(self.root, "manifest.json")
        with open(path, "wb") as fh:
            fh.write(canonical_json(manifest).encode())
        return manifest


def write_report_bundle(run, out_dir: str) -> dict:
    """Emit a :class:`~repro.reports.plan.ReportRun` as a bundle under
    ``out_dir`` and return the manifest dict."""
    from repro.reports.tables import render_csv, render_markdown

    writer = BundleWriter(out_dir)
    plan = run.plan

    cell_index = []
    for cell in plan.cells:
        relpath = writer.write_json(
            f"cells/{cell.cell_id}.json",
            cell_payload(
                run.results[cell.cell_id],
                cell_id=cell.cell_id,
                group=cell.group,
                coords=cell.coords,
            ),
        )
        cell_index.append(
            {
                "cell_id": cell.cell_id,
                "coords": dict(cell.coords),
                "group": cell.group,
                "path": relpath,
                "spec_digest": cell.spec.digest(),
            }
        )

    table_index = []
    summary_parts = [f"# {plan.title}", ""]
    if run.summary:
        summary_parts += [run.summary, ""]
    for table in run.tables:
        csv_path = writer.write_text(
            f"tables/{table.name}.csv", render_csv(table)
        )
        json_path = writer.write_json(
            f"tables/{table.name}.json",
            {
                "caption": table.caption,
                "columns": list(table.columns),
                "name": table.name,
                "rows": [dict(row) for row in table.rows],
            },
        )
        table_index.append(
            {
                "caption": table.caption,
                "cells": sorted(
                    {cid for row in table.rows for cid in row["cells"]}
                ),
                "name": table.name,
                "path_csv": csv_path,
                "path_json": json_path,
            }
        )
        summary_parts.append(render_markdown(table))
    writer.write_text("summary.md", "\n".join(summary_parts))

    manifest = {
        "cells": cell_index,
        "grids": {
            group: grid.to_dict() for group, grid in plan.grids.items()
        },
        "quick": plan.quick,
        "registries": registry_versions(),
        "report": plan.name,
        "tables": table_index,
        "title": plan.title,
    }
    return writer.write_manifest(manifest)


def write_run_bundle(results, out_dir: str, *, source: dict) -> dict:
    """Emit one-off ``repro run`` results as per-cell artifacts with the
    same manifest/hash machinery the report bundles use.

    ``results`` is the grid-ordered
    :class:`~repro.simulator.grid.ExperimentResult` sequence;
    ``source`` describes what was run (the parsed spec/grid payload) and
    lands verbatim in the manifest.  Cell ids are index + spec digest —
    deterministic for a fixed input file.
    """
    writer = BundleWriter(out_dir)
    cell_index = []
    for i, result in enumerate(results):
        cell_id = f"run-{i:04d}-{result.spec.digest()[:8]}"
        relpath = writer.write_json(
            f"cells/{cell_id}.json",
            cell_payload(
                result, cell_id=cell_id, group="run", coords={"index": i}
            ),
        )
        cell_index.append(
            {
                "cell_id": cell_id,
                "coords": {"index": i},
                "group": "run",
                "path": relpath,
                "spec_digest": result.spec.digest(),
            }
        )
    manifest = {
        "cells": cell_index,
        "grids": {},
        "quick": False,
        "registries": registry_versions(),
        "report": None,
        "source": source,
        "tables": [],
        "title": "repro run artifacts",
    }
    return writer.write_manifest(manifest)
