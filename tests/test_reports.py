"""Tier-1 coverage for the reports subsystem: Wilson intervals, exact
histogram percentiles, report plans, and — the load-bearing contract —
bundle determinism: the same report built twice is byte-identical,
every manifest link resolves, every artifact hash matches, and no
wall-clock stamp appears anywhere (extending the shape test idea from
``tests/test_bench_artifact.py`` to a whole directory tree)."""

from __future__ import annotations

import importlib.util
import json
import os
import sys

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ParameterError
from repro.experiments import ExperimentGrid, ExperimentSpec
from repro.reports import (
    REPORTS,
    ReportCell,
    ReportPlan,
    ReportTable,
    build_report,
    canonical_json,
    pooled_delivery,
    write_report_bundle,
)
from repro.simulator.metrics import hist_percentile, wilson_interval

_TOOLS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"
)


def _load_check_bundle():
    spec = importlib.util.spec_from_file_location(
        "check_bundle", os.path.join(_TOOLS, "check_bundle.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


check_bundle_mod = _load_check_bundle()


# ---------------------------------------------------------------------------
# wilson_interval: known values and edge cases
# ---------------------------------------------------------------------------

class TestWilsonInterval:
    def test_textbook_value(self):
        # the standard worked example: 45 successes in 50 trials at 95%
        lo, hi = wilson_interval(45, 50)
        assert lo == pytest.approx(0.7864, abs=5e-4)
        assert hi == pytest.approx(0.9565, abs=5e-4)

    def test_half_and_half(self):
        lo, hi = wilson_interval(5, 10)
        assert lo == pytest.approx(0.2366, abs=5e-4)
        assert hi == pytest.approx(0.7634, abs=5e-4)
        # symmetric around 0.5
        assert lo + hi == pytest.approx(1.0)

    def test_boundary_rates_stay_informative(self):
        lo, hi = wilson_interval(0, 10)
        assert lo == 0.0 and 0 < hi < 0.35
        lo, hi = wilson_interval(10, 10)
        assert hi == 1.0 and 0.65 < lo < 1
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_interval_tightens_with_trials(self):
        narrow = wilson_interval(900, 1000)
        wide = wilson_interval(9, 10)
        assert narrow[1] - narrow[0] < wide[1] - wide[0]

    def test_contains_point_estimate(self):
        for s, n in [(1, 7), (3, 11), (47, 50), (123, 456)]:
            lo, hi = wilson_interval(s, n)
            assert lo <= s / n <= hi

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError):
            wilson_interval(-1, 3)
        with pytest.raises(ValueError):
            wilson_interval(1, 3, z=0)


# ---------------------------------------------------------------------------
# hist_percentile: exact np.percentile equivalence on histograms
# ---------------------------------------------------------------------------

class TestHistPercentile:
    def test_matches_numpy_on_random_histograms(self):
        """Equal to the last bit: a one-sided lerp misses numpy's
        result on a few of these histograms (850.2 against
        850.1999999999999)."""
        rng = np.random.default_rng(7)
        for _ in range(1000):
            sample = rng.integers(0, 2000, size=int(rng.integers(1, 300)))
            values, counts = np.unique(sample, return_counts=True)
            for q in (0, 12.5, 37.5, 50, 75, 90, 95, 99, 100):
                assert hist_percentile(values, counts, q) == float(
                    np.percentile(sample, q)
                )

    def test_unsorted_input_and_zero_counts(self):
        # unsorted values with interleaved zero-count bins reduce the same
        assert hist_percentile([9, 2, 5], [1, 0, 3], 50) == float(
            np.percentile([5, 5, 5, 9], 50)
        )

    def test_empty_histogram(self):
        assert hist_percentile([], [], 95) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            hist_percentile([1, 2], [1], 50)
        with pytest.raises(ValueError):
            hist_percentile([1], [1], 101)
        with pytest.raises(ValueError):
            hist_percentile([1], [-1], 50)


# ---------------------------------------------------------------------------
# spec digests
# ---------------------------------------------------------------------------

def test_spec_digest_is_content_derived():
    a = ExperimentSpec(m=2, h=4, k=1, packets=50)
    b = ExperimentSpec(m=2, h=4, k=1, packets=50)
    c = ExperimentSpec(m=2, h=4, k=1, packets=51)
    assert a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert len(a.digest()) == 64
    grid = ExperimentGrid(mhk=[(2, 4, 1)], loads=[50])
    assert grid.digest() == ExperimentGrid(mhk=[(2, 4, 1)], loads=[50]).digest()


# ---------------------------------------------------------------------------
# a tiny test-only report: the determinism harness
# ---------------------------------------------------------------------------

def _tiny_aggregate(plan, results):
    rows = []
    by_faults: dict[int, list] = {}
    for cell in plan.cells:
        by_faults.setdefault(cell.coords["f"], []).append(cell)
    for f, cells in sorted(by_faults.items()):
        row = {"f": f}
        row.update(pooled_delivery([results[c.cell_id] for c in cells]))
        row["cells"] = [c.cell_id for c in cells]
        rows.append(row)
    table = ReportTable(
        name="tiny",
        caption="delivery vs fault count on B^2_{2,4}",
        columns=("f", "offered", "delivered", "delivery", "ci_lo", "ci_hi"),
        rows=rows,
    )
    return [table], f"tiny report over {len(plan.cells)} cells"


@REPORTS.register("test-tiny")
def _tiny_report(*, quick: bool = False) -> ReportPlan:
    grid = ExperimentGrid(
        mhk=((2, 4, 2),),
        loads=(60,),
        fault_models=({"name": "fixed", "faults": []},
                      {"name": "fixed", "faults": [[0, 3]]}),
        seeds=(0, 1),
        controller="reconfig",
    )
    cells = [
        ReportCell.make(
            "tiny",
            {"f": len(spec.fault_model["faults"]), "seed": spec.seed},
            spec,
        )
        for spec in grid.expand()
    ]
    return ReportPlan(
        name="test-tiny",
        title="tiny determinism harness",
        quick=quick,
        grids={"tiny": grid},
        cells=cells,
        aggregate=_tiny_aggregate,
    )


@pytest.fixture(scope="module")
def tiny_bundles(tmp_path_factory):
    """The same tiny report built twice into fresh directories."""
    dirs = []
    for name in ("first", "second"):
        out = tmp_path_factory.mktemp("tiny") / name
        run = build_report("test-tiny", workers=0)
        write_report_bundle(run, str(out))
        dirs.append(str(out))
    return dirs


def test_bundle_regeneration_is_byte_identical(tiny_bundles):
    a, b = tiny_bundles
    assert check_bundle_mod.compare_bundles(a, b) == []


def test_bundle_verifies_clean(tiny_bundles):
    for bundle in tiny_bundles:
        assert check_bundle_mod.check_bundle(bundle) == []


def test_manifest_links_resolve_and_hashes_match(tiny_bundles):
    bundle = tiny_bundles[0]
    with open(os.path.join(bundle, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["schema"] == "repro-report-bundle/1"
    assert manifest["report"] == "test-tiny"
    # every artifact exists; the verifier already checked the hashes
    for relpath in manifest["artifacts"]:
        assert os.path.exists(os.path.join(bundle, relpath)), relpath
    # every table provenance link names a listed cell artifact
    cell_ids = {c["cell_id"] for c in manifest["cells"]}
    for table in manifest["tables"]:
        assert table["cells"] and set(table["cells"]) <= cell_ids
    # the registries snapshot names what can run
    assert "iid" in manifest["registries"]["fault_models"]
    assert "dependability-surface" in manifest["registries"]["reports"]


def test_no_wallclock_stamp_anywhere(tiny_bundles):
    for dirpath, _, filenames in os.walk(tiny_bundles[0]):
        for name in filenames:
            if not name.endswith(".json"):
                continue
            with open(os.path.join(dirpath, name)) as fh:
                payload = json.load(fh)
            assert check_bundle_mod._find_wallclock(payload, name) == []


def test_verifier_catches_tampering(tiny_bundles, tmp_path):
    import shutil

    bundle = tmp_path / "tampered"
    shutil.copytree(tiny_bundles[0], bundle)
    cells = sorted((bundle / "cells").iterdir())
    text = cells[0].read_text().replace('"delivered": ', '"delivered": 9')
    cells[0].write_text(text)
    (bundle / "stray.txt").write_text("not listed\n")
    problems = check_bundle_mod.check_bundle(str(bundle))
    assert any("sha256 mismatch" in p for p in problems)
    assert any("stray.txt" in p for p in problems)


def test_bundle_writer_refuses_nonempty_directory(tiny_bundles, tmp_path):
    run = build_report("test-tiny", workers=0)
    (tmp_path / "occupied").mkdir()
    (tmp_path / "occupied" / "existing.txt").write_text("x")
    with pytest.raises(ParameterError, match="not empty"):
        write_report_bundle(run, str(tmp_path / "occupied"))


def test_canonical_json_is_stable():
    text = canonical_json({"b": 1, "a": [2, 1]})
    assert text == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'


# ---------------------------------------------------------------------------
# the dependability surface (QUICK): the acceptance property
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def quick_surface(tmp_path_factory):
    run = build_report("dependability-surface", quick=True, workers=0)
    out = str(tmp_path_factory.mktemp("surface") / "bundle")
    write_report_bundle(run, out)
    return run, out


def test_surface_bundle_verifies(quick_surface):
    _, bundle = quick_surface
    assert check_bundle_mod.check_bundle(bundle) == []


def test_reconfig_dominates_detour_at_every_fault_level(quick_surface):
    run, _ = quick_surface
    comparison = next(
        t for t in run.tables if t.name == "surface-comparison"
    )
    assert comparison.rows
    for row in comparison.rows:
        assert row["reconfig_delivery"] >= row["detour_delivery"], row


def test_confidence_intervals_disjoint_at_highest_intensity(quick_surface):
    run, _ = quick_surface
    comparison = next(
        t for t in run.tables if t.name == "surface-comparison"
    )
    worst_p = min(row["p"] for row in comparison.rows)
    worst = [row for row in comparison.rows if row["p"] == worst_p]
    assert worst
    for row in worst:
        assert row["ci_disjoint"] is True, row
        assert row["reconfig_ci_lo"] > row["detour_ci_hi"], row


def test_surface_rows_pool_all_replica_trials(quick_surface):
    run, _ = quick_surface
    surface = next(t for t in run.tables if t.name == "surface-reconfig")
    # QUICK: 1200 packets x 4 replicas x 2 seeds per surface point
    for row in surface.rows:
        assert row["offered"] == 1200 * 4 * 2
        assert len(row["cells"]) == 2  # one cell per seed


def test_full_surface_replicas_fit_the_spare_budget():
    """Every FULL-sized probabilistic cell must realize all its replicas
    without overflowing the k spares — a draw that demanded more spares
    than the machine has would fail the published surface at runtime."""
    plan = REPORTS.get("dependability-surface")(quick=False)
    for cell in plan.cells:
        if cell.spec.controller != "reconfig":
            continue
        for i in range(cell.spec.replicas):
            realized = cell.spec.realize_replica(i)  # raises on overflow
            assert realized.replicas == 1


def test_paper_tables_quick_zero_dilation():
    run = build_report("paper-tables", quick=True, workers=0)
    table = run.tables[0]
    by_machine: dict[tuple, list] = {}
    for row in table.rows:
        by_machine.setdefault((row["m"], row["h"], row["k"]), []).append(row)
    for rows in by_machine.values():
        baseline = next(r for r in rows if r["f"] == 0)
        for row in rows:
            assert row["delivery"] == 1.0, row
            # zero dilation: faulted machines reproduce the fault-free
            # latency and hop numbers exactly
            assert row["mean_hops"] == baseline["mean_hops"], row
            assert row["mean_latency"] == baseline["mean_latency"], row


# ---------------------------------------------------------------------------
# CLI: repro report / repro run --out
# ---------------------------------------------------------------------------

def test_cli_report_list(capsys):
    assert main(["report", "--list"]) == 0
    out = capsys.readouterr().out.split()
    assert "dependability-surface" in out
    assert "paper-tables" in out
    assert "paper-figures" in out
    assert out == list(REPORTS.names())  # registry names only


def test_cli_report_rejects_mixing_registered_and_legacy(tmp_path, capsys):
    # an old figure id is now an unknown name, refused before the
    # registered report named ahead of it builds
    out = tmp_path / "bundle"
    assert main(["report", "paper-tables", "FIG3", "--bundle", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "error: unknown report 'FIG3'; valid choices: "
        + ", ".join(REPORTS.names()) + "\n"
    )
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "names, message",
    [
        (["paper-tables", "paper-tables"], "report 'paper-tables' is named twice"),
        ([], "name at least one report"),
    ],
    ids=["duplicate", "none"],
)
def test_cli_report_refuses_bad_names_at_the_door(names, message, tmp_path,
                                                   capsys):
    out = tmp_path / "bundle"
    assert main(["report", *names, "--workers", "0", "--bundle", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")
    assert captured.out == ""  # nothing built
    assert not out.exists()


def test_cli_report_builds_bundle(tmp_path, capsys):
    out = tmp_path / "bundle"
    code = main(["report", "test-tiny", "--workers", "0",
                 "--bundle", str(out)])
    assert code == 0
    assert "wrote bundle" in capsys.readouterr().out
    assert check_bundle_mod.check_bundle(str(out)) == []


def test_cli_report_refuses_occupied_bundle_dir(tmp_path, capsys):
    out = tmp_path / "occupied"
    out.mkdir()
    (out / "file").write_text("x")
    code = main(["report", "test-tiny", "--workers", "0",
                 "--bundle", str(out)])
    assert code == 1
    assert "not empty" in capsys.readouterr().err


def test_cli_run_out_writes_cell_artifacts(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "grid": {"mhk": [[2, 4, 1]], "loads": [30], "seeds": [0, 1]}
    }))
    out = tmp_path / "artifacts"
    code = main(["run", str(spec), "--workers", "0", "--out", str(out)])
    assert code == 0
    assert "wrote per-cell artifacts" in capsys.readouterr().out
    assert check_bundle_mod.check_bundle(str(out)) == []
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["report"] is None
    assert manifest["source"]["kind"] == "grid"
    assert len(manifest["cells"]) == 2
    # the raw artifacts carry the exact spec and stats, no wall clock
    cell_path = out / manifest["cells"][0]["path"]
    payload = json.loads(cell_path.read_text())
    assert payload["spec"]["m"] == 2
    assert "seconds" not in payload
    assert payload["stats"]["injected"] == 30


def test_cli_run_out_is_deterministic(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"m": 2, "h": 4, "k": 1, "packets": 25}))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", str(spec), "--workers", "0",
                     "--out", str(out)]) == 0
        outs.append(str(out))
    assert check_bundle_mod.compare_bundles(*outs) == []


def test_check_bundle_cli_roundtrip(tiny_bundles, capsys):
    a, b = tiny_bundles
    assert check_bundle_mod.main([a, "--compare", b]) == 0
    assert "byte-identical" in capsys.readouterr().out
