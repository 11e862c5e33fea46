"""Tests for the figure renderings and the ``paper-figures`` report.

The report is built once per module (``build_report("paper-figures",
workers=0)``) and written to one bundle; every paper fact below is
asserted over its table rows and its ``summary.md``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro.reports
from repro.cli import main
from repro.core import bus_ft_debruijn, debruijn, ft_debruijn, rank_remap
from repro.errors import ParameterError
from repro.reports import build_report, format_table, write_report_bundle
from repro.viz import adjacency_listing, bus_listing, relabeled_listing, to_dot

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: One table per artifact of the paper, in paper order; an artifact that
#: prints two tables gets a second, suffixed one.
PAPER_TABLES = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "tab1", "tab2", "thm1", "thm2",
    "cor14", "seemb", "seemb-tol", "senat", "busdeg", "busdeg-basem",
    "busslow", "motiv", "algs", "abl-win", "abl-spare", "dil", "sealg",
    "rel", "sat", "sat-saturation",
)


@pytest.fixture(scope="module")
def paper(tmp_path_factory):
    """The built report and the bundle written from it."""
    run = build_report("paper-figures", workers=0)
    out = tmp_path_factory.mktemp("paper-figures") / "bundle"
    write_report_bundle(run, str(out))
    return run, str(out)


@pytest.fixture(scope="module")
def tables(paper):
    run, _ = paper
    return {table.name: table for table in run.tables}


@pytest.fixture(scope="module")
def summary(paper):
    _, out = paper
    with open(os.path.join(out, "summary.md")) as fh:
        return fh.read()


def _row(tables, name):
    (row,) = tables[name].rows
    return row


def _column(tables, name, column):
    return [row[column] for row in tables[name].rows]


class TestAsciiArt:
    def test_adjacency_listing_labels(self):
        text = adjacency_listing(debruijn(2, 3), 2, 3)
        assert "[0,0,0]_2" in text
        assert "[1,1,1]_2" in text
        assert text.count("\n") == 7

    def test_adjacency_listing_spares(self):
        text = adjacency_listing(ft_debruijn(2, 3, 1), 2, 3)
        assert "(spare)" in text

    def test_adjacency_listing_plain(self):
        text = adjacency_listing(debruijn(2, 3))
        assert "--" in text and "[0,0,0]" not in text

    def test_to_dot(self):
        dot = to_dot(debruijn(2, 3), "B23", faulty=[2])
        assert dot.startswith('graph "B23"')
        assert "layout=circo" in dot
        assert "2 [style=filled" in dot
        assert dot.rstrip().endswith("}")

    def test_relabeled_listing(self):
        phi = rank_remap(9, [4], 8)
        text = relabeled_listing(9, phi, [4], 2, 3)
        assert "X  (faulty)" in text
        assert "hosts 4" in text  # logical 4 hosted somewhere
        assert text.count("physical") == 9

    def test_relabeled_listing_idle_spares(self):
        phi = rank_remap(10, [0], 8)
        text = relabeled_listing(10, phi, [0], 2, 3)
        assert "idle spare" in text

    def test_bus_listing(self):
        text = bus_listing(bus_ft_debruijn(3, 1))
        assert "bus   0 (owner 0)" in text
        assert text.count("\n") == 8


class TestFormatTable:
    def test_empty(self):
        assert format_table([]) == "(empty)"

    def test_alignment(self):
        rows = [{"a": 1, "bb": "xy"}, {"a": 222, "bb": "z"}]
        text = format_table(rows)
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(l) == len(lines[0]) for l in lines[1:])


class TestReportRegistry:
    def test_ids_stable(self, paper, tables):
        run, _ = paper
        assert tuple(tables) == PAPER_TABLES
        # a construction report: no cells, no grids, no provenance links
        assert run.plan.cells == () and run.plan.grids == {}
        assert all(row["cells"] == [] for t in run.tables for row in t.rows)
        # quick changes nothing
        quick = repro.reports.REPORTS.get("paper-figures")(quick=True)
        assert quick.cells == () and quick.aggregate is run.plan.aggregate

    def test_bundle_verifies(self, paper):
        _, out = paper
        check = subprocess.run(
            [sys.executable, os.path.join(_REPO, "tools", "check_bundle.py"),
             out],
            capture_output=True, text=True,
        )
        assert check.returncode == 0, check.stdout
        for name in PAPER_TABLES:
            for ext in ("csv", "json"):
                assert os.path.exists(os.path.join(out, "tables",
                                                   f"{name}.{ext}"))

    @pytest.mark.parametrize(
        "artifact", ["FIG1", "FIG2", "FIG4", "TAB2", "COR14", "BUSDEG", "REL", "SENAT"]
    )
    def test_cheap_experiments_run(self, tables, summary, artifact):
        table = tables[artifact.lower()]
        assert table.rows and table.caption and table.columns
        assert f"### {table.name}\n" in summary

    def test_fig3_metrics(self, tables):
        row = _row(tables, "fig3")
        assert row["verified_single_faults"] == row["total"] == 17

    def test_fig5_metrics(self, tables):
        row = _row(tables, "fig5")
        assert row["node_fault_ok"] == 9
        assert row["bus_fault_ok"] == 9

    def test_unknown_id(self):
        with pytest.raises(ParameterError, match="unknown report 'NOPE'"):
            build_report("NOPE")

    def test_cli_list(self, capsys):
        assert main(["report", "--list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == list(repro.reports.REPORTS.names())
        assert "paper-figures" in out and "FIG1" not in out

    def test_cli_single(self, paper, capsys, monkeypatch):
        # the CLI's rendering of the module's build, without a second one
        run, _ = paper
        monkeypatch.setattr(repro.reports, "build_report",
                            lambda name, **kwargs: run)
        assert main(["report", "paper-figures", "--workers", "0"]) == 0
        out = capsys.readouterr().out
        assert "0 cells on 0 worker(s)" in out
        assert "fig4: Bus implementation of B^1_{2,3}" in out
        assert "[0,1,1,0]_2" in out  # the Fig. 1 listing

    def test_cli_unknown(self, capsys, tmp_path):
        out = tmp_path / "bundle"
        assert main(["report", "BOGUS", "--bundle", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: unknown report")
        assert not out.exists()


class TestPaperFacts:
    """The paper's claims, over the ``paper-figures`` tables."""

    def test_fig1_debruijn_b24(self, tables, summary):
        row = _row(tables, "fig1")
        assert row["nodes"] == 16 and row["max_degree"] == 4
        assert "[0,1,1,0]_2" in summary

    def test_fig2_ft_graph_b124(self, tables):
        row = _row(tables, "fig2")
        assert row["nodes"] == 17
        assert row["max_degree"] == row["degree_bound"] == 8

    def test_fig3_listing_marks_the_fault(self, summary):
        assert "### fig3 listing" in summary
        assert "X  (faulty)" in summary

    def test_fig4_bus_implementation(self, tables):
        row = _row(tables, "fig4")
        assert row["buses"] == 9 and row["max_bus_degree"] == 5

    def test_tab1_tab2_node_blowup(self, tables):
        assert len(tables["tab1"].rows) == 16
        assert max(_column(tables, "tab1", "node_ratio")) > 1000
        assert len(tables["tab2"].rows) == 6
        assert max(_column(tables, "tab2", "node_ratio")) > 25

    @pytest.mark.parametrize("name", ["thm1", "thm2", "seemb-tol"])
    def test_exhaustive_tolerance(self, tables, name):
        assert set(_column(tables, name, "result")) == {"OK"}

    def test_cor14_degree_bounds(self, tables):
        for row in tables["cor14"].rows:
            assert row["deg="] <= row["deg<="]
            assert row["nodes"] == row["nodes_formula"]

    def test_seemb_embeds_up_to_h10(self, tables):
        assert _column(tables, "seemb", "h") == list(range(3, 11))
        assert set(_column(tables, "seemb", "valid")) == {"yes"}

    def test_senat_psi_beats_natural(self, tables):
        for row in tables["senat"].rows:
            assert row["psi_deg="] <= row["natural_deg="]

    @pytest.mark.parametrize("name", ["busdeg", "busdeg-basem"])
    def test_busdeg_meets_bound(self, tables, name):
        for row in tables[name].rows:
            assert row["bus_deg="] == row["bound"]

    def test_busslow_two_regimes(self, tables):
        assert _column(tables, "busslow", "slowdown") == [2.0, 1.0]

    def test_motiv_ft_delivers_all(self, tables):
        free, ft, bare = tables["motiv"].rows
        assert free["delivered"] == ft["delivered"] == ft["offered"] == 900
        assert bare["unreachable"] == 105
        assert bare["delivered"] < bare["offered"]

    def test_algs_correct_constant_factor(self, tables):
        rows = tables["algs"].rows
        assert all(row["correct"] for row in rows)
        hypercube, debruijn_sort = rows[0]["rounds"], rows[1]["rounds"]
        assert debruijn_sort / hypercube <= 4.0

    def test_abl_window_irredundant(self, tables):
        assert not any(_column(tables, "abl-win", "still_tolerant"))

    def test_abl_spares_no_free_lunch(self, tables):
        assert not any(_column(tables, "abl-spare", "improves"))

    def test_dil_zero_vs_detours(self, tables):
        rows = tables["dil"].rows
        reconfigured = [r for r in rows if r["machine"] == "reconfigured B^k"]
        assert len(reconfigured) == 3
        assert all(r["mean_dilation"] == r["max_dilation"] == 0
                   for r in reconfigured)
        assert max(r["unreachable"] for r in rows) > 0

    def test_sealg_correct_through_faults(self, tables):
        assert all(_column(tables, "sealg", "correct"))

    def test_rel_table(self, tables):
        assert len(tables["rel"].rows) == 3

    def test_sat_reconfig_keeps_saturation_detour_loses_it(self, tables):
        free, reconfig, detour = (
            row["saturation_rate"] for row in tables["sat-saturation"].rows
        )
        # reconfig_preserves_throughput
        assert abs(reconfig - free) <= 0.1 * free
        # detour_degrades
        assert detour < reconfig
