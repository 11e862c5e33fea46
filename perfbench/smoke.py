"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/smoke.py -q

Runs the end-to-end and the traced measurement of each workload on
tiny requests and checks that every metric is emitted with its unit,
that no request failed, that the traced run's self times fit in its
wall time, and that both runs digest the same exact stats.
"""

import json
import math
import os

import pytest

import run
from workloads import ROOT, WORKLOADS


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def runs(request):
    name = request.param
    e2e = run.measure(WORKLOADS[name](tiny=True), seed=7, seconds=0.0, probes=1)
    traced = run.measure_traced(WORKLOADS[name](tiny=True), seed=7)
    return e2e, traced


def _check_result(metrics, units, tally):
    result = run.emit(metrics, units, tally)
    assert result["failed"] == 0 and result["correct"]
    assert set(result["metrics"]) == set(units)
    for entry in result["metrics"].values():
        assert entry["unit"] and math.isfinite(entry["value"])
    return result


def test_end_to_end_metrics(runs):
    (metrics, tally), _ = runs
    result = _check_result(metrics, run.END_TO_END, tally)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_traced_metrics(runs):
    _, (metrics, tally) = runs
    _check_result(metrics, run.PER_LAYER, tally)
    assert metrics["trace.self_sum_s"] <= metrics["trace.wall_s"]


def test_both_runs_digest_the_same_stats(runs):
    (_, e2e), (_, traced) = runs
    assert e2e.digest == traced.digest


def test_benchmark_json_names_what_run_emits():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
