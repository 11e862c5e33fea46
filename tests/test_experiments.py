"""Tests for the unified experiment API: spec round-trips, registry
validation, grid expansion, execution-path equivalence, and the
``repro run`` CLI.

The load-bearing claims:

* ``ExperimentSpec`` JSON round-trips *exactly* (spec -> json -> spec
  equality, every field);
* pooled and inline execution of the same specs produce bit-identical
  ``RunStats``/``StreamStats``;
* registry lookups fail at spec construction with a ``ValueError``
  subclass naming the bad value and the valid choices — never a
  ``KeyError`` inside a worker;
* ``repro run`` refuses a malformed file, spec value or flag with one
  ``error:`` line, never a traceback.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ParameterError
from repro.experiments import (
    CONTROLLERS,
    PATTERNS,
    ROUTE_MODES,
    SOURCES,
    ExperimentGrid,
    ExperimentSpec,
    Registry,
    run_grid,
)
from tests.conformance.harness import witness_run

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def _fixed_models(*fault_sets) -> list[dict]:
    """A fault axis of ``fixed`` models, one per ``[[cycle, node], ...]``
    set."""
    return [{"name": "fixed", "faults": faults} for faults in fault_sets]


# ---------------------------------------------------------------------------
# the Registry primitive
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_register_lookup_and_order(self):
        reg = Registry("widget")
        reg.register("a")(1)
        reg.register("b")(2)
        assert reg.names() == ("a", "b")
        assert reg.get("b") == 2
        assert "a" in reg and "c" not in reg
        assert len(reg) == 2 and list(reg) == ["a", "b"]

    def test_unknown_name_is_valueerror_naming_choices(self):
        reg = Registry("widget")
        reg.register("a")(1)
        with pytest.raises(ParameterError, match="unknown widget 'z'.*a"):
            reg.get("z")
        with pytest.raises(ValueError):
            reg.validate("z")

    def test_duplicate_registration_rejected(self):
        reg = Registry("widget")
        reg.register("a")(1)
        with pytest.raises(ParameterError, match="already registered"):
            reg.register("a")(2)

    def test_live_registries_contents(self):
        assert set(CONTROLLERS.names()) == {"reconfig", "detour"}
        assert ROUTE_MODES == ("bfs", "table")
        assert {"poisson", "onoff", "deterministic"} <= set(SOURCES.names())
        assert {"uniform", "hotspot", "descend"} <= set(PATTERNS.names())


# ---------------------------------------------------------------------------
# spec validation: registry names fail at construction time
# ---------------------------------------------------------------------------

class TestSpecValidation:
    @pytest.mark.parametrize("field,bad,choices_hint", [
        ("pattern", "rnig", "uniform"),
        ("controller", "psychic", "reconfig"),
        ("route_mode", "teleport", "bfs"),
        ("source", "firehose", "poisson"),
    ])
    def test_unknown_names_raise_early_naming_choices(
        self, field, bad, choices_hint
    ):
        with pytest.raises(ParameterError, match=f"{bad!r}.*{choices_hint}"):
            ExperimentSpec(m=2, h=4, **{field: bad})

    def test_registry_errors_are_valueerrors(self):
        with pytest.raises(ValueError):
            ExperimentSpec(m=2, h=4, pattern="nope")

    def test_loop_kind_validated(self):
        with pytest.raises(ParameterError, match="loop"):
            ExperimentSpec(m=2, h=4, loop="moebius")

    def test_spare_budget_checked(self):
        with pytest.raises(ParameterError, match="spares"):
            ExperimentSpec(m=2, h=4, k=1, fault_model={
                "name": "fixed", "faults": [[0, 1], [0, 2]]})

    @pytest.mark.parametrize("loop", ["closed", "stream"])
    @pytest.mark.parametrize("controller", ["reconfig", "detour"])
    @pytest.mark.parametrize("model,match", [
        # a repair before the node ever fails
        ({"faults": [[5, 2]], "repairs": [[3, 2]]},
         "repairs node 2 at cycle 3, but it is not faulty"),
        # a second repair of a node already back in service
        ({"faults": [[1, 2]], "repairs": [[3, 2], [6, 2]]},
         "repairs node 2 at cycle 6, but it is not faulty"),
        # a fault of a node that is still down
        ({"faults": [[0, 3], [4, 3]]},
         "fails node 3 at cycle 4, but it is already faulty"),
    ], ids=["repair-before-fault", "double-repair", "double-fault"])
    def test_unrunnable_fixed_schedule_refused(self, loop, controller,
                                               model, match):
        with pytest.raises(ParameterError, match=match):
            ExperimentSpec(m=2, h=4, k=2, loop=loop, controller=controller,
                           fault_model={"name": "fixed", **model})

    @pytest.mark.parametrize("loop", ["closed", "stream"])
    @pytest.mark.parametrize("controller", ["reconfig", "detour"])
    def test_fail_repair_fail_schedule_accepted(self, loop, controller):
        # repairs fire before faults within a cycle, so node 2 may heal
        # and fail again on cycle 6; one spare covers it throughout
        spec = ExperimentSpec(
            m=2, h=4, k=1, loop=loop, controller=controller, cycles=40,
            warmup=0, packets=60, batches=2, cycles_per_batch=4,
            fault_model={"name": "fixed", "faults": [[1, 2], [6, 2]],
                         "repairs": [[6, 2]]},
        )
        spec.run()

    def test_closed_loop_constraints(self):
        # idle gaps run on the detour baseline too, engine-independently:
        # the spec's run equals its controller on the witness engine
        spec = ExperimentSpec(
            m=2, h=4, controller="detour", packets=120, batches=3,
            cycles_per_batch=3,
            fault_model={"name": "fixed", "faults": [[2, 5], [9, 11]]},
        )
        a, a_stats = witness_run(spec)
        b = spec.run()
        assert a_stats == b.stats
        assert a.sim.stats() == b.run_stats
        assert (a.lost_to_faults, a.unreachable_pairs) == \
               (b.lost_to_faults, b.unreachable_pairs)
        assert a.unreachable_pairs > 0
        with pytest.raises(ParameterError, match="batches"):
            ExperimentSpec(m=2, h=4, batches=0)

    def test_stream_constraints(self):
        with pytest.raises(ParameterError, match="rate"):
            ExperimentSpec(m=2, h=4, loop="stream", rate=0)
        with pytest.raises(ParameterError, match="warmup"):
            ExperimentSpec(m=2, h=4, loop="stream", warmup=50, cycles=50)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ParameterError, match="nope"):
            ExperimentSpec.from_dict({"m": 2, "h": 4, "nope": 1})

    @pytest.mark.parametrize("loop", ["closed", "stream"])
    def test_route_mode_selects_nothing(self, loop):
        """Both accepted names run the one detour router: identical
        results, while the spec and its label keep the name given."""
        specs = [
            ExperimentSpec(m=2, h=4, loop=loop, controller="detour",
                           route_mode=mode, packets=200, rate=2.0,
                           cycles=100, warmup=10,
                           fault_model={"name": "fixed", "faults": [[0, 3]]})
            for mode in ROUTE_MODES
        ]
        bfs, table = (spec.run() for spec in specs)
        assert bfs.stats == table.stats
        assert bfs.unreachable_pairs == table.unreachable_pairs > 0
        assert specs[0].label != specs[1].label


# ---------------------------------------------------------------------------
# exact JSON round-trip
# ---------------------------------------------------------------------------

class TestJsonRoundTrip:
    def test_default_spec(self):
        spec = ExperimentSpec(m=2, h=5)
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=60, deadline=None)
    @given(
        loop=st.sampled_from(["closed", "stream"]),
        controller=st.sampled_from(["reconfig", "detour"]),
        route_mode=st.sampled_from(["bfs", "table"]),
        source=st.sampled_from(["poisson", "onoff", "deterministic"]),
        pattern=st.sampled_from(["uniform", "hotspot", "descend"]),
        k=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        packets=st.integers(min_value=1, max_value=10**6),
        rate=st.floats(min_value=0.001, max_value=1e4,
                       allow_nan=False, allow_infinity=False),
        n_faults=st.integers(min_value=0, max_value=2),
        link_capacity=st.integers(min_value=1, max_value=4),
    )
    def test_round_trip_property(self, loop, controller, route_mode,
                                 source, pattern, k, seed, packets, rate,
                                 n_faults, link_capacity):
        """spec -> to_json -> from_json is the identity, exactly —
        ints stay ints, floats round-trip bit-for-bit."""
        faults = [[7 * i, 3 + i] for i in range(n_faults)]
        spec = ExperimentSpec(
            m=2, h=5, k=k, loop=loop, pattern=pattern,
            controller=controller, route_mode=route_mode,
            fault_model={"name": "fixed", "faults": faults}, seed=seed,
            link_capacity=link_capacity, packets=packets, source=source,
            rate=rate,
        )
        back = ExperimentSpec.from_json(spec.to_json())
        assert back == spec
        assert back.rate == spec.rate  # float equality, not approx
        # and the dict form is genuinely JSON-typed
        assert json.loads(spec.to_json())["fault_model"]["faults"] == faults

    def test_grid_round_trip(self):
        grid = ExperimentGrid(
            mhk=[(2, 4, 1), (2, 5, 2)], loop="stream",
            rates=[0.5, 2.0], fault_models=_fixed_models([], [[0, 3]]),
            seeds=[0, 1], cycles=300, warmup=50,
        )
        assert ExperimentGrid.from_json(grid.to_json()) == grid

    def test_grid_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ParameterError, match="pattern"):
            ExperimentGrid.from_dict({"mhk": [[2, 4, 1]], "pattern": "x"})


# ---------------------------------------------------------------------------
# grid expansion
# ---------------------------------------------------------------------------

class TestExperimentGrid:
    def test_closed_expansion_order_and_size(self):
        grid = ExperimentGrid(
            mhk=[(2, 4, 1), (2, 5, 1)], patterns=["uniform", "hotspot"],
            loads=[10, 20], fault_models=_fixed_models([], [[0, 1]]),
            seeds=[0, 1, 2],
        )
        cells = grid.expand()
        assert len(cells) == len(grid) == 2 * 2 * 2 * 2 * 3
        assert [c.seed for c in cells[:3]] == [0, 1, 2]
        assert cells[0].h == 4 and cells[-1].h == 5
        assert all(c.loop == "closed" for c in cells)

    def test_stream_grid_sweeps_rates(self):
        grid = ExperimentGrid(
            mhk=[(2, 4, 1)], loop="stream", rates=[1.0, 4.0],
            fault_models=_fixed_models([], [[0, 3]]), cycles=200, warmup=20,
        )
        cells = grid.expand()
        # rates are the third axis: fault sets and seeds vary faster
        assert [c.rate for c in cells] == [1.0, 1.0, 4.0, 4.0]
        assert all(c.loop == "stream" for c in cells)

    def test_stream_grid_requires_rates(self):
        with pytest.raises(ParameterError, match="rate"):
            ExperimentGrid(mhk=[(2, 4, 1)], loop="stream")

    def test_closed_grid_rejects_rates(self):
        with pytest.raises(ParameterError, match="stream"):
            ExperimentGrid(mhk=[(2, 4, 1)], rates=[1.0])

    def test_bad_cell_fails_at_grid_construction(self):
        """Expansion validates every cell up front — a bad name cannot
        survive to a worker process, and neither can an empty grid."""
        with pytest.raises(ParameterError, match="rnig"):
            ExperimentGrid(mhk=[(2, 4, 1)], patterns=["rnig"])
        with pytest.raises(ParameterError, match="at least one"):
            ExperimentGrid(mhk=[])


# ---------------------------------------------------------------------------
# equivalence across execution paths (bit-identical stats)
# ---------------------------------------------------------------------------

class TestLegacyEquivalence:
    def test_find_saturation_rejects_closed_spec(self):
        from repro.simulator.streaming import find_saturation

        with pytest.raises(ParameterError, match="stream"):
            find_saturation(ExperimentSpec(m=2, h=4), [1.0], workers=0)

        class _ConvertsToSpec:
            """Duck-types a spec conversion; the base must be a spec."""

            def to_spec(self):
                return ExperimentSpec(m=2, h=4, loop="stream")

        with pytest.raises(ParameterError, match="stream"):
            find_saturation(_ConvertsToSpec(), [1.0], workers=0)

    def test_saturation_surface_as_one_sharded_sweep(self):
        """The headline: rate x size x faults through run_grid, pooled
        vs inline bit-identical, and each point equal to a direct
        spec.run()."""
        grid = ExperimentGrid(
            mhk=[(2, 4, 1), (2, 5, 1)], loop="stream",
            rates=[1.0, 16.0], fault_models=_fixed_models([], [[0, 5]]),
            cycles=150, warmup=30,
        )
        pooled = run_grid(grid, workers=2)
        inline = run_grid(grid, workers=0)
        assert len(pooled.results) == 8
        for a, b in zip(pooled.results, inline.results):
            assert a.stats == b.stats
        # spot-check one cell against a direct run
        cell = grid.expand()[5]
        assert pooled.results[5].stats == cell.run().stats
        # high-rate cells saturate, low-rate cells do not
        rows = pooled.rows()
        assert any(r["delivery_ratio"] < 0.9 for r in rows)
        assert any(r["delivery_ratio"] > 0.9 for r in rows)

    def test_pooled_batches_match_sequential_drain(self):
        from dataclasses import replace

        from repro.simulator import (
            FaultScenario,
            ReconfigurationController,
            WorkerPool,
        )

        spec = ExperimentSpec(m=2, h=5, k=1, packets=600, batches=4, seed=2)
        # a fixed fault at cycle 0: two four-batch cells on a warm
        # two-worker pool report what one controller reports after
        # draining every batch in sequence, inline
        faulted = replace(spec, fault_model={"name": "fixed",
                                             "faults": [[0, 7]]})
        with WorkerPool(workers=2) as pool:
            pooled = run_grid([spec, faulted], pool=pool).results
            assert pool.spawned == 2
        single = run_grid([spec, faulted], workers=0).results
        assert [r.run_stats for r in pooled] == [r.run_stats for r in single]
        ctrl = ReconfigurationController(2, 5, 1)
        ctrl.schedule(FaultScenario([(0, 7)]))
        inline = ctrl.run_workload(faulted.injection_batches())
        assert ctrl.fault_log == [(0, 7)]
        assert pooled[1].run_stats == inline
        assert pooled[1].lost_to_faults == ctrl.lost_to_faults

    def test_mixed_loop_grid_runs(self):
        closed = ExperimentSpec(m=2, h=4, packets=100)
        stream = ExperimentSpec(m=2, h=4, loop="stream", rate=1.0,
                                cycles=100, warmup=10)
        res = run_grid([closed, stream], workers=0)
        assert res.results[0].run_stats.injected == 100
        assert res.results[1].stats.offered > 0
        # aggregate covers only the closed cell
        assert res.aggregate_stats.injected == 100


# ---------------------------------------------------------------------------
# the `repro run` CLI
# ---------------------------------------------------------------------------

class TestRunCli:
    def _write(self, tmp_path, payload, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_closed_spec(self, capsys, tmp_path):
        spec = self._write(tmp_path, {
            "m": 2, "h": 4, "packets": 120,
            "fault_model": {"name": "fixed", "faults": [[0, 3]]},
        })
        out = tmp_path / "out.json"
        assert main(["run", spec, "--workers", "0", "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "aggregate over 1 closed-loop cell(s)" in text
        payload = json.loads(out.read_text())
        assert payload["kind"] == "experiment"
        assert payload["aggregate"]["injected"] == 120
        assert payload["rows"][0]["scenario"].endswith("fixed-faults")

    def test_stream_spec_with_rates_ladder(self, capsys, tmp_path):
        spec = self._write(tmp_path, {"experiment": {
            "m": 2, "h": 4, "loop": "stream", "cycles": 200, "warmup": 40,
        }})
        out = tmp_path / "sat.json"
        assert main(["run", spec, "--rates", "1,16", "--bisect", "1",
                     "--workers", "0", "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "offered-load ladder" in text and "saturation" in text
        payload = json.loads(out.read_text())
        assert payload["bracketed"] is True
        assert len(payload["points"]) == 3  # 2 rungs + 1 bisection probe

    def test_grid_surface(self, capsys, tmp_path):
        spec = self._write(tmp_path, {"grid": {
            "mhk": [[2, 4, 1]], "loop": "stream", "rates": [1.0, 16.0],
            "fault_models": _fixed_models([], [[0, 5]]), "cycles": 150,
            "warmup": 30,
        }})
        out = tmp_path / "surface.json"
        assert main(["run", spec, "--workers", "0", "--check-single",
                     "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "experiment grid: 4 cells (loop=stream)" in text
        assert "identical stats: True" in text
        payload = json.loads(out.read_text())
        assert payload["kind"] == "grid"
        assert len(payload["rows"]) == 4
        assert {"rate", "delivery_ratio", "scenario"} <= set(payload["rows"][0])

    def test_rates_on_closed_spec_rejected(self, capsys, tmp_path):
        spec = self._write(tmp_path, {"m": 2, "h": 4})
        assert main(["run", spec, "--rates", "1,2"]) == 2
        assert "--rates" in capsys.readouterr().err

    def test_bad_field_name_fails_fast(self, capsys, tmp_path):
        spec = self._write(tmp_path, {"m": 2, "h": 4, "patern": "uniform"})
        assert main(["run", spec]) == 1
        assert "patern" in capsys.readouterr().err

    def test_bad_backend_name_fails_fast(self, capsys, tmp_path):
        spec = self._write(tmp_path, {"m": 2, "h": 4, "controller": "warp"})
        assert main(["run", spec]) == 1
        err = capsys.readouterr().err
        assert "warp" in err and "reconfig" in err

    @pytest.mark.parametrize("wrapper,key,value,hint", [
        ("experiment", "engine", "batch", "batch engine"),
        ("experiment", "faults", [[0, 3]], "fault_model="),
        ("experiment", "shards", 1, "replica blocks"),
        ("grid", "engine", "batch", "batch engine"),
        ("grid", "fault_sets", [[], [[0, 3]]], "fault_models="),
        ("grid", "shards", 1, "replica blocks"),
    ])
    def test_removed_key_refused(self, capsys, tmp_path, wrapper, key,
                                 value, hint):
        """A spec file naming a removed key fails with one ``error:``
        line naming the key and its replacement, even at the value
        the old default had."""
        fields = {"m": 2, "h": 4} if wrapper == "experiment" else {
            "mhk": [[2, 4, 1]]}
        spec = self._write(tmp_path, {wrapper: {**fields, key: value}})
        assert main(["run", spec]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"key {key!r} was removed" in err and hint in err

    def test_wrapper_form_rejects_sibling_keys(self, capsys, tmp_path):
        """Fields misplaced next to the {"grid"/"experiment": ...}
        wrapper must error, not silently fall back to defaults."""
        spec = self._write(tmp_path, {"grid": {"mhk": [[2, 4, 1]]},
                                      "seeds": [0, 1, 2]})
        assert main(["run", spec]) == 1
        assert "seeds" in capsys.readouterr().err

    def test_missing_spec_file_reported(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        assert main(["run", missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {missing}: ")
        assert "Traceback" not in err

    def test_non_json_spec_file_reported(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"m": 2,')
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not JSON")
        assert "Traceback" not in err

    def test_non_numeric_rates_rejected(self, capsys, tmp_path):
        spec = self._write(tmp_path, {"m": 2, "h": 4, "loop": "stream"})
        assert main(["run", spec, "--rates", "1,x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --rates ") and "'1,x'" in err

    def test_registered_pattern_reaches_cli_choices(self, capsys, tmp_path):
        """The documented extension recipe end-to-end: a pattern
        registered after import is accepted by spec validation AND by
        the CLI, which validates names against the live registry."""
        from repro.simulator.traffic import PATTERNS

        if "test-ring" not in PATTERNS:
            @PATTERNS.register("test-ring")
            def _ring(n, msgs, rng):
                ids = np.arange(n, dtype=np.int64)
                base = np.column_stack([ids, (ids + 1) % n])
                reps = -(-msgs // n) if msgs > 0 else 1
                return np.tile(base, (reps, 1))[: msgs or n]

        spec = ExperimentSpec(m=2, h=4, pattern="test-ring", packets=32)
        assert spec.run().run_stats.delivered == 32
        path = self._write(tmp_path, {"m": 2, "h": 4, "pattern": "test-ring",
                                      "packets": 32})
        assert main(["run", path, "--workers", "0"]) == 0
        captured = capsys.readouterr()
        assert "delivered=32/32" in captured.out
        assert captured.err == ""

    def test_sample_spec_file_runs(self, capsys, tmp_path):
        """The checked-in examples/experiment_spec.json (the CI artifact)
        must stay runnable."""
        payload = json.loads((EXAMPLES / "experiment_spec.json").read_text())
        # shrink the horizon so the smoke test stays fast
        payload["grid"]["cycles"] = 120
        payload["grid"]["warmup"] = 20
        payload["grid"]["rates"] = payload["grid"]["rates"][:2]
        spec = self._write(tmp_path, payload)
        assert main(["run", spec, "--workers", "0"]) == 0
        assert "wall clock" in capsys.readouterr().out

    def test_saturation_ladder_file_runs(self, capsys, tmp_path):
        """The checked-in examples/saturation_ladder.json (the CI
        saturation artifact) must stay runnable as a --rates ladder."""
        payload = json.loads(
            (EXAMPLES / "saturation_ladder.json").read_text()
        )
        # shrink the horizon so the smoke test stays fast
        payload["experiment"]["cycles"] = 150
        payload["experiment"]["warmup"] = 30
        spec = self._write(tmp_path, payload)
        out = tmp_path / "saturation.json"
        assert main(["run", spec, "--rates", "2,16", "--bisect", "1",
                     "--workers", "0", "--json", str(out)]) == 0
        assert "offered-load ladder" in capsys.readouterr().out
        result = json.loads(out.read_text())
        assert result["experiment"]["fault_model"]["name"] == "fixed"
        assert [p["rate"] for p in result["points"]][:1] == [2.0]
