"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestBuild:
    def test_debruijn(self, capsys):
        assert main(["build", "debruijn", "--m", "2", "--h", "4"]) == 0
        out = capsys.readouterr().out
        assert "16 nodes" in out

    def test_ft(self, capsys):
        assert main(["build", "ft", "--m", "2", "--h", "4", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "17 nodes" in out and "degree bound 8" in out

    def test_se(self, capsys):
        assert main(["build", "se", "--h", "5"]) == 0
        assert "32 nodes" in capsys.readouterr().out

    def test_natural_ft_se(self, capsys):
        assert main(["build", "natural-ft-se", "--h", "4", "--k", "2"]) == 0
        assert "18 nodes" in capsys.readouterr().out

    def test_sp(self, capsys):
        assert main(["build", "sp", "--m", "2", "--h", "3", "--k", "1"]) == 0
        assert "64 nodes" in capsys.readouterr().out

    def test_bus(self, capsys):
        assert main(["build", "bus", "--h", "3", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "9 buses" in out and "2k+3 = 5" in out

    def test_invalid_params_exit_code(self, capsys):
        assert main(["build", "ft", "--h", "1"]) == 1
        assert "error" in capsys.readouterr().err


class TestVerify:
    def test_exhaustive_debruijn(self, capsys):
        assert main(["verify", "--m", "2", "--h", "3", "--k", "1"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_sampled(self, capsys):
        assert main(["verify", "--h", "5", "--k", "2", "--samples", "20"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_se_target(self, capsys):
        assert main(["verify", "--h", "3", "--k", "1", "--target", "se"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_se_requires_base2(self, capsys):
        assert main(["verify", "--m", "3", "--h", "3", "--target", "se"]) == 2


class TestRoute:
    def test_route_no_faults(self, capsys):
        assert main(["route", "0", "13", "--h", "4", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert "logical" in out and "physical" in out

    def test_route_with_fault(self, capsys):
        assert main(["route", "0", "13", "--h", "4", "--k", "2",
                     "--fault", "5", "--fault", "9"]) == 0
        out = capsys.readouterr().out
        assert "[5, 9]" in out


def _write_json(tmp_path, payload, name="spec.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _refused(capsys) -> str:
    """The one-line refusal ``repro run`` prints for a malformed input:
    an ``error:`` line on stderr and no traceback."""
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    return err


SWEEP_GRID = {"grid": {
    "mhk": [[2, 4, 1], [2, 5, 1]], "loop": "closed",
    "patterns": ["uniform"], "loads": [150],
    "fault_models": [{"name": "fixed", "faults": []},
                     {"name": "fixed", "faults": [[0, 3]]}],
    "seeds": [0, 1],
}}


class TestSweep:
    """Closed-loop grid sweeps through ``repro run``."""

    def test_sweep_inline_with_check(self, capsys, tmp_path):
        spec = _write_json(tmp_path, SWEEP_GRID)
        out = tmp_path / "sweep.json"
        assert main(["run", spec, "--workers", "0", "--check-single",
                     "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "experiment grid: 8 cells (loop=closed)" in text
        assert "identical stats: True" in text
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 8
        assert payload["aggregate"]["injected"] == 8 * 150
        # published curves must record what produced them
        assert payload["grid"]["fault_models"] == \
            SWEEP_GRID["grid"]["fault_models"]
        assert payload["workers"] == 0
        assert all(r["controller"] == "reconfig" for r in payload["rows"])

    def test_sweep_multiprocess(self, capsys, tmp_path):
        spec = _write_json(tmp_path, SWEEP_GRID)
        assert main(["run", spec, "--workers", "2"]) == 0
        text = capsys.readouterr().out
        assert "aggregate over 8 closed-loop cell(s)" in text
        assert "on 2 worker(s)" in text

    def test_sweep_bad_mhk(self, capsys, tmp_path):
        spec = _write_json(tmp_path, {"grid": {"mhk": ["nope"]}})
        assert main(["run", spec]) == 1
        assert f"{spec}: malformed field value" in _refused(capsys)

    def test_sweep_bad_fault_set(self, capsys, tmp_path):
        spec = _write_json(tmp_path, {"m": 2, "h": 4, "fault_model": {
            "name": "fixed", "faults": [[0]]}})
        assert main(["run", spec]) == 1
        assert "faults must be a list of [cycle, node] pairs" in \
            _refused(capsys)


class TestSaturate:
    """Open-loop rate ladders through ``repro run --rates``."""

    def test_curve_and_saturation_point(self, capsys, tmp_path):
        fault_free = {"m": 2, "h": 4, "k": 1, "loop": "stream",
                      "cycles": 300, "warmup": 60}
        faulted = dict(fault_free,
                       fault_model={"name": "fixed", "faults": [[0, 5]]})
        for name, experiment in (("free", fault_free), ("fault", faulted)):
            spec = _write_json(tmp_path, {"experiment": experiment},
                               f"{name}.json")
            out = tmp_path / f"{name}-sat.json"
            assert main(["run", spec, "--rates", "1,4,16", "--bisect", "2",
                         "--workers", "0", "--json", str(out)]) == 0
            assert "saturation ~" in capsys.readouterr().out
            payload = json.loads(out.read_text())
            assert payload["experiment"]["controller"] == "reconfig"
            assert payload["workers"] == 0
            assert payload["bracketed"]
            rates = [p["rate"] for p in payload["points"]]
            assert rates == sorted(rates) and len(rates) >= 5
        assert payload["experiment"]["fault_model"]["faults"] == [[0, 5]]

    def test_detour_controller(self, capsys, tmp_path):
        spec = _write_json(tmp_path, {"experiment": {
            "m": 2, "h": 4, "k": 1, "loop": "stream", "cycles": 200,
            "warmup": 40, "controller": "detour",
            "fault_model": {"name": "fixed", "faults": [[0, 5]]},
        }})
        assert main(["run", spec, "--rates", "0.5", "--bisect", "0",
                     "--workers", "0"]) == 0
        assert "unadmitted" in capsys.readouterr().out

    LADDER = {"experiment": {"m": 2, "h": 4, "k": 1, "loop": "stream",
                             "cycles": 200, "warmup": 40}}

    def test_check_single_reruns_the_ladder(self, capsys, tmp_path):
        spec = _write_json(tmp_path, self.LADDER)
        assert main(["run", spec, "--rates", "1,16", "--bisect", "1",
                     "--workers", "2", "--check-single"]) == 0
        assert ("single-process reference: identical stats: True"
                in capsys.readouterr().out)

    def test_check_single_mismatch_exits_nonzero(self, capsys, tmp_path,
                                                 monkeypatch):
        import repro.simulator.streaming as streaming

        real = streaming.find_saturation

        def skewed(base, rates, **kwargs):
            # the inline reference runs another ladder: its stats differ
            if kwargs.get("workers") == 0:
                rates = [r + 0.5 for r in rates]
            return real(base, rates, **kwargs)

        monkeypatch.setattr(streaming, "find_saturation", skewed)
        spec = _write_json(tmp_path, self.LADDER)
        assert main(["run", spec, "--rates", "1,16", "--bisect", "1",
                     "--workers", "0", "--check-single"]) == 1
        assert "identical stats: False" in capsys.readouterr().out

    def test_bad_mhk(self, capsys, tmp_path):
        spec = _write_json(tmp_path, {"m": "two", "h": 4})
        assert main(["run", spec, "--rates", "1,4"]) == 1
        assert f"{spec}: malformed field value" in _refused(capsys)


class TestMisc:
    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "fails" in out and "OK" in out

    def test_report_single(self, capsys):
        assert main(["report", "paper-tables", "--quick", "--workers", "0"]) == 0
        assert "Fixed-fault tables" in capsys.readouterr().out

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])
