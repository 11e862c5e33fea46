"""Packaging smoke tests: every module imports, every CLI entry answers.

Catches import-time regressions (circular imports, missing deps, syntax
errors in rarely-exercised modules) and argparse wiring breaks early —
cheap insurance the CI matrix runs on every Python version.
"""

from __future__ import annotations

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main

SRC_ROOT = pathlib.Path(repro.__file__).resolve().parent

ALL_MODULES = sorted(
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    # importing __main__ would *run* the CLI (and exit); everything else
    # must import clean
    if not name.endswith("__main__")
)


@pytest.mark.parametrize("module", ALL_MODULES)
def test_module_imports(module):
    importlib.import_module(module)


def test_reports_import_loads_no_analysis_layer():
    """``import repro.reports`` (what the benchmark's bundle workload
    loads) must not pull in the analysis, algorithm or rendering layers:
    an unused import moves every pool worker's heap and its peak RSS.
    The ``paper-figures`` report imports them inside its aggregate."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_ROOT.parent), env.get("PYTHONPATH")])
    )
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.reports; print(*sorted(sys.modules))"],
        capture_output=True, text=True, check=True, env=env,
    ).stdout.split()
    assert "repro.reports.definitions" in loaded
    heavy = [
        name for name in loaded
        if name.split(".")[:2] in (["repro", "analysis"],
                                   ["repro", "algorithms"],
                                   ["repro", "viz"])
    ]
    assert heavy == []


def test_module_walk_found_the_tree():
    """The walk really covers the package (guards against an empty
    parametrization silently passing)."""
    assert "repro.simulator.shard_driver" in ALL_MODULES
    assert "repro.routing.tables" in ALL_MODULES
    assert len(ALL_MODULES) >= 40


def _subcommands() -> list[str]:
    parser = build_parser()
    actions = [
        a for a in parser._actions  # noqa: SLF001 - argparse has no public API
        if a.__class__.__name__ == "_SubParsersAction"
    ]
    assert actions, "CLI has no subcommands?"
    return sorted(actions[0].choices)


def test_expected_subcommands_present(capsys):
    subs = _subcommands()
    for cmd in ("build", "verify", "report", "route", "demo",
                "bench-engines", "run", "serve"):
        assert cmd in subs
    # `run` is the one front door: the flag-driven commands are gone
    for cmd in ("sweep", "saturate"):
        assert cmd not in subs
        with pytest.raises(SystemExit) as exc:
            main([cmd])
        assert exc.value.code == 2
        assert f"invalid choice: '{cmd}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", _subcommands())
def test_cli_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert command in capsys.readouterr().out or command == "demo"


def test_top_level_help(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "serve" in capsys.readouterr().out
