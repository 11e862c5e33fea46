"""Every test function outside ``src/`` is one that something runs.

Tier-1 (``python -m pytest``) collects the ``tests/**/test_*.py``
modules, and CI's ``perfbench-smoke`` job runs ``perfbench/smoke.py``.
A ``test_`` function in any other file is a check that nothing runs.
"""

from __future__ import annotations

import ast
import os
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Test files outside ``tests/`` that a CI job runs.
RUN_BY_CI = {"perfbench/smoke.py"}


def _defines_test(path: pathlib.Path) -> bool:
    tree = ast.parse(path.read_text(), filename=str(path))
    return any(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("test_")
        for node in ast.walk(tree)
    )


def _is_run(rel: pathlib.PurePath) -> bool:
    if rel.parts[0] == "tests":
        return rel.name.startswith("test_")
    return rel.as_posix() in RUN_BY_CI


def _stray_test_files(root: pathlib.Path) -> list[str]:
    """Files under ``root`` (``src/`` and dot/dunder directories
    skipped) that define a ``test_`` function nothing runs."""
    stray = []
    for dirpath, dirnames, filenames in os.walk(root):
        top = pathlib.Path(dirpath) == root
        dirnames[:] = [
            d for d in dirnames
            if not d.startswith((".", "__")) and not (top and d == "src")
        ]
        for name in filenames:
            path = pathlib.Path(dirpath, name)
            rel = path.relative_to(root)
            if name.endswith(".py") and not _is_run(rel) and _defines_test(path):
                stray.append(rel.as_posix())
    return sorted(stray)


def test_every_test_function_is_collected():
    stray = _stray_test_files(ROOT)
    assert not stray, f"test functions nothing runs: {stray}"


def test_guard_names_planted_strays(tmp_path):
    files = {
        "scripts/bench_speed.py": "def test_speed():\n    pass\n",
        "tools/helper.py": "class T:\n    def test_method(self):\n        pass\n",
        "tests/helpers.py": "def test_unprefixed_module():\n    pass\n",
        "tests/test_ok.py": "def test_ok():\n    pass\n",
        "tests/sub/test_nested.py": "def test_nested():\n    pass\n",
        "perfbench/smoke.py": "def test_smoke():\n    pass\n",
        "perfbench/run.py": "def main():\n    pass\n",
        "src/pkg/mod.py": "def test_inside_src():\n    pass\n",
        ".venv/lib/mod.py": "def test_vendored():\n    pass\n",
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert _stray_test_files(tmp_path) == [
        "scripts/bench_speed.py",
        "tests/helpers.py",
        "tools/helper.py",
    ]


def test_ci_runs_every_listed_file():
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    for rel in sorted(RUN_BY_CI):
        assert (ROOT / rel).is_file(), rel
        assert f"python -m pytest {rel}" in workflow, rel
