"""The benchmark's layer map still resolves against ``src/``.

``perfbench/layers.py`` traces the simulator by rebinding named
functions and methods (``FRONT`` and ``INNER``) for one pass.  A traced
name that moves or goes makes that pass fail, which only the
``perfbench-smoke`` CI job would notice; this module loads the layer map
by file path, as ``tests/test_reports.py`` loads ``tools/check_bundle.py``,
and installs every probe in-process.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib
import sys

import numpy as np

from repro.simulator import PacketArrays, ShardStats

LAYERS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


layers = _load_layers()
PROBES = layers.FRONT + layers.INNER


def _owner(module: str, path: str):
    """``(object, attribute)`` a probe names: the defining class for
    ``Class.method``, else the module."""
    mod = importlib.import_module(module)
    if "." in path:
        cls_name, attr = path.split(".")
        return getattr(mod, cls_name), attr
    return mod, path


def _bindings() -> dict:
    """Every binding a probe may rebind: each probed class's own
    attributes and the globals of every loaded ``repro`` module."""
    out = {}
    for _, module, path, _ in PROBES:
        owner, _ = _owner(module, path)
        if isinstance(owner, type):
            out.update({(owner, a): v for a, v in vars(owner).items()})
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "repro" or name.startswith("repro.")):
            out.update({(mod, a): v for a, v in vars(mod).items()})
    return out


def test_every_probe_installs_and_restores():
    targets = [_owner(module, path) for _, module, path, _ in PROBES]
    before = _bindings()
    tracer = layers.Tracer()
    with layers.Instrumentation(tracer, PROBES):
        during = _bindings()
        # a traced reduction runs through the wrapper at its traced name
        rec = PacketArrays(
            injected_at=np.array([0, 1], dtype=np.int64),
            delivered_at=np.array([3, -1], dtype=np.int64),
            hops=np.array([2, 1], dtype=np.int64),
            dropped=np.array([False, False]),
        )
        ShardStats.from_arrays(rec, 7)
    after = _bindings()
    for owner, attr in targets:
        assert during[owner, attr] is not before[owner, attr], (owner, attr)
    moved = [key for key, value in before.items() if after.get(key) is not value]
    assert not moved, f"bindings not restored: {moved}"
    assert tracer.calls["stats.reduce"] == 1
    assert tracer.counts["engine.cycles"] == 7
