"""The ``ENGINES`` registry: simulation-engine factories by name.

Every engine shares the injection/step/stats contract the controllers
drive (see :mod:`repro.simulator` for the pair's semantics); this module
is where a *name* becomes an instance.  The fault controllers, the
experiment runner and the CLI all resolve ``engine="..."`` strings here,
so adding an engine is one decorated factory — no dispatch chain to
edit, and an unknown name raises a :class:`~repro.errors.ParameterError`
naming the valid choices at lookup (or spec-validation) time instead of
a ``KeyError`` inside a worker process.

A factory's signature is ``(graph, link_capacity) -> engine``.  Both
engines run in-process; parallelism lives one level up, in
:func:`~repro.simulator.shard_driver.run_grid`.
"""

from __future__ import annotations

from repro.registry import Registry

__all__ = ["ENGINES", "make_engine"]

ENGINES = Registry("engine")


@ENGINES.register("object")
def _object_engine(graph, link_capacity: int):
    """Reference engine: one Python object per packet."""
    from repro.simulator.network import NetworkSimulator

    return NetworkSimulator(graph, link_capacity)


@ENGINES.register("batch")
def _batch_engine(graph, link_capacity: int):
    """Vectorized structure-of-arrays engine — use for heavy traffic."""
    from repro.simulator.batch_engine import BatchEngine

    return BatchEngine(graph, link_capacity)


def make_engine(name: str, graph, link_capacity: int = 1):
    """Build the engine registered under ``name``.

    Raises :class:`~repro.errors.ParameterError` (a ``ValueError``)
    naming the valid choices when ``name`` is unknown.
    """
    return ENGINES.get(name)(graph, link_capacity)
