"""Named-backend registries: register by decorator, validate early.

The simulation stack selects its backends by short strings — traffic
``pattern``, streaming ``source``, simulation ``engine``, fault
``controller``, fault universe ``fault_model``.  Before this module, each
string was dispatched by a hand-written ``if``-chain in a different
file, and an unknown name surfaced wherever the chain happened to live —
sometimes as a bare ``KeyError`` deep inside a worker process, long
after the spec that carried the typo was accepted.

A :class:`Registry` replaces each chain with one lookup table:

* **register by decorator** — ``@ENGINES.register("batch")`` above the
  factory; the table states its own contents, and a new backend is one
  decorated function anywhere, not an edit to a dispatch chain;
* **validate early** — :meth:`Registry.validate` is cheap enough to call
  at *spec construction* time, so a bad name raises in the process that
  typed it, naming the bad value and every valid choice;
* **clear errors** — lookups raise :class:`~repro.errors.ParameterError`
  (a ``ValueError`` subclass), never ``KeyError``.

The concrete registries live next to what they register (layering: this
module depends only on :mod:`repro.errors`):

===================  =========================================  ==================
registry             registers                                  defined in
===================  =========================================  ==================
``PATTERNS``         traffic-pattern builders                   ``repro.simulator.traffic``
``SOURCES``          streaming-source factories                 ``repro.simulator.sources``
``ENGINES``          simulation-engine factories                ``repro.simulator.engines``
``CONTROLLERS``      fault-controller builders                  ``repro.simulator.faults``
``FAULT_MODELS``     fault-universe generators                  ``repro.simulator.faults``
===================  =========================================  ==================

:mod:`repro.experiments` re-exports all five and validates every
:class:`~repro.experiments.ExperimentSpec` field against them.
"""

from __future__ import annotations

from typing import Callable, Iterator, TypeVar

from repro.errors import ParameterError

__all__ = ["Registry"]

T = TypeVar("T")


class Registry:
    """An ordered name -> backend table with decorator registration.

    Parameters
    ----------
    kind:
        Human-readable noun for error messages (``"engine"``,
        ``"traffic pattern"`` ...).

    Insertion order is preserved — :meth:`names` is the canonical
    choice tuple shown in error messages, CLI ``choices=`` lists and
    docs, so registration order is the documented order.

    >>> GREETINGS = Registry("greeting")
    >>> @GREETINGS.register("hello")
    ... def _hello():
    ...     return "hi"
    >>> GREETINGS.get("hello")()
    'hi'
    >>> GREETINGS.get("goodbye")
    Traceback (most recent call last):
        ...
    repro.errors.ParameterError: unknown greeting 'goodbye'; valid choices: hello
    """

    def __init__(self, kind: str):
        self.kind = str(kind)
        self._items: dict[str, object] = {}

    def register(self, name: str) -> Callable[[T], T]:
        """Decorator: bind ``name`` to the decorated object.

        Duplicate names raise — two backends silently shadowing each
        other is exactly the bug class registries exist to remove.
        """
        name = str(name)

        def deco(obj: T) -> T:
            if name in self._items:
                raise ParameterError(
                    f"{self.kind} {name!r} is already registered"
                )
            self._items[name] = obj
            return obj

        return deco

    def names(self) -> tuple[str, ...]:
        """Every registered name, in registration order."""
        return tuple(self._items)

    def validate(self, name: str) -> str:
        """Return ``name`` unchanged if registered; otherwise raise a
        :class:`~repro.errors.ParameterError` (a ``ValueError``) naming
        the bad value and every valid choice.  Call this at spec
        construction so typos never reach a worker process."""
        if name not in self._items:
            raise ParameterError(
                f"unknown {self.kind} {name!r}; valid choices: "
                f"{', '.join(self._items) or '(none registered)'}"
            )
        return name

    def get(self, name: str):
        """The backend registered under ``name`` (validates first)."""
        self.validate(name)
        return self._items[name]

    def __contains__(self, name: object) -> bool:
        return name in self._items

    def __iter__(self) -> Iterator[str]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.kind!r}, names={list(self._items)})"
