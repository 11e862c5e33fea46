"""Deterministic event scheduling for the interconnect simulator.

The simulator core is a synchronous cycle loop; this module supplies the
side-channel schedule of *control events* (fault injections, repairs,
traffic phase changes) as a stable binary-heap queue.  Determinism
matters: two runs with the same seed must be bit-identical so benches are
reproducible, hence the explicit tiebreaker sequence number.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import SimulationError

__all__ = ["Event", "EventQueue"]


@dataclass(frozen=True, order=True)
class Event:
    """A scheduled control event.

    Ordering is ``(cycle, seq)``; ``kind`` and ``payload`` ride along
    un-compared so arbitrary payloads never break heap ordering.
    """

    cycle: int
    seq: int
    kind: str = field(compare=False)
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """Stable priority queue of :class:`Event`.

    >>> q = EventQueue()
    >>> q.schedule(5, "fault", 3)
    >>> q.schedule(2, "fault", 1)
    >>> fired = []
    >>> q.run_handlers(10, {"fault": fired.append})
    2
    >>> [e.cycle for e in fired]
    [2, 5]
    """

    def __init__(self):
        self._heap: list[Event] = []
        self._seq = 0
        self._now = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, cycle: int, kind: str, payload: Any = None) -> None:
        """Add an event; scheduling in the past is a protocol error."""
        if cycle < self._now:
            raise SimulationError(
                f"cannot schedule event at cycle {cycle} < now {self._now}"
            )
        heapq.heappush(self._heap, Event(int(cycle), self._seq, kind, payload))
        self._seq += 1

    def peek_cycle(self) -> int | None:
        """Cycle of the next pending event, or ``None``."""
        return self._heap[0].cycle if self._heap else None

    def run_handlers(self, cycle: int, handlers: dict[str, Callable[[Event], None]]) -> int:
        """Dispatch due events to per-kind handlers; unknown kinds raise.
        Returns the number of events dispatched.

        The handler is resolved *before* the event is popped, so an
        unknown kind leaves the event (and everything behind it) on the
        queue instead of silently losing it mid-drain.
        """
        if cycle < self._now:
            raise SimulationError("run_handlers cycle moved backwards")
        self._now = int(cycle)
        count = 0
        while self._heap and self._heap[0].cycle <= cycle:
            ev = self._heap[0]
            try:
                handler = handlers[ev.kind]
            except KeyError:
                raise SimulationError(
                    f"no handler for event kind {ev.kind!r}"
                ) from None
            heapq.heappop(self._heap)
            handler(ev)
            count += 1
        return count
