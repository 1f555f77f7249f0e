"""Event queue primitives for the discrete-event cluster simulator.

The simulator tracks a small number of event kinds (job completions arriving
back at the master); a binary-heap priority queue ordered by virtual time
keeps the master's ``collect`` operation ``O(log n)`` even with hundreds of
in-flight jobs.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SimulationError

__all__ = ["Event", "EventQueue"]


@dataclass(order=True)
class Event:
    """A timestamped event.

    Events compare by ``(time, sequence)`` so that simultaneous events are
    delivered in insertion order (deterministic simulations).
    """

    time: float
    sequence: int
    kind: str = field(compare=False)
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """A priority queue of :class:`Event` ordered by virtual time."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def push(self, time: float, kind: str, payload: Any = None) -> Event:
        """Schedule an event at virtual ``time``."""
        if time < 0:
            raise SimulationError(f"cannot schedule an event at negative time {time}")
        event = Event(time=time, sequence=next(self._counter), kind=kind, payload=payload)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("event queue is empty")
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
