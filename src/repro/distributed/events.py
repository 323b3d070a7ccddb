"""A minimal discrete-event core for the loosely-coupled simulator.

Events are ``(time, sequence, action)`` triples in a binary heap; the
sequence number makes execution order deterministic for same-time events.
Time is the shared *global* simulation time; a simulated client reads it
through a skewed clock (:mod:`repro.distributed.simulator`), which is how
the paper's "clocks of different sub-systems are not synchronised" setting
is modelled.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Tuple

from repro.core.timestamps import TimeLike, Timestamp, ts
from repro.errors import SimulationError

__all__ = ["EventQueue"]

#: An event action; receives the global time at which it fires.
Action = Callable[[Timestamp], None]


class EventQueue:
    """A deterministic time-ordered event queue."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Action]] = []
        self._sequence = itertools.count()
        self._now = ts(0)

    @property
    def now(self) -> Timestamp:
        """The time of the most recently executed event."""
        return self._now

    def schedule(self, time: TimeLike, action: Action) -> None:
        """Schedule ``action`` at ``time`` (must not be in the past)."""
        stamp = ts(time)
        if stamp.is_infinite:
            return  # an event at infinity never fires
        if stamp < self._now:
            raise SimulationError(f"cannot schedule in the past: {stamp} < {self._now}")
        heapq.heappush(self._heap, (stamp.value, next(self._sequence), action))

    def schedule_in(self, delay: int, action: Action) -> None:
        """Schedule ``action`` after ``delay`` ticks from now."""
        self.schedule(self._now + delay, action)

    def run_until(self, horizon: TimeLike) -> int:
        """Execute events with ``time <= horizon``; returns the count."""
        stamp = ts(horizon)
        executed = 0
        while self._heap and ts(self._heap[0][0]) <= stamp:
            value, _, action = heapq.heappop(self._heap)
            self._now = ts(value)
            action(self._now)
            executed += 1
        if self._now < stamp and stamp.is_finite:
            self._now = stamp
        return executed

    def __len__(self) -> int:
        return len(self._heap)
