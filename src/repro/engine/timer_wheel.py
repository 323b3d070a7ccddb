"""A timer-wheel expiration index (the [24] real-time alternative).

The companion technical report the paper leans on ("there exist efficient
ways to support expiration times with real-time performance guarantees")
describes index structures specialised for expiration processing.  The
classic such structure is the *timer wheel*: a circular array of buckets,
one per time slot, giving **O(1)** scheduling and per-tick expiry -- a
stronger bound than the heap's O(log n) -- at the cost of slot-granular
cascading for times beyond the wheel's horizon.

:class:`TimerWheelIndex` is interface-compatible with
:class:`~repro.engine.expiration_index.ExpirationIndex`, including the
raw-integer bulk path :meth:`pop_due_raw` that the partitioned sweep
kernels in :mod:`repro.engine.partitioning` drain:

* near-future expirations (within ``wheel_size`` ticks of the processed
  cursor) go into their slot -- O(1);
* far-future expirations wait in an overflow min-heap and *cascade* into
  the wheel as the cursor approaches them;
* re-scheduling and removal are O(1) via the live-map check at pop time
  (same tombstone idea as the heap index);
* :meth:`next_expiration` sits on the trigger-scheduler hot path, so the
  minimum pending tick is cached: O(1) between mutations, recomputed
  lazily only after a pop or a removal that may have dropped the minimum.

``bench_expiration_index.py`` compares the two under churn; the engine
accepts either -- pass ``index_factory=TimerWheelIndex`` to
:meth:`~repro.engine.database.Database.create_table` (``Table`` only uses
the shared interface).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.timestamps import TimeLike, Timestamp, ts
from repro.core.tuples import Row
from repro.errors import EngineError

__all__ = ["TimerWheelIndex"]


class TimerWheelIndex:
    """A single-level timer wheel with a heap-backed overflow.

    Internally the live map and slots hold raw integer tick values (like
    the heap index), so bulk sweeps and the cached-minimum maintenance
    compare plain ints; :class:`Timestamp` objects are materialised only
    at the API boundary.
    """

    def __init__(self, wheel_size: int = 256) -> None:
        if wheel_size < 2:
            raise EngineError(f"wheel size must be at least 2, got {wheel_size}")
        self._size = wheel_size
        self._slots: List[Dict[Row, int]] = [dict() for _ in range(wheel_size)]
        self._live: Dict[Row, int] = {}
        #: Expirations at or below this tick have been popped already.
        self._cursor = 0
        self._overflow: List[Tuple[int, int, Row]] = []
        self._counter = itertools.count()
        # Cached minimum live tick.  ``_min_dirty`` marks it unknown (the
        # entry that held the minimum was removed or popped); recomputation
        # is deferred to the next next_expiration() call so removal stays
        # O(1).
        self._min_value: Optional[int] = None
        self._min_dirty = False

    def __len__(self) -> int:
        return len(self._live)

    @property
    def heap_size(self) -> int:
        """Physical entries (wheel + overflow), including tombstones."""
        return sum(len(slot) for slot in self._slots) + len(self._overflow)

    # -- scheduling ---------------------------------------------------------

    def schedule(self, row: Row, expires_at: TimeLike) -> None:
        """Index ``row`` to expire at ``expires_at`` (``∞`` = never)."""
        stamp = ts(expires_at)
        old = self._live.pop(row, None)
        if stamp.is_infinite:
            if old is not None and not self._min_dirty and old == self._min_value:
                self._min_dirty = True
            return
        tick = stamp.value
        self._live[row] = tick
        if not self._min_dirty:
            if old is not None and old == self._min_value and tick > old:
                # The rescheduled row may have been the sole minimum.
                self._min_dirty = True
            elif self._min_value is None or tick < self._min_value:
                self._min_value = tick
        if tick <= self._cursor:
            # Already due; park it in the current slot so the next pop
            # picks it up.
            self._slots[self._cursor % self._size][row] = tick
        elif tick < self._cursor + self._size:
            self._slots[tick % self._size][row] = tick
        else:
            heapq.heappush(self._overflow, (tick, next(self._counter), row))

    def remove(self, row: Row) -> None:
        """Forget ``row``; O(1) by tombstoning through the live map."""
        old = self._live.pop(row, None)
        if old is not None and not self._min_dirty and old == self._min_value:
            self._min_dirty = True

    # -- queries -----------------------------------------------------------------

    def next_expiration(self) -> Optional[Timestamp]:
        """The earliest pending expiration, or ``None`` (O(1) when cached)."""
        if self._min_dirty:
            self._min_value = self._recompute_min()
            self._min_dirty = False
        return None if self._min_value is None else ts(self._min_value)

    def _recompute_min(self) -> Optional[int]:
        if not self._live:
            return None
        live = self._live
        best: Optional[int] = None
        for slot in self._slots:
            for row, tick in slot.items():
                if live.get(row) == tick and (best is None or tick < best):
                    best = tick
        while self._overflow:
            tick, _, row = self._overflow[0]
            if live.get(row) == tick:
                if best is None or tick < best:
                    best = tick
                break
            heapq.heappop(self._overflow)
        return best

    def pending(self) -> Iterator[Tuple[Row, Timestamp]]:
        """Live ``(row, expiration)`` entries (unordered)."""
        return ((row, ts(tick)) for row, tick in self.pending_raw())

    def pending_raw(self) -> Iterator[Tuple[Row, int]]:
        """:meth:`pending` on raw integer ticks."""
        return iter(self._live.items())

    # -- expiry processing ------------------------------------------------------------

    def pop_due(self, now: TimeLike) -> List[Tuple[Row, Timestamp]]:
        """Extract every live entry with ``expiration <= now``, in order."""
        stamp = ts(now)
        limit = stamp.value if stamp.is_finite else None
        return [(row, ts(tick)) for row, tick in self.pop_due_raw(limit)]

    def pop_due_raw(self, limit: Optional[int]) -> List[Tuple[Row, int]]:
        """:meth:`pop_due` on raw integer ticks (``None`` = no bound).

        The bulk-sweep fast path shared with the heap index: partition
        sweep kernels compare and carry plain ints, with no
        :class:`Timestamp` materialised per entry.
        """
        live = self._live
        if limit is None:
            # Unbounded: everything is due; drop all structure at once.
            due = sorted(live.items(), key=lambda item: item[1])
            live.clear()
            for slot in self._slots:
                slot.clear()
            self._overflow.clear()
            self._min_value = None
            self._min_dirty = False
            return due
        due: List[Tuple[Row, int]] = []
        # 1. Overflow entries that came due go straight out (never back
        #    into slots the cursor has already passed).
        while self._overflow and self._overflow[0][0] <= limit:
            tick, _, row = heapq.heappop(self._overflow)
            if live.get(row) == tick:
                del live[row]
                due.append((row, tick))
        # 2. Walk the slot window; at most one full revolution is ever
        #    needed since a slot holds at most one tick of the window.
        first = self._cursor
        if limit >= first:
            slots_to_visit = (
                range(first, first + self._size)
                if limit - first >= self._size
                else range(first, limit + 1)
            )
            for position in slots_to_visit:
                slot = self._slots[position % self._size]
                if not slot:
                    continue
                ready = [
                    (row, tick) for row, tick in slot.items() if tick <= limit
                ]
                for row, tick in ready:
                    del slot[row]
                    if live.get(row) == tick:
                        del live[row]
                        due.append((row, tick))
        # 3. Advance, then pull not-yet-due overflow into the fresh window.
        self._cursor = max(self._cursor, limit)
        self._cascade()
        due.sort(key=lambda item: item[1])
        if due:
            if live:
                self._min_dirty = True
            else:
                self._min_value = None
                self._min_dirty = False
        return due

    def _cascade(self) -> None:
        """Move overflow entries that now fit the wheel into their slots."""
        horizon = self._cursor + self._size
        while self._overflow and self._overflow[0][0] < horizon:
            tick, _, row = heapq.heappop(self._overflow)
            if self._live.get(row) == tick:
                self._slots[tick % self._size][row] = tick

    def clear(self) -> None:
        """Drop every entry (slots, overflow, live map)."""
        for slot in self._slots:
            slot.clear()
        self._overflow.clear()
        self._live.clear()
        self._min_value = None
        self._min_dirty = False
