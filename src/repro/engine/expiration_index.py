"""The expiration index: a priority queue over tuple expiration times.

The paper relies on "efficient ways to support expiration times with
real-time performance guarantees" (its reference [24], the companion
technical report).  This module provides that substrate: a binary-heap
index mapping expiration times to rows, with

* ``O(log n)`` insertion,
* ``O(log n)`` amortised extraction of due tuples (lazy tombstones make
  explicit deletion ``O(1)`` at the cost of heap residue that is reclaimed
  on extraction),
* ``O(1)`` access to the earliest pending expiration -- which is what gives
  a trigger scheduler its real-time bound: the engine always knows the
  exact next moment anything expires.

Rows with expiration ``∞`` are never indexed (they cannot expire).

The index also embodies the Section 3.2 choice between **eager** and
**lazy** removal: an eager table drains :meth:`pop_due` on every clock
advance (prompt triggers, tight space); a lazy table leaves expired tuples
physically present but invisible and reclaims them in batches.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.timestamps import RAW_INFINITY, TimeLike, Timestamp, ts
from repro.core.tuples import Row

__all__ = ["RemovalPolicy", "ExpirationIndex"]


class RemovalPolicy(enum.Enum):
    """Section 3.2: when expired tuples are physically removed."""

    #: Remove (and fire triggers) as soon as the clock passes ``texp``.
    EAGER = "eager"

    #: Keep expired tuples invisible; reclaim in batches / on demand.
    LAZY = "lazy"


class ExpirationIndex:
    """A heap of ``(expiration, row)`` entries with lazy invalidation.

    Re-inserting a row replaces its scheduled expiration (the old heap
    entry becomes a tombstone); :meth:`remove` tombstones without touching
    the heap.  ``len(index)`` counts *live* entries.

    Internally both the heap and the live table hold raw integer tick
    values (infinite expirations are never indexed), so the hot inspection
    loops compare plain ints; :class:`Timestamp` objects are materialised
    only at the API boundary.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Row]] = []
        self._live: Dict[Row, int] = {}
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, row: Row) -> bool:
        """Whether ``row`` has a live (not yet popped or removed) entry."""
        return row in self._live

    @property
    def heap_size(self) -> int:
        """Physical heap entries including tombstones (space metric)."""
        return len(self._heap)

    def schedule(self, row: Row, expires_at: TimeLike) -> None:
        """Index ``row`` to expire at ``expires_at`` (``∞`` = never)."""
        stamp = ts(expires_at)
        if stamp.is_infinite:
            # Never expires; make sure any earlier finite schedule is void.
            self._live.pop(row, None)
            return
        self._live[row] = stamp.value
        heapq.heappush(self._heap, (stamp.value, next(self._counter), row))

    def bulk_schedule(self, entries: Iterable[Tuple[Row, TimeLike]]) -> None:
        """Index many rows at once, with the cheapest heap repair that fits.

        The trusted bulk-load fast path for snapshot restore and WAL
        replay.  Semantically one :meth:`schedule` per entry (later entries
        for the same row supersede earlier ones; superseded and removed
        heap residue is reclaimed lazily as usual).  An expiration is a raw
        tick (``RAW_INFINITY`` = never; what the log and the snapshot hold,
        so no :class:`Timestamp` is made per entry), a :class:`Timestamp`,
        or ``None`` for never.

        Entries arriving in expiration order into an empty index -- a
        snapshot's segments -- are a valid min-heap as they stand.  A batch
        that is small beside the heap (one replay flush into a loaded
        table) is pushed, ``O(k log n)``; anything else is appended and
        heapified once, ``O(n + k)``.
        """
        heap = self._heap
        live = self._live
        counter = self._counter
        fresh: List[Tuple[int, int, Row]] = []
        ordered = True
        last = 0
        for row, tick in entries:
            if type(tick) is not int and tick is not None:
                tick = tick._value
            if tick is None or tick == RAW_INFINITY:
                live.pop(row, None)
                continue
            live[row] = tick
            fresh.append((tick, next(counter), row))
            if tick < last:
                ordered = False
            last = tick
        if not heap and ordered:
            heap.extend(fresh)
        elif len(fresh) * len(heap).bit_length() < len(heap):
            for entry in fresh:
                heapq.heappush(heap, entry)
        else:
            heap.extend(fresh)
            heapq.heapify(heap)

    def remove(self, row: Row) -> None:
        """Forget ``row`` (explicit delete); O(1) via tombstoning."""
        self._live.pop(row, None)

    def next_expiration(self) -> Optional[Timestamp]:
        """The earliest pending expiration, or ``None`` if nothing expires.

        This is the real-time guarantee hook: a scheduler sleeping until
        this moment never misses an expiration event.
        """
        live = self._live
        heap = self._heap
        while heap:
            value, _, row = heap[0]
            if live.get(row) == value:
                return ts(value)
            heapq.heappop(heap)  # tombstone
        return None

    def pop_due(self, now: TimeLike) -> List[Tuple[Row, Timestamp]]:
        """Extract every live entry with ``expiration <= now``, in order."""
        stamp = ts(now)
        limit = stamp.value if stamp.is_finite else None
        return [(row, ts(value)) for row, value in self.pop_due_raw(limit)]

    def pop_due_raw(self, limit: Optional[int]) -> List[Tuple[Row, int]]:
        """:meth:`pop_due` on raw integer ticks (``None`` = no bound).

        The bulk-sweep fast path: no :class:`Timestamp` is materialised per
        entry, so partition sweep kernels compare and carry plain ints.
        """
        live = self._live
        heap = self._heap
        due: List[Tuple[Row, int]] = []
        while heap:
            value, _, row = heap[0]
            if live.get(row) != value:
                heapq.heappop(heap)  # tombstone
                continue
            if limit is not None and value > limit:
                break
            heapq.heappop(heap)
            del live[row]
            due.append((row, value))
        return due

    def pending(self) -> Iterator[Tuple[Row, Timestamp]]:
        """Iterate over live ``(row, expiration)`` entries (unordered)."""
        return ((row, ts(value)) for row, value in self.pending_raw())

    def pending_raw(self) -> Iterator[Tuple[Row, int]]:
        """:meth:`pending` on raw integer ticks."""
        return iter(self._live.items())

    def clear(self) -> None:
        """Drop every entry (live and tombstoned)."""
        self._heap.clear()
        self._live.clear()
