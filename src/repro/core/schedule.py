"""One expiration schedule: keys on ticks, handed back as they come due.

The paper leans on priority queues twice: the engine's "efficient ways to
support expiration times with real-time performance guarantees" (its
reference [24]) and Theorem 3's patch queue ordered by ``texp_S``.  Every
holder in this package that has to learn what expires by ``τ`` keeps one
:class:`Schedule`: the engine's per-shard expiration index, the counting
and extent standing queries, the difference patch queue and a folded
``GROUP BY``'s partitions.

A tick is an ``int`` -- a :class:`~repro.core.timestamps.Timestamp` or the
plain int of one, which hash and compare the same.

The layout is a bucket per tick.  ``ticks`` maps each key to its tick,
``buckets`` maps each tick to the keys parked there, and ``heap`` orders
the distinct bucket ticks.  Moving or discarding a key is O(1) and leaves
its old bucket entry behind; a stale entry is skipped when its tick is
popped, so nothing is ever searched for.  Keys that share a tick -- rows
written in one clock step -- share one heap entry.  :meth:`Schedule.next_due`
is the moment the next key comes due, which is what gives a trigger
scheduler its real-time bound.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, ItemsView, Iterable, List, Optional, Tuple

from repro.core.timestamps import RAW_INFINITY

__all__ = ["Schedule"]


class Schedule:
    """``key -> tick``, handed back in tick order as the ticks pass.

    :meth:`put` is last-write; max-merge is the caller's
    (``if (t := s.get(k)) is None or t < tick: s.put(k, tick)``).
    ``RAW_INFINITY`` is never held: putting it discards the key.  ``len``,
    ``in``, :meth:`get` and :meth:`items` see held keys only.
    """

    __slots__ = ("ticks", "buckets", "heap")

    def __init__(self) -> None:
        self.ticks: Dict[Hashable, int] = {}
        self.buckets: Dict[int, List[Hashable]] = {}
        self.heap: List[int] = []

    def __len__(self) -> int:
        return len(self.ticks)

    def __contains__(self, key: Hashable) -> bool:
        return key in self.ticks

    def get(self, key: Hashable) -> Optional[int]:
        """The tick ``key`` is held at, or ``None``."""
        return self.ticks.get(key)

    def items(self) -> ItemsView:
        """Held ``(key, tick)`` pairs, unordered."""
        return self.ticks.items()

    def put(self, key: Hashable, tick: int) -> None:
        """Hold ``key`` at ``tick`` (last-write; ``RAW_INFINITY`` discards)."""
        ticks = self.ticks
        if tick == RAW_INFINITY:
            ticks.pop(key, None)
        elif ticks.get(key) != tick:
            ticks[key] = tick
            bucket = self.buckets.get(tick)
            if bucket is None:
                self.buckets[tick] = [key]
                heapq.heappush(self.heap, tick)
            else:
                bucket.append(key)

    def bulk_put(self, pairs: Iterable[Tuple[Hashable, int]]) -> None:
        """:meth:`put` every pair in order, repairing the heap at most once.

        The trusted bulk path of snapshot restore and WAL replay.  Only
        ticks that open a bucket reach the heap: a few of them beside a
        large heap (one replay flush into a loaded table) are pushed,
        ``O(k log n)``; anything else is appended and heapified once --
        already a heap when a snapshot's ``texp``-sorted segments fill an
        empty schedule.
        """
        ticks, buckets = self.ticks, self.buckets
        fresh: List[int] = []
        for key, tick in pairs:
            if tick == RAW_INFINITY:
                ticks.pop(key, None)
            elif ticks.get(key) != tick:
                ticks[key] = tick
                bucket = buckets.get(tick)
                if bucket is None:
                    buckets[tick] = [key]
                    fresh.append(tick)
                else:
                    bucket.append(key)
        heap = self.heap
        if len(fresh) * len(heap).bit_length() < len(heap):
            for tick in fresh:
                heapq.heappush(heap, tick)
        elif fresh:
            heap.extend(fresh)
            heapq.heapify(heap)

    def discard(self, key: Hashable) -> None:
        """Stop holding ``key`` (absent keys are fine)."""
        self.ticks.pop(key, None)

    def next_due(self) -> Optional[int]:
        """The earliest held tick, or ``None`` when nothing is held."""
        heap, buckets, ticks = self.heap, self.buckets, self.ticks
        while heap:
            tick = heap[0]
            bucket = buckets[tick]
            for i, key in enumerate(bucket):
                if ticks.get(key) == tick:
                    if i:
                        del bucket[:i]  # stale entries are not met twice
                    return tick
            heapq.heappop(heap)
            del buckets[tick]
        return None

    def pop_due(self, limit: Optional[int] = None) -> List[Tuple[Hashable, int]]:
        """Release every key held at a tick ``<= limit`` (``None``: every
        key), as ``(key, tick)`` pairs in tick order."""
        if limit is None:
            limit = RAW_INFINITY
        heap, buckets, ticks = self.heap, self.buckets, self.ticks
        due: List[Tuple[Hashable, int]] = []
        while heap and heap[0] <= limit:
            tick = heapq.heappop(heap)
            for key in buckets.pop(tick):
                if ticks.get(key) == tick:  # else moved or discarded
                    del ticks[key]
                    due.append((key, tick))
        return due
