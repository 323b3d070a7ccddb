"""Half-open time intervals and interval sets for Schrödinger semantics.

Section 3.4 of the paper replaces the single expiration time of a
materialised expression with a *set of time intervals* during which the
result is valid ("Schrödinger's cat semantics"): a query issued inside a
valid interval can be answered from the materialisation without
recomputation.  The paper's intervals are half-open, ``[τ1, τ2[`` with
``τ1 < τ2`` (Section 3.4), and the right endpoint may be ``∞``.

This module provides:

* :class:`Interval` -- an immutable half-open interval ``[start, end)``;
* :class:`IntervalSet` -- a normalised (sorted, disjoint, coalesced) set of
  intervals closed under union, intersection, difference, and complement.

Both are value types: hashable, comparable by content, cheap to copy.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence, Tuple

from repro.core.timestamps import INFINITY, TimeLike, Timestamp, ts
from repro.errors import TimeError

__all__ = ["Interval", "IntervalSet", "EMPTY_SET", "ALL_TIME"]


class Interval:
    """A half-open interval ``[start, end)`` on the time domain.

    ``end`` may be :data:`INFINITY`; ``start`` must be finite and strictly
    less than ``end`` (the paper requires ``τ1 < τ2``, so empty intervals
    are not representable -- use :class:`IntervalSet` for "no valid time").
    """

    __slots__ = ("start", "end")

    def __init__(self, start: TimeLike, end: TimeLike) -> None:
        start_ts = ts(start)
        end_ts = ts(end)
        if start_ts.is_infinite:
            raise TimeError("an interval cannot start at infinity")
        if not start_ts < end_ts:
            raise TimeError(f"empty or inverted interval [{start_ts}, {end_ts})")
        self.start = start_ts
        self.end = end_ts

    # -- membership & relations ---------------------------------------------

    def contains(self, time: TimeLike) -> bool:
        """Whether ``time`` lies in ``[start, end)``."""
        stamp = ts(time)
        return self.start <= stamp < self.end

    __contains__ = contains

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two intervals share at least one time point."""
        return self.start < other.end and other.start < self.end

    def adjacent(self, other: "Interval") -> bool:
        """Whether the intervals abut exactly (``[a,b) [b,c)``)."""
        return self.end == other.start or other.end == self.start

    def intersect(self, other: "Interval") -> "Interval | None":
        """The overlap of two intervals, or ``None`` if disjoint."""
        start = self.start if other.start < self.start else other.start
        end = self.end if self.end < other.end else other.end
        if start < end:
            return Interval(start, end)
        return None

    @property
    def duration(self) -> Timestamp:
        """Length of the interval; :data:`INFINITY` for unbounded ones."""
        if self.end.is_infinite:
            return INFINITY
        return ts(self.end.value - self.start.value)

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.start == other.start and self.end == other.end

    def __hash__(self) -> int:
        return hash(("Interval", self.start, self.end))

    def __repr__(self) -> str:
        return f"Interval({self.start}, {self.end})"

    def __str__(self) -> str:
        return f"[{self.start}, {self.end})"


class IntervalSet:
    """A normalised union of disjoint half-open intervals.

    The canonical form is sorted by start, pairwise disjoint, and coalesced
    (no two intervals are adjacent), so equality of interval sets is
    structural equality.  All set operations return new instances.

    >>> valid = IntervalSet.from_pairs([(0, 5), (10, None)])
    >>> valid.contains(3), valid.contains(7), valid.contains(100)
    (True, False, True)
    """

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._intervals: Tuple[Interval, ...] = _normalise(intervals)

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalSet":
        """The empty interval set (valid at no time)."""
        return _EMPTY

    @classmethod
    def all_time(cls) -> "IntervalSet":
        """The full time line ``[0, ∞)``."""
        return _ALL

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[TimeLike, TimeLike]]) -> "IntervalSet":
        """Build from ``(start, end)`` pairs; ``None`` end means infinity."""
        return cls(Interval(start, end) for start, end in pairs)

    @classmethod
    def single(cls, start: TimeLike, end: TimeLike) -> "IntervalSet":
        """A set holding one interval ``[start, end)``."""
        return cls((Interval(start, end),))

    @classmethod
    def from_onwards(cls, start: TimeLike) -> "IntervalSet":
        """The unbounded set ``[start, ∞)``."""
        return cls.single(start, INFINITY)

    # -- queries -------------------------------------------------------------

    @property
    def intervals(self) -> Tuple[Interval, ...]:
        """The canonical, sorted, disjoint intervals."""
        return self._intervals

    @property
    def is_empty(self) -> bool:
        """Whether the set contains no interval at all."""
        return not self._intervals

    def contains(self, time: TimeLike) -> bool:
        """Whether ``time`` lies in some interval of the set."""
        stamp = ts(time)
        # Binary search over sorted disjoint intervals.
        lo, hi = 0, len(self._intervals)
        while lo < hi:
            mid = (lo + hi) // 2
            interval = self._intervals[mid]
            if stamp < interval.start:
                hi = mid
            elif interval.end <= stamp:
                lo = mid + 1
            else:
                return True
        return False

    __contains__ = contains

    def next_valid_time(self, time: TimeLike) -> Timestamp | None:
        """The earliest time ``>= time`` contained in the set, or ``None``.

        Used to implement the paper's "move the query forward in time"
        policy (Section 3.3): delay a query until the materialisation is
        valid again.
        """
        stamp = ts(time)
        for interval in self._intervals:
            if stamp < interval.start:
                return interval.start
            if interval.contains(stamp):
                return stamp
        return None

    def previous_valid_time(self, time: TimeLike) -> Timestamp | None:
        """The latest time ``<= time`` contained in the set, or ``None``.

        Implements "move the query backward in time" (return a slightly
        outdated but once-correct result).
        """
        stamp = ts(time)
        best: Timestamp | None = None
        for interval in self._intervals:
            if interval.end <= stamp:
                if interval.end.is_infinite:
                    return stamp
                best = ts(interval.end.value - 1)
            elif interval.contains(stamp):
                return stamp
            else:
                break
        return best

    # -- set algebra ----------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Set union."""
        return IntervalSet(self._intervals + other._intervals)

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        """Set intersection via a linear merge of the two sorted lists."""
        result = []
        i, j = 0, 0
        mine, theirs = self._intervals, other._intervals
        while i < len(mine) and j < len(theirs):
            overlap = mine[i].intersect(theirs[j])
            if overlap is not None:
                result.append(overlap)
            # Advance whichever interval ends first.
            if mine[i].end < theirs[j].end:
                i += 1
            else:
                j += 1
        return IntervalSet(result)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        """Set difference ``self - other``."""
        return self.intersection(other.complement())

    def complement(self) -> "IntervalSet":
        """Complement with respect to the full time line ``[0, ∞)``."""
        gaps = []
        cursor = ts(0)
        for interval in self._intervals:
            if cursor < interval.start:
                gaps.append(Interval(cursor, interval.start))
            cursor = interval.end
            if cursor.is_infinite:
                return IntervalSet(gaps)
        gaps.append(Interval(cursor, INFINITY))
        return IntervalSet(gaps)

    def __or__(self, other: "IntervalSet") -> "IntervalSet":
        return self.union(other)

    def __and__(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersection(other)

    def __sub__(self, other: "IntervalSet") -> "IntervalSet":
        return self.difference(other)

    # -- value semantics --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(("IntervalSet", self._intervals))

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    def __repr__(self) -> str:
        if not self._intervals:
            return "IntervalSet()"
        body = ", ".join(str(interval) for interval in self._intervals)
        return f"IntervalSet({body})"


def _normalise(intervals: Iterable[Interval]) -> Tuple[Interval, ...]:
    """Sort, merge overlapping, and coalesce adjacent intervals."""
    items: Sequence[Interval] = sorted(intervals, key=lambda iv: iv.start)
    merged: list[Interval] = []
    for interval in items:
        if merged and interval.start <= merged[-1].end:
            last = merged[-1]
            if last.end < interval.end:
                merged[-1] = Interval(last.start, interval.end)
        else:
            merged.append(interval)
    return tuple(merged)


_EMPTY = IntervalSet(())
_ALL = IntervalSet((Interval(0, INFINITY),))

#: The empty interval set.
EMPTY_SET = _EMPTY

#: The full time line ``[0, ∞)``.
ALL_TIME = _ALL
