"""The time domain of the expiration-time model.

The paper (Section 2.2) works over a *totally ordered time domain* that
comprises finite times -- "for simplicity, we identify finite times with the
non-negative integers" -- plus the symbol ``∞`` that is larger than any other
time value.  A tuple whose expiration time is ``∞`` never expires, and all
operators degrade to their textbook equivalents when every tuple carries
``∞``.

This module provides:

* :data:`INFINITY` -- the unique infinite timestamp (aliased ``FOREVER``);
* :class:`Timestamp` -- an immutable wrapper for a finite or infinite time
  value with full ordering, hashing, and saturating arithmetic;
* :func:`ts` -- a permissive coercion helper used throughout the library;
* :func:`ts_min` / :func:`ts_max` -- n-ary minimum / maximum, the ``min`` and
  ``max`` functions of arbitrary arity from the paper's data model;
* :data:`RAW_INFINITY`, :func:`to_raw` / :func:`from_raw` -- the time domain
  as machine ints, the form columnar storage, the expiration index and the
  packed log and snapshot (:mod:`repro.codec`) hold.

Finite timestamps are non-negative integers.  Arithmetic saturates at
infinity: ``INFINITY + d == INFINITY`` for any finite ``d``.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, Union

from repro.errors import TimeError

__all__ = [
    "Timestamp",
    "INFINITY",
    "FOREVER",
    "TimeLike",
    "ts",
    "ts_min",
    "ts_max",
    "RAW_INFINITY",
    "to_raw",
    "from_raw",
]


@functools.total_ordering
class Timestamp:
    """An immutable point on the totally ordered time domain.

    A timestamp is either *finite* (a non-negative integer tick) or the
    distinguished *infinite* timestamp :data:`INFINITY`.  Instances are
    hashable and totally ordered; the infinite timestamp compares greater
    than every finite timestamp and equal to itself.

    Timestamps interoperate with plain ``int`` values in comparisons and
    arithmetic so that call sites can stay readable::

        >>> Timestamp(5) < 7
        True
        >>> INFINITY > 10**9
        True
        >>> Timestamp(3) + 4
        Timestamp(7)
    """

    __slots__ = ("_value",)

    def __init__(self, value: Union[int, "Timestamp", None] = None) -> None:
        if isinstance(value, Timestamp):
            self._value = value._value
            return
        if value is None:
            self._value = None  # infinite
            return
        if isinstance(value, bool):
            raise TimeError(f"booleans are not timestamps: {value!r}")
        if not isinstance(value, int):
            raise TimeError(f"timestamps are integers or INFINITY, got {value!r}")
        if value < 0:
            raise TimeError(f"timestamps are non-negative, got {value}")
        self._value = value

    # -- introspection -----------------------------------------------------

    @property
    def is_infinite(self) -> bool:
        """Whether this is the infinite timestamp ``∞``."""
        return self._value is None

    @property
    def is_finite(self) -> bool:
        """Whether this timestamp is a finite tick."""
        return self._value is not None

    @property
    def value(self) -> int:
        """The finite tick value; raises :class:`TimeError` on ``∞``."""
        if self._value is None:
            raise TimeError("the infinite timestamp has no finite value")
        return self._value

    # -- ordering ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(other) is Timestamp:  # fast path for the hot loops
            return self._value == other._value
        other_ts = _coerce(other)
        if other_ts is NotImplemented:
            return NotImplemented
        return self._value == other_ts._value

    def __lt__(self, other: object) -> bool:
        if type(other) is Timestamp:  # fast path for the hot loops
            mine, theirs = self._value, other._value
            if mine is None:
                return False  # infinity is not less than anything
            if theirs is None:
                return True  # any finite time is less than infinity
            return mine < theirs
        other_ts = _coerce(other)
        if other_ts is NotImplemented:
            return NotImplemented
        if self._value is None:
            return False  # infinity is not less than anything
        if other_ts._value is None:
            return True  # any finite time is less than infinity
        return self._value < other_ts._value

    def __hash__(self) -> int:
        return hash(("Timestamp", self._value))

    # -- arithmetic (saturating at infinity) --------------------------------

    def __add__(self, delta: int) -> "Timestamp":
        if not isinstance(delta, int) or isinstance(delta, bool):
            return NotImplemented
        if self._value is None:
            return self
        result = self._value + delta
        if result < 0:
            raise TimeError(f"timestamp arithmetic went negative: {self} + {delta}")
        return Timestamp(result)

    __radd__ = __add__

    def __sub__(self, delta: int) -> "Timestamp":
        if not isinstance(delta, int) or isinstance(delta, bool):
            return NotImplemented
        return self.__add__(-delta)

    # -- display -----------------------------------------------------------

    def __repr__(self) -> str:
        if self._value is None:
            return "INFINITY"
        return f"Timestamp({self._value})"

    def __str__(self) -> str:
        if self._value is None:
            return "inf"
        return str(self._value)

    def __int__(self) -> int:
        return self.value


#: The unique infinite timestamp: larger than every finite time.  Used for
#: tuples with no expiration time, making every operator behave exactly like
#: its textbook (SPCU) equivalent.
INFINITY = Timestamp(None)

#: Alias for :data:`INFINITY`, reads better in application code
#: (``table.insert(row, expires=FOREVER)``).
FOREVER = INFINITY

#: Anything accepted where a timestamp is expected.
TimeLike = Union[Timestamp, int, None]


def _coerce(value: object) -> Timestamp:
    """Coerce ``value`` to a Timestamp for comparisons, or NotImplemented."""
    if isinstance(value, Timestamp):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        if value < 0:
            raise TimeError(f"timestamps are non-negative, got {value}")
        return Timestamp(value)
    return NotImplemented


def ts(value: TimeLike) -> Timestamp:
    """Coerce ``value`` to a :class:`Timestamp`.

    ``None`` coerces to :data:`INFINITY`, matching the model's convention
    that a missing expiration time means "never expires".

    >>> ts(5)
    Timestamp(5)
    >>> ts(None)
    INFINITY
    """
    if isinstance(value, Timestamp):
        return value
    return Timestamp(value)


def ts_min(times: Iterable[TimeLike]) -> Timestamp:
    """N-ary minimum over the time domain (the paper's ``min`` function).

    The minimum of an empty collection is :data:`INFINITY` -- the identity
    of ``min`` on this domain.  This matches the expiration time assigned to
    expressions over operators that never invalidate (Section 2.3).
    """
    result = INFINITY
    for value in times:
        stamp = ts(value)
        if stamp < result:
            result = stamp
    return result


def ts_max(times: Iterable[TimeLike]) -> Timestamp:
    """N-ary maximum over the time domain (the paper's ``max`` function).

    The maximum of an empty collection is ``Timestamp(0)``: every tuple set
    that is already empty "has fully expired" at time 0.
    """
    result = Timestamp(0)
    for value in times:
        stamp = ts(value)
        if result < stamp:
            result = stamp
    return result


# -- raw ticks ----------------------------------------------------------------

#: Raw encoding of the infinite timestamp.  Finite ticks are non-negative
#: and must stay strictly below this sentinel so that ``raw > tau`` keeps
#: the total order of the time domain; ``int64`` max leaves every
#: realistic tick representable while fitting ``array('q')``.
RAW_INFINITY = (1 << 63) - 1

#: Interned finite timestamps, so raw-to-``Timestamp`` bridges do not
#: allocate a fresh Timestamp per row for the (few, repeated) tick values of
#: a workload.  Bounded to keep pathological tick ranges from leaking.
_TS_CACHE: Dict[int, Timestamp] = {}
_TS_CACHE_LIMIT = 1 << 16


def to_raw(stamp: Timestamp) -> int:
    """Encode a :class:`Timestamp` as a raw machine int."""
    value = stamp._value
    if value is None:
        return RAW_INFINITY
    if value >= RAW_INFINITY:
        raise TimeError(
            f"finite timestamp {value} too large for a raw int64 tick"
        )
    return value


def from_raw(raw: int) -> Timestamp:
    """Decode a raw machine int back into an (interned) :class:`Timestamp`."""
    if raw == RAW_INFINITY:
        return INFINITY
    cached = _TS_CACHE.get(raw)
    if cached is None:
        cached = Timestamp(raw)
        if len(_TS_CACHE) < _TS_CACHE_LIMIT:
            _TS_CACHE[raw] = cached
    return cached
