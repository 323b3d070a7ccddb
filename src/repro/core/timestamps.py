"""The time domain of the expiration-time model.

The paper (Section 2.2) works over a *totally ordered time domain* that
comprises finite times -- "for simplicity, we identify finite times with the
non-negative integers" -- plus the symbol ``∞`` that is larger than any other
time value.  A tuple whose expiration time is ``∞`` never expires, and all
operators degrade to their textbook equivalents when every tuple carries
``∞``.

A :class:`Timestamp` *is* its tick: an ``int`` subclass whose value is the
tick itself, with ``∞`` the one instance whose value is
:data:`RAW_INFINITY` (``2^63 - 1``).  A plain ``int`` tick and a
``Timestamp`` therefore compare, hash and pack (``array('q')``,
``struct``) the same, at C speed; columnar storage, the expiration
schedule and the packed log and snapshot (:mod:`repro.codec`) hold the
same numbers the row layout and the public API hand out.

This module provides:

* :data:`INFINITY` -- the unique infinite timestamp (aliased ``FOREVER``);
* :class:`Timestamp` -- an immutable point of the time domain with
  saturating arithmetic, a ``repr`` / ``str`` that show ``∞`` as
  ``INFINITY`` / ``inf``, and a :attr:`~Timestamp.value` that refuses ``∞``;
* :func:`ts` -- a permissive coercion helper used throughout the library;
* :func:`ts_min` / :func:`ts_max` -- n-ary minimum / maximum, the ``min`` and
  ``max`` functions of arbitrary arity from the paper's data model;
* :data:`RAW_INFINITY` and :func:`from_raw` -- ``∞`` as a machine int, and
  the decoder that turns a bare stored tick back into a :class:`Timestamp`.

Finite timestamps are non-negative integers below :data:`RAW_INFINITY`.
Arithmetic saturates at infinity: ``INFINITY + d == INFINITY`` for any
finite ``d``.  ``int(INFINITY)`` is :data:`RAW_INFINITY`.
"""

from __future__ import annotations

from typing import Iterable, Union

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
    "from_raw",
]

#: The tick of the infinite timestamp.  Finite ticks are non-negative and
#: stay strictly below it, so ``tick > tau`` keeps the total order of the
#: time domain; ``int64`` max leaves every realistic tick representable
#: while fitting ``array('q')``.
RAW_INFINITY = (1 << 63) - 1


class Timestamp(int):
    """An immutable point on the totally ordered time domain.

    A timestamp is either *finite* (a non-negative integer tick) or the
    distinguished *infinite* timestamp :data:`INFINITY`, whose tick is
    :data:`RAW_INFINITY`.  Ordering, equality and hashing are ``int``'s, so
    a timestamp and the plain ``int`` of its tick are interchangeable as
    keys and in comparisons::

        >>> Timestamp(5) < 7
        True
        >>> INFINITY > 10**9
        True
        >>> Timestamp(5) in {5}
        True
        >>> Timestamp(3) + 4
        Timestamp(7)

    Unlike an ``int``, ``Timestamp(0)`` is truthy: a time is never "empty".
    """

    __slots__ = ()

    def __new__(cls, value: Union[int, "Timestamp", None] = None) -> "Timestamp":
        if type(value) is int and 0 <= value < RAW_INFINITY:
            return int.__new__(cls, value)
        if value is None:
            return INFINITY
        if isinstance(value, Timestamp):
            return value
        if isinstance(value, bool):
            raise TimeError(f"booleans are not timestamps: {value!r}")
        if not isinstance(value, int):
            raise TimeError(f"timestamps are integers or INFINITY, got {value!r}")
        if value < 0:
            raise TimeError(f"timestamps are non-negative, got {value}")
        if value >= RAW_INFINITY:
            raise TimeError(f"finite timestamp {value} too large for a raw int64 tick")
        return int.__new__(cls, value)

    def __reduce__(self):
        # Unpickling goes through the decoder, so ``∞`` stays INFINITY.
        return from_raw, (int(self),)

    def __bool__(self) -> bool:
        return True

    # -- introspection -----------------------------------------------------

    @property
    def is_infinite(self) -> bool:
        """Whether this is the infinite timestamp ``∞``."""
        return self == RAW_INFINITY

    @property
    def is_finite(self) -> bool:
        """Whether this timestamp is a finite tick."""
        return self != RAW_INFINITY

    @property
    def value(self) -> int:
        """The finite tick value; raises :class:`TimeError` on ``∞``."""
        if self == RAW_INFINITY:
            raise TimeError("the infinite timestamp has no finite value")
        return int(self)

    # -- arithmetic (saturating at infinity) --------------------------------

    def __add__(self, delta: int) -> "Timestamp":
        if type(delta) is not int and (
            not isinstance(delta, int) or isinstance(delta, (bool, Timestamp))
        ):
            return NotImplemented
        if self == RAW_INFINITY:
            return self
        result = int(self) + delta
        if result < 0:
            raise TimeError(f"timestamp arithmetic went negative: {self} + {delta}")
        if result >= RAW_INFINITY:
            raise TimeError(f"timestamp arithmetic overflowed: {self} + {delta}")
        return int.__new__(Timestamp, result)

    __radd__ = __add__

    def __sub__(self, delta: int) -> "Timestamp":
        if type(delta) is not int and (
            not isinstance(delta, int) or isinstance(delta, (bool, Timestamp))
        ):
            return NotImplemented
        return self.__add__(-delta)

    # -- display -----------------------------------------------------------

    def __repr__(self) -> str:
        if self == RAW_INFINITY:
            return "INFINITY"
        return f"Timestamp({int(self)})"

    def __str__(self) -> str:
        if self == RAW_INFINITY:
            return "inf"
        return int.__repr__(self)


#: The unique infinite timestamp: larger than every finite time.  Used for
#: tuples with no expiration time, making every operator behave exactly like
#: its textbook (SPCU) equivalent.
INFINITY = int.__new__(Timestamp, RAW_INFINITY)

#: Alias for :data:`INFINITY`, reads better in application code
#: (``table.insert(row, expires=FOREVER)``).
FOREVER = INFINITY

#: Anything accepted where a timestamp is expected.
TimeLike = Union[Timestamp, int, None]


def ts(value: TimeLike) -> Timestamp:
    """Coerce ``value`` to a :class:`Timestamp`.

    ``None`` coerces to :data:`INFINITY`, matching the model's convention
    that a missing expiration time means "never expires".

    >>> ts(5)
    Timestamp(5)
    >>> ts(None)
    INFINITY
    """
    if type(value) is Timestamp:
        return value
    return Timestamp(value)


def ts_min(times: Iterable[TimeLike]) -> Timestamp:
    """N-ary minimum over the time domain (the paper's ``min`` function).

    The minimum of an empty collection is :data:`INFINITY` -- the identity
    of ``min`` on this domain.  This matches the expiration time assigned to
    expressions over operators that never invalidate (Section 2.3).
    """
    return min(map(ts, times), default=INFINITY)


def ts_max(times: Iterable[TimeLike]) -> Timestamp:
    """N-ary maximum over the time domain (the paper's ``max`` function).

    The maximum of an empty collection is ``Timestamp(0)``: every tuple set
    that is already empty "has fully expired" at time 0.
    """
    return max(map(ts, times), default=Timestamp(0))


def from_raw(raw: int) -> Timestamp:
    """The :class:`Timestamp` of a bare stored tick (``RAW_INFINITY`` = ∞).

    For public accessors and decoders only: every other tick already is a
    :class:`Timestamp`.
    """
    return INFINITY if raw == RAW_INFINITY else Timestamp(raw)
