"""Tuples of the expiration-time model.

A *row* is a plain, hashable Python tuple of attribute values.  The model
associates each row of a relation with exactly one expiration time via the
relation-level function ``texp_R``; an :class:`ExpiringTuple` pairs the two
for display and transport (e.g. shipping a view delta to a remote client).

The attribute domain ``D`` is defined here, once: values of exactly
``int``, ``str``, ``bool``, ``NoneType`` or ``Fraction``, and finite
``float`` s -- what the log, the snapshot and the wire hand back equal and
of the same type, so a stored row is always found again by equality.  NaN,
the infinities, tuples, ``complex``, ``bytes``, subclasses (an ``int``
subclass comes back an ``int``) and, unchecked, an ``int`` past Python's
int/str digit limit (the encoders raise ``ValueError``) are outside it;
``1 == 1.0 == True`` are one value.  :func:`check_domain` runs where a new
value enters a table: ``Table.insert``, ``Table.insert_many`` and
``Table.override``.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite
from typing import Any, Iterable, Tuple

from repro.core.timestamps import TimeLike, Timestamp, ts
from repro.errors import RelationError

__all__ = ["Row", "make_row", "check_domain", "ExpiringTuple"]

#: A relation tuple: immutable, hashable sequence of attribute values.
Row = Tuple[Any, ...]


def make_row(values: Iterable[Any]) -> Row:
    """Build a :data:`Row`, validating hashability up front.

    A non-hashable value (e.g. a list) would only blow up later when the row
    is inserted into a relation; failing here gives a clearer error.
    """
    row = tuple(values)
    try:
        hash(row)
    except TypeError:
        raise RelationError(f"tuple values must be hashable: {row!r}") from None
    return row


#: The exact types of ``D`` besides ``float``, which is in when finite.
_DOMAIN = frozenset({int, str, bool, type(None), Fraction})


def check_domain(row: Row) -> Row:
    """``row``, or :class:`RelationError` naming a value outside ``D``."""
    for value in row:
        kind = type(value)
        if kind not in _DOMAIN and (kind is not float or not isfinite(value)):
            raise RelationError(
                f"value {value!r} of type {kind.__name__} is outside the "
                "attribute domain (int, str, bool, None, Fraction, finite float)"
            )
    return row


class ExpiringTuple:
    """An immutable ``(row, expiration time)`` pair.

    This is the unit shipped between engine and clients and returned by
    APIs that expose expiration times (which, per the paper, is only
    insertion/update paths and trigger payloads -- plain queries hide them).

    >>> t = ExpiringTuple((1, 25), 10)
    >>> t.row, t.expires_at
    ((1, 25), Timestamp(10))
    >>> t.expired_at(10), t.expired_at(9)
    (True, False)
    """

    __slots__ = ("row", "expires_at")

    def __init__(self, row: Iterable[Any], expires_at: TimeLike) -> None:
        object.__setattr__(self, "row", make_row(row))
        object.__setattr__(self, "expires_at", ts(expires_at))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("ExpiringTuple is immutable")

    def expired_at(self, time: TimeLike) -> bool:
        """Whether this tuple has expired at ``time``.

        A tuple is *unexpired* at ``τ`` iff ``texp(t) > τ`` (the definition
        of ``exp_τ``), so expiry happens exactly when ``texp(t) <= τ``.
        """
        return self.expires_at <= ts(time)

    def alive_at(self, time: TimeLike) -> bool:
        """Whether this tuple is part of the database at ``time``."""
        return ts(time) < self.expires_at

    @property
    def arity(self) -> int:
        """Number of attribute values in the row."""
        return len(self.row)

    def value(self, position: int) -> Any:
        """The attribute at 1-based ``position`` (the paper's ``r(i)``)."""
        if not 1 <= position <= len(self.row):
            raise RelationError(
                f"attribute position {position} out of range 1..{len(self.row)}"
            )
        return self.row[position - 1]

    def with_expiration(self, expires_at: TimeLike) -> "ExpiringTuple":
        """A copy carrying a different expiration time."""
        return ExpiringTuple(self.row, expires_at)

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExpiringTuple):
            return NotImplemented
        return self.row == other.row and self.expires_at == other.expires_at

    def __hash__(self) -> int:
        return hash(("ExpiringTuple", self.row, self.expires_at))

    def __repr__(self) -> str:
        return f"ExpiringTuple({self.row!r}, expires_at={self.expires_at})"

    def __str__(self) -> str:
        values = ", ".join(repr(v) for v in self.row)
        return f"<{values}> @ {self.expires_at}"
