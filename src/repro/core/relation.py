"""Relations with per-tuple expiration times.

A relation ``R`` in the paper's model is a finite *set* of tuples together
with a function ``texp_R`` assigning each tuple an expiration time; the
restriction operator

    ``exp_τ(R) = { r | r ∈ R ∧ texp_R(r) > τ }``

yields the tuples unexpired at time ``τ``.  :class:`Relation` realises this
as a mapping from rows to timestamps.

Set semantics and duplicate policy
----------------------------------

The model is set-based (the SPCU algebra of Abiteboul/Hull/Vianu).  When the
same row is inserted twice with different expiration times, the relation
keeps the **maximum** -- this is forced by the paper's duplicate-elimination
rules: projection assigns a merged tuple "the maximum expiration time of all
its duplicates", and union assigns ``max{texp_R(t), texp_S(t)}`` to a tuple
present in both arguments.  Re-inserting a row therefore *extends* its
lifetime, never shortens it; an explicit :meth:`Relation.override` exists
for administrative corrections.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.schema import Schema, anonymous_schema
from repro.core.timestamps import (
    INFINITY,
    RAW_INFINITY,
    TimeLike,
    Timestamp,
    from_raw,
    ts,
    ts_max,
    ts_min,
)
from repro.core.tuples import ExpiringTuple, Row, make_row
from repro.errors import RelationError, SchemaError

__all__ = ["ColumnLookup", "Relation", "relation_from_rows"]

#: Below this many rows a selection scans and builds no lookup.  Measured
#: (CPython 3.11, x86-64, ``σ[k = c](T)`` with ``cached=False``, two rows a
#: key): 14 us with a lookup at any size, 14 us + 0.1 us a row with a scan,
#: a build about two scans; from 64 rows a probe saves 5 us, a third.
LOOKUP_FLOOR = 64


#: Type -> the family a range may bisect it in; other types never may.
_ORDERED = {int: int, bool: int, float: int, str: str, bytes: bytes}


class ColumnLookup:
    """One column's rows by value (``by_value``), and sorted for ranges.

    Never maintained: a probe re-reads each candidate's stored ``texp``, so
    a row deleted, swept or overridden since stays listed harmlessly.  Each
    :class:`Relation` method that can *add* a row drops the lookups.
    """

    __slots__ = ("by_value", "family", "keys", "ordered")

    def __init__(self, rows: Iterable[Row], column: int) -> None:
        self.by_value: Dict[Any, List[Row]] = {}
        for row in rows:
            self.by_value.setdefault(row[column], []).append(row)
        families = {_ORDERED.get(type(key)) for key in self.by_value}
        self.family = families.pop() if len(families) == 1 else None
        # NaN satisfies no bound and would break the sort: left out.
        keys = sorted(key for key in self.by_value if key == key) if self.family else []
        self.keys = [key for key in keys for _ in self.by_value[key]]
        self.ordered = [row for key in keys for row in self.by_value[key]]

    def between(self, low: tuple, high: tuple) -> Optional[Sequence[Row]]:
        """Rows between ``(bound, strict)`` pairs (``None``: unordered)."""
        (low, low_strict), (high, high_strict) = low, high
        bounds = {_ORDERED.get(type(low)), _ORDERED.get(type(high))}
        if self.family is None or bounds != {self.family}:
            return None
        start = (bisect_right if low_strict else bisect_left)(self.keys, low)
        stop = (bisect_left if high_strict else bisect_right)(self.keys, high)
        return self.ordered[start:stop]


class Relation:
    """A set of rows, each with an expiration time.

    >>> pol = Relation(Schema(["uid", "deg"]))
    >>> _ = pol.insert((1, 25), expires_at=10)
    >>> _ = pol.insert((2, 25), expires_at=15)
    >>> sorted(pol.rows())
    [(1, 25), (2, 25)]
    >>> pol.expiration_of((1, 25))
    Timestamp(10)
    >>> sorted(pol.exp_at(12).rows())
    [(2, 25)]
    """

    __slots__ = ("schema", "_tuples", "_lookups")

    def __init__(
        self,
        schema: Schema | Sequence[str] | int,
        tuples: Optional[Mapping[Row, Timestamp]] = None,
    ) -> None:
        if isinstance(schema, Schema):
            self.schema = schema
        elif isinstance(schema, int):
            self.schema = anonymous_schema(schema)
        else:
            self.schema = Schema(schema)
        self._tuples: Dict[Row, Timestamp] = {}
        #: column -> ``True`` once probed, then its lookup; ``None`` on an add.
        self._lookups: Optional[Dict[int, Any]] = None
        if tuples:
            for row, stamp in tuples.items():
                self.insert(row, expires_at=stamp)

    # -- construction --------------------------------------------------------

    @classmethod
    def _from_trusted(
        cls, schema: Schema, tuples: Dict[Row, Timestamp]
    ) -> "Relation":
        """Adopt an already-validated ``row -> expiration`` mapping.

        The trusted fast path behind :meth:`exp_at`, :meth:`copy`, and the
        compiled evaluator's bulk kernels: rows must already be hashable
        tuples of the schema's arity with :class:`Timestamp` expirations,
        and duplicate merging must already have happened (a dict cannot
        hold duplicates).  The mapping is adopted, not copied.
        """
        relation = cls.__new__(cls)
        relation.schema = schema
        relation._tuples = tuples
        relation._lookups = None
        return relation

    def bulk_load(
        self,
        pairs: Iterable[Tuple[Row, Timestamp]],
        changes: Optional[List[Tuple[Row, Optional[Timestamp], Timestamp]]] = None,
    ) -> int:
        """Max-merge many already-trusted ``(row, expiration)`` pairs.

        Rows must be hashable tuples of the right arity and expirations
        :class:`Timestamp` instances (e.g. pairs drained from another
        relation's :meth:`items`) or the bare ticks a snapshot segment
        holds, which are decoded here (:func:`from_raw`); the per-row
        ``make_row`` + arity check of :meth:`insert` is skipped.
        Duplicates keep the later expiration, exactly like :meth:`insert`.
        Returns the number of pairs loaded.
        ``changes``, when given, receives ``(row, before, after)`` for
        every pair that changed what is stored (``before`` is ``None`` for
        a new row).
        """
        self._lookups = None
        tuples = self._tuples
        get = tuples.get
        count = 0
        for row, stamp in pairs:
            if type(stamp) is not Timestamp:
                stamp = from_raw(stamp)
            existing = get(row)
            if existing is None or existing < stamp:
                tuples[row] = stamp
                if changes is not None:
                    changes.append((row, existing, stamp))
            count += 1
        return count

    def bulk_restore(
        self, ops: Iterable[Tuple[Row, Optional[Timestamp]]]
    ) -> None:
        """Apply trusted ``(row, texp-or-None)`` ops with override semantics.

        ``None`` deletes the row; anything else -- a :class:`Timestamp` or
        the bare tick a log record holds -- sets its expiration
        unconditionally (no max-merge).  This is the WAL-replay fast path:
        rows are already-validated hashable tuples, so the per-record
        ``make_row`` + arity check of :meth:`override`/:meth:`delete` is
        skipped.
        """
        self._lookups = None
        tuples = self._tuples
        for row, stamp in ops:
            if stamp is None:
                tuples.pop(row, None)
            else:
                tuples[row] = stamp if type(stamp) is Timestamp else from_raw(stamp)

    def _sweep_due(
        self,
        due: Iterable[Tuple[Row, Any]],
        now: Timestamp,
        collect: bool = False,
    ) -> Tuple[int, List[Tuple[Row, int]]]:
        """Bulk arm of the engine's expiration sweep.

        ``due`` holds index-reported ``(row, scheduled)`` entries; a row is
        removed when its *stored* expiration is ``<= now``.  Entries whose
        lifetime was max-merge-renewed after they were scheduled never
        expired and are skipped.  Returns ``(processed, expired)`` where,
        when ``collect`` is set, ``expired`` lists each removed row with
        the tick it was *stored* with (the ON-EXPIRE trigger payload)
        -- not the scheduled one: a stale entry left behind by an earlier
        incarnation of the row must not relabel what expired now.
        """
        tuples = self._tuples
        get = tuples.get
        expired: List[Tuple[Row, int]] = []
        processed = 0
        for row, _ in due:
            tick = get(row)
            if tick is None or tick > now or tick == RAW_INFINITY:
                continue
            del tuples[row]
            processed += 1
            if collect:
                expired.append((row, tick))
        return processed, expired

    def insert(self, values: Iterable[Any], expires_at: TimeLike = None) -> ExpiringTuple:
        """Insert a row; a duplicate keeps the later expiration time.

        ``expires_at=None`` means no expiration (``∞``), retaining textbook
        semantics.  Returns the stored :class:`ExpiringTuple` so callers can
        see the effective (possibly merged) expiration.
        """
        row = make_row(values)
        self._check_arity(row)
        stamp = ts(expires_at)
        existing = self._tuples.get(row)
        if existing is None:
            self._lookups = None
        elif stamp < existing:
            stamp = existing
        self._tuples[row] = stamp
        return ExpiringTuple(row, stamp)

    def override(self, values: Iterable[Any], expires_at: TimeLike) -> ExpiringTuple:
        """Set a row's expiration unconditionally (admin correction path)."""
        row = make_row(values)
        self._check_arity(row)
        stamp = ts(expires_at)
        if row not in self._tuples:
            self._lookups = None
        self._tuples[row] = stamp
        return ExpiringTuple(row, stamp)

    def delete(self, values: Iterable[Any]) -> bool:
        """Explicitly remove a row; returns whether it was present."""
        row = make_row(values)
        return self._tuples.pop(row, None) is not None

    def pop(self, row: Row) -> Optional[Timestamp]:
        """Remove an already-trusted row; its expiration, or ``None``."""
        return self._tuples.pop(row, None)

    def _check_arity(self, row: Row) -> None:
        if len(row) != self.schema.arity:
            raise RelationError(
                f"arity mismatch: row {row!r} has {len(row)} values, "
                f"schema expects {self.schema.arity}"
            )

    # -- the model's primitives ------------------------------------------------

    def exp_at(self, tau: TimeLike) -> "Relation":
        """The paper's ``exp_τ(R)``: tuples with ``texp_R(r) > τ``.

        Returns a new relation; the receiver is unchanged (lazy physical
        removal is the engine's concern, see ``repro.engine``).
        """
        stamp = ts(tau)
        # Through ``items()`` so a subclass that merges shards inherits this.
        survivors = {row: texp for row, texp in self.items() if stamp < texp}
        return Relation._from_trusted(self.schema, survivors)

    def expiration_of(self, values: Iterable[Any]) -> Timestamp:
        """The function ``texp_R(r)``; raises if the row is absent."""
        row = make_row(values)
        try:
            return self._tuples[row]
        except KeyError:
            raise RelationError(f"row {row!r} not in relation") from None

    def expiration_or_none(self, values: Iterable[Any]) -> Optional[Timestamp]:
        """Like :meth:`expiration_of` but ``None`` for absent rows."""
        return self._tuples.get(make_row(values))

    def alive_at(self, row: Row, tau: TimeLike) -> bool:
        """Whether ``row`` is in ``exp_τ(R)``: one stored-expiration probe."""
        try:
            texp = self._tuples.get(row)
        except TypeError:
            raise RelationError(f"tuple values must be hashable: {row!r}") from None
        return texp is not None and tau < texp

    def purge_expired(self, tau: TimeLike) -> int:
        """Physically remove tuples expired at ``τ``; returns the count.

        This is the *eager/lazy removal* hook of Section 3.2: ``exp_at``
        keeps expired tuples invisible; ``purge_expired`` reclaims them.
        """
        stamp = ts(tau)
        doomed = [row for row, texp in self._tuples.items() if texp <= stamp]
        for row in doomed:
            del self._tuples[row]
        return len(doomed)

    # -- whole-relation statistics -------------------------------------------

    def earliest_expiration(self) -> Timestamp:
        """``min`` of all tuple expirations; ``∞`` when empty."""
        return ts_min(self._tuples.values())

    def latest_expiration(self) -> Timestamp:
        """``max`` of all tuple expirations; ``Timestamp(0)`` when empty.

        This is the paper's "when has the whole partition expired" bound:
        ``min{τ' | exp_τ'(P) = ∅} = max{texp_P(t) | t ∈ P}``.
        """
        return ts_max(self._tuples.values())

    # -- iteration & access ------------------------------------------------------

    def rows(self) -> Iterator[Row]:
        """Iterate over the rows (no expiration times -- the query view)."""
        return iter(self._tuples)

    def items(self) -> Iterator[Tuple[Row, Timestamp]]:
        """Iterate over ``(row, expiration)`` pairs."""
        return iter(self._tuples.items())

    def items_of(self, rows: Iterable[Row]) -> Iterator[Tuple[Row, Timestamp]]:
        """``(row, expiration)`` of those of ``rows`` still stored."""
        get = self._tuples.get
        return ((row, texp) for row in rows if (texp := get(row)) is not None)

    def lookup(self, column: int) -> Optional[ColumnLookup]:
        """``column``'s lookup, or ``None``: scan.  It is built at the
        second probe that finds no row added since the previous one, and
        never below :data:`LOOKUP_FLOOR` rows."""
        if len(self._tuples) < LOOKUP_FLOOR:
            return None
        if self._lookups is None:
            self._lookups = {}
        state = self._lookups.get(column)
        if state is None:  # the first probe since a row was last added
            self._lookups[column] = True
        elif state is True:
            state = self._lookups[column] = ColumnLookup(self._tuples, column)
        return state

    def expiring_tuples(self) -> Iterator[ExpiringTuple]:
        """Iterate over :class:`ExpiringTuple` views of the content."""
        for row, stamp in self._tuples.items():
            yield ExpiringTuple(row, stamp)

    def contains(self, values: Iterable[Any]) -> bool:
        """Whether the row is present (regardless of expiration)."""
        return make_row(values) in self._tuples

    def __contains__(self, values: Iterable[Any]) -> bool:
        return self.contains(values)

    @property
    def arity(self) -> int:
        """Number of attributes, the paper's ``α(R)``."""
        return self.schema.arity

    def __len__(self) -> int:
        return len(self._tuples)

    def __bool__(self) -> bool:
        return bool(self._tuples)

    def __iter__(self) -> Iterator[Row]:
        return self.rows()

    # -- copies & equality ----------------------------------------------------

    def copy(self) -> "Relation":
        """A deep-enough copy (rows are immutable, so a dict copy suffices)."""
        return Relation._from_trusted(self.schema, dict(self._tuples))

    def same_content(self, other: "Relation") -> bool:
        """Equality of rows *and* expiration times (schema names ignored).

        The theorems of the paper quantify over relation contents, not
        attribute naming, so content equality is the right notion for
        checking ``exp_τ'(e) == exp_τ'(exp_τ(e))``.
        """
        if self.schema.arity != other.schema.arity:
            return False
        return self._tuples == other._tuples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.schema == other.schema and self._tuples == other._tuples

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("relations are mutable and unhashable")

    def __repr__(self) -> str:
        return (
            f"Relation(schema={list(self.schema.names)!r}, "
            f"tuples={len(self._tuples)})"
        )

    def pretty(self, title: str = "") -> str:
        """A small fixed-width rendering in the style of the paper's figures.

        The expiration-time column is set apart (``texp(.)``) to mirror the
        paper's convention that it is not a user-accessible attribute.
        """
        header = ["texp(.)"] + list(self.schema.names)
        body_rows = sorted(
            ([str(stamp)] + [repr(v) for v in row] for row, stamp in self._tuples.items()),
            key=lambda cells: cells[1:],
        )
        widths = [len(h) for h in header]
        for cells in body_rows:
            for i, cell in enumerate(cells):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if title:
            lines.append(title)
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for cells in body_rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        if not body_rows:
            lines.append("(empty)")
        return "\n".join(lines)


def relation_from_rows(
    schema: Schema | Sequence[str] | int,
    rows: Iterable[Tuple[Sequence[Any], TimeLike]],
) -> Relation:
    """Convenience constructor from ``(values, expires_at)`` pairs.

    >>> rel = relation_from_rows(["uid", "deg"], [((1, 25), 10), ((2, 25), 15)])
    >>> len(rel)
    2
    """
    relation = Relation(schema)
    for values, expires_at in rows:
        relation.insert(values, expires_at=expires_at)
    return relation
