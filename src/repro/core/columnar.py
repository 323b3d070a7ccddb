"""Columnar twin of :class:`~repro.core.relation.Relation`.

The row engine stores a relation as ``Dict[Row, Timestamp]`` -- ideal for
point lookups and max-merge inserts, but every whole-relation operation
(the paper's ``exp_τ`` restriction above all) then pays per-row Python
object traffic: tuple hashing, a ``Timestamp`` object per row, generator
frames.  :class:`ColumnarRelation` keeps the same *logical* content as
parallel per-attribute arrays plus a raw ``int64`` expiration array::

    _cols  = [[uid...], [deg...]]      # one Python list per attribute
    _texp  = array('q', [10, 15, ...]) # the ticks; RAW_INFINITY is ∞

so ``exp_τ(R)`` becomes a single-pass compare of a machine-int column
against a scalar, and the compiled evaluator's batch kernels
(``core/algebra/compiler.py``) can move whole column slices instead of
``(row, texp)`` pairs.

Duplicate policy, ``exp_at``, max-merge-on-insert, and the whole
:class:`Relation` API are preserved bit-for-bit -- the differential suite
(`tests/core/algebra/test_compiler_differential.py`) and ``repro.check``
treat row and columnar layouts as interchangeable oracles.

Point mutations stay O(1): a lazy ``row -> position`` map serves lookups
and deletion compacts by swapping the last row into the hole, keeping the
arrays dense so sweeps and scans never skip tombstones.
"""

from __future__ import annotations

from array import array
from itertools import compress as _compress
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.relation import Relation
from repro.core.schema import Schema, anonymous_schema
from repro.core.timestamps import (
    INFINITY,
    RAW_INFINITY,
    TimeLike,
    Timestamp,
    from_raw,
    ts,
)
from repro.core.tuples import ExpiringTuple, Row, make_row
from repro.errors import RelationError

__all__ = [
    "RAW_INFINITY",
    "ColumnBatch",
    "ColumnarRelation",
]


class ColumnBatch:
    """A column-sliced payload flowing between compiled batch kernels.

    ``columns[i]`` holds attribute ``i`` for every surviving row and
    ``texp`` the matching raw expiration ticks; all sequences share one
    length.  Columns are *read-only by convention*: kernels that reshape
    data always build fresh lists (or arrays), so a batch may alias a
    relation's live storage with zero copies.  ``owned=True`` marks a
    batch whose column/texp sequences were freshly built by a kernel and
    are referenced by nothing else -- the plan root may then adopt them
    into a result relation without a defensive copy.
    """

    __slots__ = ("columns", "texp", "owned")

    def __init__(
        self, columns: Sequence[Any], texp: Any, owned: bool = False
    ) -> None:
        self.columns = list(columns)
        self.texp = texp
        self.owned = owned

    def __len__(self) -> int:
        return len(self.texp)

    def iter_rows(self) -> Iterator[Row]:
        if self.columns:
            return zip(*self.columns)
        return iter([()] * len(self.texp))

    def pairs(self) -> Iterator[Tuple[Row, Timestamp]]:
        """Fallback bridge to the row engine's ``(row, texp)`` streams."""
        decode = from_raw
        for row, raw in zip(self.iter_rows(), self.texp):
            yield row, decode(raw)


class ColumnarRelation(Relation):
    """A :class:`Relation` stored as parallel attribute/texp arrays.

    Drop-in compatible: every inherited behaviour (max-merge insert,
    ``exp_at``, equality, ``same_content``) holds, so engine layers and
    the invariant checker treat the two layouts interchangeably.  The
    inherited ``_tuples`` slot is shadowed by a snapshot property, the
    same trick ``ShardedRelation`` uses, which keeps dict-shaped
    consumers (equality, pretty-printing, audits) working unmodified.
    """

    __slots__ = ("_cols", "_texp", "_rowmap")

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
        self._cols: List[List[Any]] = [[] for _ in range(self.schema.arity)]
        self._texp = array("q")
        self._rowmap: Optional[Dict[Row, int]] = None
        if tuples:
            for row, stamp in tuples.items():
                self.insert(row, expires_at=stamp)

    # -- construction --------------------------------------------------------

    @classmethod
    def _from_columns(
        cls,
        schema: Schema,
        columns: Sequence[Sequence[Any]],
        texp_raw: Iterable[int],
    ) -> "ColumnarRelation":
        """Adopt already-deduplicated column data (trusted fast path).

        The columnar analogue of :meth:`Relation._from_trusted`: rows at
        the same index across ``columns`` must be distinct hashable
        tuples and ``texp_raw`` raw-encoded ticks.  Lists are adopted,
        not copied.
        """
        relation = cls.__new__(cls)
        relation.schema = schema
        relation._cols = [
            col if type(col) is list else list(col) for col in columns
        ]
        relation._texp = (
            texp_raw if type(texp_raw) is array else array("q", texp_raw)
        )
        relation._rowmap = None
        return relation

    @classmethod
    def from_relation(cls, source: Relation) -> "ColumnarRelation":
        """Columnar copy of any relation (used by tests and benchmarks)."""
        arity = source.schema.arity
        cols: List[List[Any]] = [[] for _ in range(arity)]
        texp = array("q")
        for row, stamp in source.items():
            for i in range(arity):
                cols[i].append(row[i])
            texp.append(stamp)
        return cls._from_columns(source.schema, cols, texp)

    # -- internal plumbing ---------------------------------------------------

    def _iter_rows(self) -> Iterator[Row]:
        if self._cols:
            return zip(*self._cols)
        return iter([()] * len(self._texp))

    def _ensure_rowmap(self) -> Dict[Row, int]:
        rowmap = self._rowmap
        if rowmap is None:
            rowmap = {row: i for i, row in enumerate(self._iter_rows())}
            self._rowmap = rowmap
        return rowmap

    @property
    def _tuples(self) -> Dict[Row, Timestamp]:  # type: ignore[override]
        """Row-engine-shaped snapshot (equality, audits, pretty printing)."""
        decode = from_raw
        return {
            row: decode(raw)
            for row, raw in zip(self._iter_rows(), self._texp)
        }

    # -- batch access for the compiled evaluator -----------------------------

    def batch(
        self,
        tau: Optional[int] = None,
        keep: Optional[Sequence[int]] = None,
    ) -> ColumnBatch:
        """The relation's content as a :class:`ColumnBatch`.

        With ``tau`` the batch is exp-filtered (``texp > τ``) in one
        pass over the raw array -- the whole-column form of ``exp_τ``.
        Without a filter the live storage is aliased zero-copy.  ``keep``
        prunes the scan to the given column indexes (in ``keep`` order):
        columns no downstream kernel touches are never materialised.
        """
        texp = self._texp
        cols = self._cols if keep is None else [self._cols[i] for i in keep]
        if tau is None:
            return ColumnBatch(cols, texp)
        # Flag-and-compress beats an index-list gather: the survivors are
        # copied out by itertools.compress at C speed instead of one
        # ``col[i]`` subscript per (row, attribute).
        flags = [tick > tau for tick in texp]
        if all(flags):
            return ColumnBatch(cols, texp)
        compress = _compress
        # The filtered texp comes out as a plain list: building an
        # array("q") here costs ~2.4x a list, and every downstream kernel
        # consumes either; only the plan root re-encodes (once).
        return ColumnBatch(
            [list(compress(col, flags)) for col in cols],
            list(compress(texp, flags)),
            owned=True,
        )

    # -- mutation ------------------------------------------------------------

    def bulk_load(self, pairs: Iterable[Tuple[Row, Timestamp]]) -> int:
        rowmap = self._ensure_rowmap()
        cols = self._cols
        texp = self._texp
        if not texp:
            # Into an empty relation (a snapshot load): the columns and
            # the tick array are extended whole, unless a row repeats and
            # has to be merged after all.
            pairs = list(pairs)
            if pairs:
                rows, ticks = zip(*pairs)
                rowmap.update(zip(rows, range(len(rows))))
                if len(rowmap) == len(rows):
                    for col, values in zip(cols, zip(*rows)):
                        col.extend(values)
                    texp.extend(ticks)
                    return len(rows)
                rowmap.clear()
        count = 0
        for row, tick in pairs:
            pos = rowmap.get(row)
            if pos is None:
                rowmap[row] = len(texp)
                for i, col in enumerate(cols):
                    col.append(row[i])
                texp.append(tick)
            elif texp[pos] < tick:
                texp[pos] = tick
            count += 1
        return count

    def bulk_restore(
        self, ops: Iterable[Tuple[Row, Optional[Timestamp]]]
    ) -> None:
        """Apply trusted ``(row, texp-or-None)`` ops with override semantics.

        ``None`` deletes; a tick sets the expiration unconditionally.  The
        WAL replay fast path.
        """
        rowmap = self._ensure_rowmap()
        cols = self._cols
        texp = self._texp
        for row, tick in ops:
            pos = rowmap.get(row)
            if tick is None:
                if pos is not None:
                    self._swap_remove(rowmap, pos, row)
                continue
            if pos is None:
                rowmap[row] = len(texp)
                for i, col in enumerate(cols):
                    col.append(row[i])
                texp.append(tick)
            else:
                texp[pos] = tick

    def insert(
        self, values: Iterable[Any], expires_at: TimeLike = None
    ) -> ExpiringTuple:
        row = make_row(values)
        self._check_arity(row)
        stamp = ts(expires_at)
        rowmap = self._ensure_rowmap()
        texp = self._texp
        pos = rowmap.get(row)
        if pos is None:
            rowmap[row] = len(texp)
            for i, col in enumerate(self._cols):
                col.append(row[i])
            texp.append(stamp)
        elif texp[pos] < stamp:
            texp[pos] = stamp
        else:
            stamp = from_raw(texp[pos])
        return ExpiringTuple(row, stamp)

    def override(
        self, values: Iterable[Any], expires_at: TimeLike
    ) -> ExpiringTuple:
        row = make_row(values)
        self._check_arity(row)
        stamp = ts(expires_at)
        rowmap = self._ensure_rowmap()
        texp = self._texp
        pos = rowmap.get(row)
        if pos is None:
            rowmap[row] = len(texp)
            for i, col in enumerate(self._cols):
                col.append(row[i])
            texp.append(stamp)
        else:
            texp[pos] = stamp
        return ExpiringTuple(row, stamp)

    def _swap_remove(self, rowmap: Dict[Row, int], pos: int, row: Row) -> None:
        """Fill the hole at ``pos`` with the last row; arrays stay dense."""
        cols = self._cols
        texp = self._texp
        last = len(texp) - 1
        if pos != last:
            moved = tuple(col[last] for col in cols)
            for col in cols:
                col[pos] = col[last]
            texp[pos] = texp[last]
            rowmap[moved] = pos
        for col in cols:
            col.pop()
        texp.pop()
        del rowmap[row]

    def delete(self, values: Iterable[Any]) -> bool:
        row = make_row(values)
        rowmap = self._ensure_rowmap()
        pos = rowmap.get(row)
        if pos is None:
            return False
        self._swap_remove(rowmap, pos, row)
        return True

    def purge_expired(self, tau: TimeLike) -> int:
        tau = ts(tau)
        texp = self._texp
        flags = [tick > tau for tick in texp]
        purged = len(texp) - sum(flags)
        if purged:
            compress = _compress
            self._cols = [
                list(compress(col, flags)) for col in self._cols
            ]
            self._texp = array("q", compress(texp, flags))
            self._rowmap = None
        return purged

    def _sweep_due(
        self,
        due: Iterable[Tuple[Row, Any]],
        now: Timestamp,
        collect: bool = False,
    ) -> Tuple[int, List[Tuple[Row, int]]]:
        """Bulk arm of the engine's expiration sweep.

        ``due`` holds index-reported ``(row, scheduled)`` entries; a row is
        removed when its *stored* expiration is ``<= now`` -- entries whose
        lifetime was max-merge-renewed after scheduling are skipped, exactly
        like the row engine's ``expiration_or_none`` + ``delete`` loop, but
        compared straight off the texp array.  Returns ``(processed,
        expired)`` where, when ``collect`` is set, ``expired`` lists each
        removed row with the tick it was *stored* with (for ON-EXPIRE
        triggers), as :meth:`Relation._sweep_due` does.
        """
        rowmap = self._ensure_rowmap()
        texp = self._texp
        expired: List[Tuple[Row, int]] = []
        processed = 0
        for row, _ in due:
            pos = rowmap.get(row)
            if pos is None:
                continue
            tick = texp[pos]
            if tick > now or tick == RAW_INFINITY:
                continue
            self._swap_remove(rowmap, pos, row)
            processed += 1
            if collect:
                expired.append((row, tick))
        return processed, expired

    # -- the model's primitives ----------------------------------------------

    def exp_at(self, tau: TimeLike) -> "ColumnarRelation":
        tau = ts(tau)
        texp = self._texp
        flags = [tick > tau for tick in texp]
        if all(flags):
            return self.copy()
        compress = _compress
        return ColumnarRelation._from_columns(
            self.schema,
            [list(compress(col, flags)) for col in self._cols],
            array("q", compress(texp, flags)),
        )

    def expiration_of(self, values: Iterable[Any]) -> Timestamp:
        row = make_row(values)
        pos = self._ensure_rowmap().get(row)
        if pos is None:
            raise RelationError(f"row {row!r} not in relation")
        return from_raw(self._texp[pos])

    def expiration_or_none(self, values: Iterable[Any]) -> Optional[Timestamp]:
        pos = self._ensure_rowmap().get(make_row(values))
        return None if pos is None else from_raw(self._texp[pos])

    def alive_at(self, row: Row, tau: TimeLike) -> bool:
        try:
            pos = self._ensure_rowmap().get(row)
        except TypeError:
            raise RelationError(f"tuple values must be hashable: {row!r}") from None
        return pos is not None and tau < self._texp[pos]

    def earliest_expiration(self) -> Timestamp:
        if not len(self._texp):
            return INFINITY
        return from_raw(min(self._texp))

    def latest_expiration(self) -> Timestamp:
        if not len(self._texp):
            return Timestamp(0)
        return from_raw(max(self._texp))

    # -- iteration & access --------------------------------------------------

    def rows(self) -> Iterator[Row]:
        return self._iter_rows()

    def items(self) -> Iterator[Tuple[Row, Timestamp]]:
        decode = from_raw
        for row, raw in zip(self._iter_rows(), self._texp):
            yield row, decode(raw)

    def expiring_tuples(self) -> Iterator[ExpiringTuple]:
        for row, stamp in self.items():
            yield ExpiringTuple(row, stamp)

    def contains(self, values: Iterable[Any]) -> bool:
        return make_row(values) in self._ensure_rowmap()

    def __len__(self) -> int:
        return len(self._texp)

    def __bool__(self) -> bool:
        return len(self._texp) > 0

    # -- copies --------------------------------------------------------------

    def copy(self) -> "ColumnarRelation":
        return ColumnarRelation._from_columns(
            self.schema,
            [list(col) for col in self._cols],
            array("q", self._texp),
        )

    def __repr__(self) -> str:
        return (
            f"ColumnarRelation(schema={list(self.schema.names)!r}, "
            f"tuples={len(self._texp)})"
        )
