"""Hash-partitioned storage: one bulk expiration sweep per shard.

The paper's companion report ("Efficient Management of Short-Lived Data")
argues that physical removal of expired tuples must be *bulk* work to keep
up with high-churn workloads.  This module supplies the storage-layer half
of that story: :class:`ShardedRelation`, a drop-in
:class:`~repro.core.relation.Relation` that hash-partitions rows on one key
column into ``N`` independent shard relations; reads merge.

A :class:`~repro.engine.table.Table` created with ``partitions=N`` stores
its rows in one, writes each row to the shard ``hash(row[key]) % N``,
keeps an expiration index and a due buffer beside each shard, and sweeps
them with one bulk kernel per shard, timed and counted in the
``repro_partition_*`` families.  That is all partitioning means: nothing
here starts a thread, and shards are swept and scanned one after another
on the calling thread (measured in EXPERIMENTS.md X21: under the GIL a
pool made every partitioned scan and every small sweep slower).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.timestamps import TimeLike, Timestamp
from repro.core.tuples import Row, make_row
from repro.errors import EngineError, RelationError

__all__ = ["ShardedRelation"]


class ShardedRelation(Relation):
    """A relation hash-partitioned on one key column.

    Reads exactly like a flat :class:`Relation` (same rows, same
    ``exp_τ``) over ``partitions`` independent shard relations; writes go
    through the owning :class:`~repro.engine.table.Table`, which routes
    each row once.  The compiled evaluator's source stage detects the
    :attr:`shards` attribute and scans shard after shard -- a flat
    relation is its one-shard case.
    """

    __slots__ = ("key_index", "shard_count", "shards")

    def __init__(
        self,
        schema: Schema,
        key_index: int,
        partitions: int,
        relation_factory=Relation,
    ) -> None:
        if partitions < 1:
            raise EngineError(f"partitions must be >= 1, got {partitions}")
        if not 0 <= key_index < schema.arity:
            raise EngineError(
                f"partition key index {key_index} out of range for arity "
                f"{schema.arity}"
            )
        self.schema = schema
        self.key_index = key_index
        self.shard_count = partitions
        # Shards default to flat row relations; a columnar table passes a
        # factory so each shard stores column arrays instead.
        self.shards: Tuple[Relation, ...] = tuple(
            relation_factory(schema) for _ in range(partitions)
        )

    # The flat superclass reads ``self._tuples`` in the methods not
    # overridden below (``same_content``, ``__eq__``, ``pretty``, the
    # whole-relation expiration bounds); a merged read-only snapshot keeps
    # those working on either side of a flat/sharded comparison.
    @property  # type: ignore[override]
    def _tuples(self):
        merged = {}
        for shard in self.shards:
            merged.update(shard._tuples)
        return merged

    def shard_of(self, row: Row) -> Relation:
        """The shard relation owning ``row``."""
        return self.shards[hash(row[self.key_index]) % self.shard_count]

    def owner_of(self, column: int, value: Any) -> Optional[int]:
        """The one shard index a ``column == value`` row can have, if any."""
        return hash(value) % self.shard_count if column == self.key_index else None

    def partition(self, entries: Iterable[tuple]) -> List[list]:
        """``entries`` (tuples led by their row) bucketed by owning shard."""
        key = self.key_index
        n = self.shard_count
        buckets: List[list] = [[] for _ in range(n)]
        for entry in entries:
            buckets[hash(entry[0][key]) % n].append(entry)
        return buckets

    def _written_through_table(self, *args, **kwargs):
        # The inherited mutators would write into the merged ``_tuples``
        # snapshot above and lose the row silently.
        raise EngineError(
            "a ShardedRelation is written through its Table, which routes "
            "each row to the owning shard's relation"
        )

    insert = override = delete = _written_through_table
    bulk_load = bulk_restore = purge_expired = _written_through_table

    # -- the model's primitives (merged reads) -----------------------------

    def expiration_of(self, values: Iterable[Any]) -> Timestamp:
        row = make_row(values)
        return self.shard_of(row).expiration_of(row)

    def expiration_or_none(self, values: Iterable[Any]) -> Optional[Timestamp]:
        row = make_row(values)
        return self.shard_of(row).expiration_or_none(row)

    def alive_at(self, row: Row, tau: TimeLike) -> bool:
        try:
            shard = self.shard_of(row)
        except TypeError:
            raise RelationError(f"tuple values must be hashable: {row!r}") from None
        return shard.alive_at(row, tau)

    # -- iteration & access ------------------------------------------------

    def rows(self) -> Iterator[Row]:
        for shard in self.shards:
            yield from shard.rows()

    def items(self) -> Iterator[Tuple[Row, Timestamp]]:
        for shard in self.shards:
            yield from shard.items()

    def contains(self, values: Iterable[Any]) -> bool:
        row = make_row(values)
        return self.shard_of(row).contains(row)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __bool__(self) -> bool:
        return any(len(shard) for shard in self.shards)

    def copy(self) -> Relation:
        """A *flat* snapshot copy (partitioning is physical, not logical)."""
        return Relation._from_trusted(self.schema, dict(self.items()))

    def __repr__(self) -> str:
        return (
            f"ShardedRelation(schema={list(self.schema.names)!r}, "
            f"tuples={len(self)}, shards={self.shard_count})"
        )
