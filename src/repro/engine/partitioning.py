"""Hash-partitioned storage for partition-parallel expiration sweeps.

The paper's companion report ("Efficient Management of Short-Lived Data")
argues that physical removal of expired tuples must be *bulk* work to keep
up with high-churn workloads.  This module supplies the storage-layer half
of that story: :class:`ShardedRelation`, a drop-in
:class:`~repro.core.relation.Relation` that hash-partitions rows on one key
column into ``N`` independent shard relations.  Every operation routes by
``hash(row[key]) % N``; reads merge.

A :class:`~repro.engine.table.Table` created with ``partitions=N`` stores
its rows in one, keeps an expiration index and a due buffer beside each
shard, and sweeps them with one bulk kernel per shard, timed and counted
in the ``repro_partition_*`` families.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Tuple

from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.timestamps import TimeLike, Timestamp, ts, ts_max, ts_min
from repro.core.tuples import ExpiringTuple, Row, make_row
from repro.errors import EngineError

__all__ = ["ShardedRelation"]


class ShardedRelation(Relation):
    """A relation hash-partitioned on one key column.

    Behaves exactly like a flat :class:`Relation` (same rows, same
    max-merge duplicate rule, same ``exp_τ``), but stores its tuples in
    ``partitions`` independent shard relations.  The compiled evaluator
    detects the :attr:`shards` attribute and fans per-shard pipelines out
    over a thread pool; sequential callers are oblivious.
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

    # The flat superclass reads ``self._tuples`` in the few methods not
    # overridden below (``same_content``, ``__eq__``, ``pretty``); a merged
    # read-only snapshot keeps those working on either side of a
    # flat/sharded comparison.  Mutators never touch it -- they all route.
    @property  # type: ignore[override]
    def _tuples(self):
        merged = {}
        for shard in self.shards:
            merged.update(shard._tuples)
        return merged

    def shard_of(self, row: Row) -> Relation:
        """The shard relation owning ``row``."""
        return self.shards[hash(row[self.key_index]) % self.shard_count]

    # -- construction & mutation (all routed) ------------------------------

    def partition(self, entries: Iterable[tuple]) -> List[list]:
        """``entries`` (tuples led by their row) bucketed by owning shard."""
        key = self.key_index
        n = self.shard_count
        buckets: List[list] = [[] for _ in range(n)]
        for entry in entries:
            buckets[hash(entry[0][key]) % n].append(entry)
        return buckets

    def bulk_load(self, pairs: Iterable[Tuple[Row, Timestamp]]) -> int:
        count = 0
        for shard, bucket in zip(self.shards, self.partition(pairs)):
            if bucket:
                count += shard.bulk_load(bucket)
        return count

    def bulk_restore(self, ops) -> None:
        for shard, bucket in zip(self.shards, self.partition(ops)):
            if bucket:
                shard.bulk_restore(bucket)

    def insert(self, values: Iterable[Any], expires_at: TimeLike = None) -> ExpiringTuple:
        row = make_row(values)
        self._check_arity(row)
        return self.shard_of(row).insert(row, expires_at=expires_at)

    def override(self, values: Iterable[Any], expires_at: TimeLike) -> ExpiringTuple:
        row = make_row(values)
        self._check_arity(row)
        return self.shard_of(row).override(row, expires_at=expires_at)

    def delete(self, values: Iterable[Any]) -> bool:
        row = make_row(values)
        return self.shard_of(row).delete(row)

    def purge_expired(self, tau: TimeLike) -> int:
        stamp = ts(tau)
        return sum(shard.purge_expired(stamp) for shard in self.shards)

    # -- the model's primitives (merged reads) -----------------------------

    def exp_at(self, tau: TimeLike) -> Relation:
        stamp = ts(tau)
        survivors = {}
        for shard in self.shards:
            for row, texp in shard.items():
                if stamp < texp:
                    survivors[row] = texp
        return Relation._from_trusted(self.schema, survivors)

    def expiration_of(self, values: Iterable[Any]) -> Timestamp:
        row = make_row(values)
        return self.shard_of(row).expiration_of(row)

    def expiration_or_none(self, values: Iterable[Any]) -> Optional[Timestamp]:
        row = make_row(values)
        return self.shard_of(row).expiration_or_none(row)

    def earliest_expiration(self) -> Timestamp:
        return ts_min(shard.earliest_expiration() for shard in self.shards)

    def latest_expiration(self) -> Timestamp:
        return ts_max(shard.latest_expiration() for shard in self.shards)

    # -- iteration & access ------------------------------------------------

    def rows(self) -> Iterator[Row]:
        for shard in self.shards:
            yield from shard.rows()

    def items(self) -> Iterator[Tuple[Row, Timestamp]]:
        for shard in self.shards:
            yield from shard.items()

    def expiring_tuples(self) -> Iterator[ExpiringTuple]:
        for row, stamp in self.items():
            yield ExpiringTuple(row, stamp)

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
