"""Hash-partitioned tables with partition-parallel expiration sweeps.

The paper's companion report ("Efficient Management of Short-Lived Data")
argues that physical removal of expired tuples must be *bulk* work to keep
up with high-churn workloads.  This module supplies the storage-layer half
of that story:

* :class:`ShardedRelation` -- a drop-in :class:`~repro.core.relation.Relation`
  that hash-partitions rows on one key column into ``N`` independent shard
  relations.  Every operation routes by ``hash(row[key]) % N``; reads merge.
* :class:`ShardedExpirationIndex` -- one
  :class:`~repro.engine.expiration_index.ExpirationIndex` per shard, routed
  the same way, so each shard's due tuples can be drained independently.
* :class:`PartitionedTable` -- a :class:`~repro.engine.table.Table` whose
  relation/index/due-buffer are sharded and whose expiration sweeps and
  vacuums run one *bulk kernel per shard*, fanned out on the database's
  shared :class:`~concurrent.futures.ThreadPoolExecutor`.

The sweep kernel is where the throughput comes from: instead of the flat
table's per-tuple ``expiration_or_none`` + ``delete`` + two registry-backed
counter round-trips, each shard worker walks its raw due list against its
own ``row -> texp`` dict (one ``get`` + one ``del`` per tuple) and all
statistics are written once per sweep.  ON-EXPIRE triggers are collected by
the workers and fired from the calling thread, shard by shard, so trigger
code never runs concurrently.

Per-shard observability lands in the ``repro_partition_*`` families
(:func:`declare_partition_families`), labelled by table and shard.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Iterable, Iterator, List, Optional, Tuple

from repro.core.columnar import ColumnarRelation
from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.timestamps import INFINITY, TimeLike, Timestamp, ts, ts_max, ts_min
from repro.core.tuples import ExpiringTuple, Row, make_row
from repro.engine.clock import LogicalClock
from repro.engine.expiration_index import ExpirationIndex, RemovalPolicy
from repro.engine.statistics import EngineStatistics
from repro.engine.table import Table
from repro.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.engine.database import Database

__all__ = [
    "ShardedRelation",
    "ShardedExpirationIndex",
    "PartitionedTable",
    "declare_partition_families",
]


def declare_partition_families(registry):
    """Idempotently register the per-shard sweep families.

    Returns ``(shard_sweep_seconds, shard_tuples_expired)``, both labelled
    by ``(table, shard)``.
    """
    sweep = registry.histogram(
        "repro_partition_sweep_seconds",
        "Wall time of per-shard expiration sweep kernels.",
        labels=("table", "shard"),
    )
    expired = registry.counter(
        "repro_partition_tuples_expired_total",
        "Tuples physically expired per partition shard.",
        labels=("table", "shard"),
    )
    return sweep, expired


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
        relation_factory=None,
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
        factory = relation_factory if relation_factory is not None else Relation
        self.shards: Tuple[Relation, ...] = tuple(
            factory(schema) for _ in range(partitions)
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

    def bulk_load(self, pairs: Iterable[Tuple[Row, Timestamp]]) -> int:
        key = self.key_index
        n = self.shard_count
        buckets: List[List[Tuple[Row, Timestamp]]] = [[] for _ in range(n)]
        count = 0
        for row, stamp in pairs:
            buckets[hash(row[key]) % n].append((row, stamp))
            count += 1
        for shard, bucket in zip(self.shards, buckets):
            if bucket:
                shard.bulk_load(bucket)
        return count

    def bulk_restore(self, ops) -> None:
        key = self.key_index
        n = self.shard_count
        buckets: List[list] = [[] for _ in range(n)]
        for op in ops:
            buckets[hash(op[0][key]) % n].append(op)
        for shard, bucket in zip(self.shards, buckets):
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


class ShardedExpirationIndex(ExpirationIndex):
    """One expiration index per shard, routed like :class:`ShardedRelation`."""

    def __init__(
        self,
        key_index: int,
        partitions: int,
        index_factory=None,
    ) -> None:
        self.key_index = key_index
        self.shard_count = partitions
        factory = index_factory if index_factory is not None else ExpirationIndex
        self.shards: Tuple[ExpirationIndex, ...] = tuple(
            factory() for _ in range(partitions)
        )

    def shard_of(self, row: Row) -> ExpirationIndex:
        """The shard index owning ``row``."""
        return self.shards[hash(row[self.key_index]) % self.shard_count]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    @property
    def heap_size(self) -> int:
        return sum(shard.heap_size for shard in self.shards)

    def schedule(self, row: Row, expires_at: TimeLike) -> None:
        self.shard_of(row).schedule(row, expires_at)

    def bulk_schedule(self, entries) -> None:
        """Route a bulk load per shard, then bulk-schedule each shard.

        Shards from a custom ``index_factory`` without a
        ``bulk_schedule`` (e.g. the timer wheel) fall back to per-entry
        scheduling.
        """
        buckets: List[List] = [[] for _ in self.shards]
        key = self.key_index
        count = self.shard_count
        for entry in entries:
            buckets[hash(entry[0][key]) % count].append(entry)
        for shard, bucket in zip(self.shards, buckets):
            if not bucket:
                continue
            bulk = getattr(shard, "bulk_schedule", None)
            if bulk is not None:
                bulk(bucket)
            else:
                for row, expires_at in bucket:
                    shard.schedule(row, expires_at)

    def remove(self, row: Row) -> None:
        self.shard_of(row).remove(row)

    def next_expiration(self) -> Optional[Timestamp]:
        earliest: Optional[Timestamp] = None
        for shard in self.shards:
            candidate = shard.next_expiration()
            if candidate is not None and (earliest is None or candidate < earliest):
                earliest = candidate
        return earliest

    def pop_due(self, now: TimeLike) -> List[Tuple[Row, Timestamp]]:
        stamp = ts(now)
        limit = stamp.value if stamp.is_finite else None
        due: List[Tuple[Row, Timestamp]] = []
        for shard in self.shards:
            due.extend((row, ts(value)) for row, value in shard.pop_due_raw(limit))
        return due

    def pop_due_raw(self, limit: Optional[int]) -> List[Tuple[Row, int]]:
        due: List[Tuple[Row, int]] = []
        for shard in self.shards:
            due.extend(shard.pop_due_raw(limit))
        return due

    def pending_raw(self) -> Iterator[Tuple[Row, int]]:
        for shard in self.shards:
            yield from shard.pending_raw()

    def clear(self) -> None:
        for shard in self.shards:
            shard.clear()


class PartitionedTable(Table):
    """A table hash-partitioned on ``partition_key`` into ``partitions`` shards.

    Identical external behaviour to :class:`Table` -- same insert/delete/
    read/trigger/constraint semantics, same per-policy expiration metrics --
    plus:

    * expiration sweeps and vacuums run a bulk kernel per shard, fanned out
      on the owning database's shared thread pool (sequentially when the
      table is standalone);
    * the compiled evaluator scans, filters, and builds hash-join inputs
      per shard in parallel (it detects ``relation.shards``);
    * per-shard sweep timings and expiry counts land in the
      ``repro_partition_*`` metric families.

    One observable deviation: the flat table fires ON-EXPIRE triggers in
    global expiration order; a partitioned sweep fires them grouped by
    shard (ordered within each shard).
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        clock: LogicalClock,
        partitions: int,
        partition_key: Any = None,
        statistics: Optional[EngineStatistics] = None,
        removal_policy: RemovalPolicy = RemovalPolicy.EAGER,
        lazy_batch_size: int = 64,
        database: Optional["Database"] = None,
        index_factory=None,
        layout: str = "row",
        columnar_backend: Optional[str] = None,
        expiry: str = "absolute",
        default_ttl: Optional[int] = None,
    ) -> None:
        super().__init__(
            name,
            schema,
            clock,
            statistics=statistics,
            removal_policy=removal_policy,
            lazy_batch_size=lazy_batch_size,
            database=database,
            index_factory=index_factory,
            layout=layout,
            columnar_backend=columnar_backend,
            expiry=expiry,
            default_ttl=default_ttl,
        )
        if partitions < 1:
            raise EngineError(f"partitions must be >= 1, got {partitions}")
        if partition_key is None:
            partition_key = schema.names[0]
        key_index = schema.index(partition_key)
        self.partitions = partitions
        self.partition_key = schema.name(key_index + 1)
        self.key_index = key_index
        relation_factory = None
        if self.layout == "columnar":
            backend = self.columnar_backend

            def relation_factory(shard_schema, _backend=backend):
                return ColumnarRelation(shard_schema, backend=_backend)

        self.relation = ShardedRelation(
            schema, key_index, partitions, relation_factory=relation_factory
        )
        self._index = ShardedExpirationIndex(key_index, partitions, index_factory)
        # Per-shard due buffers (raw ints), replacing the flat _due_buffer.
        self._due_buffers: List[List[Tuple[Row, int]]] = [
            [] for _ in range(partitions)
        ]
        self._shard_sweep_seconds, self._shard_tuples_expired = (
            declare_partition_families(self.statistics.registry)
        )

    # -- expiration processing ---------------------------------------------

    def on_clock_advance(self, old: Timestamp, new: Timestamp) -> None:
        if self.removal_policy is RemovalPolicy.EAGER:
            self.process_expirations(new)
            return
        limit = new.value if new.is_finite else None
        pending = 0
        for i, shard_index in enumerate(self._index.shards):
            buffer = self._due_buffers[i]
            buffer.extend(shard_index.pop_due_raw(limit))
            pending += len(buffer)
        if pending >= self.lazy_batch_size:
            self.vacuum(new)

    def process_expirations(self, now: Optional[TimeLike] = None) -> int:
        stamp = self.clock.now if now is None else ts(now)
        started = time.perf_counter()
        limit = stamp.value if stamp.is_finite else None
        jobs: List[Tuple[int, List[Tuple[Row, int]]]] = []
        for i, shard_index in enumerate(self._index.shards):
            due = self._due_buffers[i]
            self._due_buffers[i] = []
            due.extend(shard_index.pop_due_raw(limit))
            if due:
                jobs.append((i, due))
        if not jobs:
            self._maybe_verify()
            return 0
        # Like the flat path: sweep removals must reach the WAL, or a
        # lazy-policy snapshot taken before this sweep would resurrect
        # the rows at recovery and their ON-EXPIRE triggers would fire a
        # second time.
        logging = self.database is not None and self.database.wal is not None
        collect_triggers = logging or len(self.triggers) > 0

        def sweep(job: Tuple[int, List[Tuple[Row, int]]]):
            shard_id, shard_due = job
            shard_started = time.perf_counter()
            # The relation's bulk sweep skips renewed entries (stored
            # expiration moved past ``stamp``) and, for columnar shards,
            # compares raw ticks straight off the texp array.
            processed, expired = self.relation.shards[shard_id]._sweep_due(
                shard_due, stamp, collect_triggers
            )
            return shard_id, processed, expired, time.perf_counter() - shard_started

        executor = self.database.executor if self.database is not None else None
        if executor is not None and len(jobs) > 1:
            results = list(executor.map(sweep, jobs))
        else:
            results = [sweep(job) for job in jobs]

        name = self.name
        total = 0
        fired = 0
        for shard_id, processed, expired, elapsed in results:
            shard_label = str(shard_id)
            self._shard_sweep_seconds.labels(name, shard_label).observe(elapsed)
            if processed:
                self._shard_tuples_expired.labels(name, shard_label).inc(processed)
            total += processed
            # Triggers and WAL appends run here, in the calling thread,
            # never in workers.
            for row, value in expired:
                fired += self.triggers.fire(ExpiringTuple(row, ts(value)), stamp)
            if logging:
                for row, value in expired:
                    self._wal_physical("remove", row, None, ts(value))
        # Statistics are written once per sweep, not once per tuple.
        if total:
            self.statistics.expirations_processed += total
            self.statistics.tuples_purged += total
        if fired:
            self.statistics.triggers_fired += fired
        self.statistics.purge_passes += 1
        policy = self.removal_policy.value
        self._sweep_seconds.labels(policy).observe(time.perf_counter() - started)
        if total:
            self._tuples_expired.labels(policy).inc(total)
        self._maybe_verify()
        return total

    def __repr__(self) -> str:
        return (
            f"PartitionedTable({self.name!r}, arity={self.schema.arity}, "
            f"live={len(self)}, physical={self.physical_size}, "
            f"policy={self.removal_policy.value}, "
            f"partitions={self.partitions} on {self.partition_key!r})"
        )
