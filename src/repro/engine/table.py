"""Expiration-enabled base tables.

A :class:`Table` combines a :class:`~repro.core.relation.Relation` (logical
content), a :class:`~repro.core.schedule.Schedule` as its expiration
index (efficient discovery of due tuples) and a :class:`TriggerManager`.
Storage comes in shards -- one for a flat table, ``partitions`` hash
shards otherwise -- each with its own index and due buffer; every verb
runs one mutation pipeline against the shard that owns the row, and one
sweep runs over all of them.  It implements the Section 3.2 removal
policies:

* **eager** -- on every clock advance the table drains its index, fires
  ON-EXPIRE triggers immediately, and physically removes the tuples;
* **lazy**  -- expired tuples stay physically present (but invisible to
  reads, which always go through ``exp_τ``); a batched
  :meth:`Table.vacuum` reclaims them and fires the pending triggers, with
  trigger latency as the trade-off.

Insertion is the one place (besides triggers) where users see expiration
times: ``insert(values, expires_at=...)`` or the TTL convenience form
``insert(values, ttl=30)``.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Iterable, List, Optional, Tuple

from repro.codec import encode_exp, encode_prev
from repro.core.columnar import ColumnarRelation
from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.schedule import Schedule
from repro.core.timestamps import INFINITY, TimeLike, Timestamp, ts
from repro.core.tuples import ExpiringTuple, Row, check_domain, make_row
from repro.engine.clock import LogicalClock
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.partitioning import ShardedRelation
from repro.engine.statistics import EngineStatistics
from repro.engine.triggers import TriggerManager
from repro.errors import EngineError, RelationError

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.engine.database import Database

__all__ = [
    "Table",
    "declare_expiration_families",
    "EXPIRY_ABSOLUTE",
    "EXPIRY_SINCE_LAST_MODIFICATION",
    "EXPIRY_POLICIES",
]

#: Expiration is stamped at insert and only the explicit verbs
#: (renew/override) move it afterwards.
EXPIRY_ABSOLUTE = "absolute"
#: Idle-timeout expiry ("Efficient Management of Short-Lived Data"):
#: every write restarts the clock, and reads that count as activity go
#: through :meth:`Table.touch`, which renews the row's default TTL.
EXPIRY_SINCE_LAST_MODIFICATION = "since_last_modification"
EXPIRY_POLICIES = (EXPIRY_ABSOLUTE, EXPIRY_SINCE_LAST_MODIFICATION)


def declare_expiration_families(registry):
    """Idempotently register the sweep families.

    Returns ``(sweep_seconds, tuples_expired)`` labelled by removal policy
    and ``(shard_sweep_seconds, shard_tuples_expired)``, which partitioned
    tables write per ``(table, shard)``, as one 4-tuple.  ``Database``
    calls it too, so a prom dump shows them before the first sweep.
    """
    return (
        registry.histogram(
            "repro_expiration_sweep_seconds",
            "Wall time of expiration sweeps that processed at least one "
            "due tuple, by removal policy.",
            labels=("policy",),
        ),
        registry.counter(
            "repro_expiration_tuples_expired_total",
            "Tuples physically expired, by removal policy (eager drains "
            "versus lazy vacuums).",
            labels=("policy",),
        ),
        registry.histogram(
            "repro_partition_sweep_seconds",
            "Wall time of per-shard expiration sweep kernels.",
            labels=("table", "shard"),
        ),
        registry.counter(
            "repro_partition_tuples_expired_total",
            "Tuples physically expired per partition shard.",
            labels=("table", "shard"),
        ),
    )


class _Shard:
    """One shard's storage, expiration index and LAZY due buffer.

    A flat table has exactly one; a partitioned table has one per hash
    bucket, ``relation`` being the matching ``ShardedRelation.shards``
    member.
    """

    __slots__ = ("relation", "index", "due", "label")

    def __init__(self, relation: Relation, label: str) -> None:
        self.relation = relation
        #: Every stored row with a finite ``texp``, at its tick.
        self.index = Schedule()
        #: Lazy removal: ``(row, tick)`` entries already popped from
        #: the index, awaiting a vacuum.
        self.due: List[Tuple[Row, int]] = []
        #: The ``shard`` label of the ``repro_partition_*`` series.
        self.label = label


def _already_expired(stamp: Timestamp, now: Timestamp) -> RelationError:
    return RelationError(
        f"cannot insert an already-expired tuple: {stamp} <= now {now}"
    )


class Table:
    """A named base relation managed by the engine.

    ``partitions=N`` hash-partitions the rows on ``partition_key``
    (default: the first column) into ``N`` shards.  External behaviour is
    identical to a flat table -- same insert/delete/read/trigger
    semantics, same per-policy expiration metrics -- plus:

    * sweeps and vacuums run the bulk kernel shard after shard, on the
      calling thread, over each shard's own index and due buffer;
    * the compiled evaluator's source stage scans ``relation.shards`` one
      after another (a flat relation is its one-shard case);
    * per-shard sweep timings and expiry counts land in the
      ``repro_partition_*`` metric families.

    One observable deviation: a flat table fires ON-EXPIRE triggers in
    global expiration order; a partitioned sweep fires them grouped by
    shard (ordered within each shard).
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        clock: LogicalClock,
        statistics: Optional[EngineStatistics] = None,
        removal_policy: RemovalPolicy = RemovalPolicy.EAGER,
        lazy_batch_size: int = 64,
        database: Optional["Database"] = None,
        layout: str = "row",
        expiry: str = EXPIRY_ABSOLUTE,
        default_ttl: Optional[int] = None,
        partitions: Optional[int] = None,
        partition_key: Any = None,
    ) -> None:
        if layout not in ("row", "columnar"):
            raise EngineError(
                f"unknown table layout {layout!r} (expected 'row' or 'columnar')"
            )
        if expiry not in EXPIRY_POLICIES:
            raise EngineError(
                f"unknown expiry policy {expiry!r} (expected one of "
                f"{EXPIRY_POLICIES})"
            )
        if default_ttl is not None and default_ttl <= 0:
            raise EngineError(
                f"default_ttl must be positive, got {default_ttl}"
            )
        if expiry == EXPIRY_SINCE_LAST_MODIFICATION and default_ttl is None:
            raise EngineError(
                "since_last_modification expiry needs a default_ttl "
                "(the idle timeout every touch restarts)"
            )
        self.name = name
        self.schema = schema
        self.clock = clock
        self.statistics = statistics if statistics is not None else EngineStatistics()
        self.removal_policy = removal_policy
        #: Under lazy removal, vacuum once this many expirations are pending.
        self.lazy_batch_size = lazy_batch_size
        self.database = database
        #: Physical storage layout ("row" dict vs "columnar" arrays).
        self.layout = layout
        #: Table-level expiry policy: "absolute" (texp stamped at insert)
        #: or "since_last_modification" (renewal-on-touch, Zeek-broker
        #: style -- see :meth:`touch`).
        self.expiry = expiry
        #: TTL applied when an insert names neither expires_at nor ttl,
        #: and the idle timeout :meth:`touch` restarts.
        self.default_ttl = default_ttl
        #: Shard count and the name of the column hashed to pick a shard;
        #: both ``None`` on a flat table.
        self.partitions = partitions
        self.partition_key: Optional[str] = None
        new_relation = ColumnarRelation if layout == "columnar" else Relation
        if partitions is None:
            self.relation: Relation = new_relation(schema)
            shard_relations: Tuple[Relation, ...] = (self.relation,)
        else:
            self._key_index = schema.index(
                schema.names[0] if partition_key is None else partition_key
            )
            self.partition_key = schema.name(self._key_index + 1)
            self.relation = ShardedRelation(
                schema, self._key_index, partitions, new_relation
            )
            shard_relations = self.relation.shards
        self._shards: Tuple[_Shard, ...] = tuple(
            _Shard(relation, str(i)) for i, relation in enumerate(shard_relations)
        )
        self.triggers = TriggerManager(name)
        #: Called with the stored ExpiringTuple after every successful
        #: insert (used by incremental view maintenance).
        self.insert_listeners: List = []
        #: Called with the deleted row after every explicit delete.
        self.delete_listeners: List = []
        (
            self._sweep_seconds, self._tuples_expired,
            self._shard_sweep_seconds, self._shard_tuples_expired,
        ) = declare_expiration_families(self.statistics.registry)

    # -- the mutation pipeline ------------------------------------------------

    def _route(self, row: Row) -> _Shard:
        """The shard owning ``row`` (the partition key is hashed here only)."""
        shards = self._shards
        if len(shards) == 1:
            return shards[0]
        return shards[hash(row[self._key_index]) % len(shards)]

    def _preimage(self, shard: _Shard, row: Row) -> Optional[Timestamp]:
        """The stored expiration a verb starts from (``None`` = absent).

        Eager and lazy removal differ only in *when* a due tuple is
        reclaimed (Section 3.2), never in whether it expired.  A stored
        row the index has already reported due -- popped into the due
        buffer, not vacuumed yet -- expired at its stored ``texp``, so a
        verb that meets one sweeps that row first (ON-EXPIRE trigger,
        counters, WAL ``remove``) and then sees it absent, exactly as it
        would under EAGER.  Only a non-empty due buffer can hold such a
        row: EAGER tables and drained shards never pay for the probe.
        """
        previous = shard.relation.expiration_or_none(row)
        if (
            shard.due
            and previous is not None
            and previous.is_finite
            and row not in shard.index
        ):
            job = (shard, [(row, previous)])
            self._sweep([job], self.clock.now, time.perf_counter())
            return None
        return previous

    def preimage(self, values: Iterable[Any]) -> Optional[Timestamp]:
        """What a verb on this row would start from (``None`` = absent).

        The stored expiration, after reclaiming the row if it expired
        under LAZY removal and is only waiting for a vacuum; a
        transaction records this as the state its rollback restores.
        """
        row = make_row(values)
        return self._preimage(self._route(row), row)

    def _apply(
        self,
        row: Row,
        stamp: Optional[Timestamp],
        merge: bool = False,
        inserted: bool = False,
        counter: Optional[str] = None,
        only_present: bool = False,
    ):
        """The one mutation pipeline; every verb ends here.

        In order: route to the owning shard; read the pre-image
        (when there is a log to write it to, or a LAZY shard has due rows); put
        ``stamp`` -- max-merged with the stored expiration when ``merge``,
        last-write otherwise -- or, when ``stamp`` is ``None``, remove the
        row (``only_present``: an absent row is a no-op returning
        ``False``); reschedule the expiration index; log ``upsert`` /
        ``remove`` with the pre-image (an append that raises puts the
        pre-image back and re-raises); count; bump the data version; fire
        the insert listeners with the stored tuple (``inserted``) or the
        delete listeners with the row; audit.  A put returns the stored
        :class:`ExpiringTuple`, a remove whether the row was present.
        """
        if stamp is not None and self.partitions is not None:
            # Routing reads the key column before storage checks arity.
            self.relation._check_arity(row)
        shard = self._route(row)
        database = self.database
        logging = database is not None and database.wal is not None
        previous = None
        if logging or shard.due:
            previous = self._preimage(shard, row)
        if stamp is None:
            result = shard.relation.delete(row)
            if only_present and not result:
                return False
            shard.index.discard(row)
        else:
            put = shard.relation.insert if merge else shard.relation.override
            result = put(row, stamp)
            shard.index.put(row, result.expires_at)
        if logging and (stamp is not None or previous is not None):
            # ``prev`` is what transaction rollback at recovery restores.
            # An upsert logs the *resulting* (post-max-merge) expiration,
            # so replay applies records last-write (bulk_restore) and an
            # override needs no record kind of its own.
            fields = {
                "table": self.name,
                "row": row,
                "prev": encode_prev(previous),
            }
            if stamp is not None:
                fields["texp"] = encode_exp(result.expires_at)
            try:
                database._wal_append("remove" if stamp is None else "upsert", **fields)
            except BaseException:
                # Not logged, so not applied: the shard goes back to the
                # pre-image and nothing downstream hears of the mutation.
                if previous is None:
                    shard.relation.delete(row)
                    shard.index.discard(row)
                else:
                    shard.relation.override(row, previous)
                    shard.index.put(row, previous)
                raise
        if counter is not None:
            statistics = self.statistics
            setattr(statistics, counter, getattr(statistics, counter) + 1)
        if database is not None:
            # Unpredictable mutation: cached evaluation results are stale.
            database.note_data_change()
        if inserted:
            for listener in self.insert_listeners:
                listener(self, result)
        else:
            for listener in self.delete_listeners:
                listener(self, row)
        self._maybe_verify()
        return result

    # -- modification ---------------------------------------------------------

    def insert(
        self,
        values: Iterable[Any],
        expires_at: TimeLike = None,
        ttl: Optional[int] = None,
    ) -> ExpiringTuple:
        """Insert a row, expiring at ``expires_at`` or after ``ttl`` ticks.

        Omitting both means no expiration (``∞``) -- unless the table has
        a :attr:`default_ttl`, which then applies (on a
        since-last-modification table nothing is immortal: every write
        restarts the idle timer).  Duplicate rows keep the later
        expiration (the model's max-merge rule), so re-insertion is the
        idiom for *renewing* a session, credential, or cached copy.
        """
        stamp = self.expiration_for(expires_at, ttl)
        if stamp.is_finite and stamp <= self.clock.now:
            raise _already_expired(stamp, self.clock.now)
        row = check_domain(make_row(values))
        return self._apply(row, stamp, merge=True, inserted=True, counter="inserts")

    def insert_many(self, pairs: Iterable[Tuple[Iterable[Any], TimeLike]]) -> int:
        """Insert every ``(values, expires_at)`` pair, or none of them.

        Each pair passes :meth:`insert`'s checks -- an expiration after
        now, a hashable row of the table's arity, every value in the
        domain -- before the first is stored, so a refused pair leaves no
        earlier row stored, logged or shown to a view.  Then each row is
        max-merged in as :meth:`insert` would.  An ``expires_at`` is used
        as given (:meth:`expiration_for` turns a TTL into one).  Returns
        the number of pairs.
        """
        now = self.clock.now
        check_arity = self.relation._check_arity
        admitted = []
        for values, expires_at in pairs:
            stamp = ts(expires_at)
            if stamp.is_finite and stamp <= now:
                raise _already_expired(stamp, now)
            row = check_domain(make_row(values))
            check_arity(row)
            admitted.append((row, stamp))
        apply = self._apply
        for row, stamp in admitted:
            apply(row, stamp, merge=True, inserted=True, counter="inserts")
        return len(admitted)

    def expiration_for(
        self, expires_at: TimeLike = None, ttl: Optional[int] = None
    ) -> Timestamp:
        """The expiration :meth:`insert` stamps: ``expires_at``, ``now +
        ttl``, or the :attr:`default_ttl` from now when both are omitted
        (``∞`` without one)."""
        if expires_at is None and ttl is None:
            ttl = self.default_ttl
        if ttl is not None:
            if expires_at is not None:
                raise EngineError("pass expires_at or ttl, not both")
            if ttl <= 0:
                raise EngineError(f"ttl must be positive, got {ttl}")
            return self.clock.now + ttl
        return ts(expires_at)

    def delete(self, values: Iterable[Any]) -> bool:
        """Explicit delete (the traditional path expiration times replace)."""
        return self._apply(
            make_row(values), None, counter="explicit_deletes", only_present=True
        )

    def renew(self, values: Iterable[Any], ttl: int) -> ExpiringTuple:
        """Extend a row's lifetime by ``ttl`` ticks from now (re-insertion).

        Renewal is max-merge (the model's duplicate rule): a ``ttl`` that
        lands *before* the stored expiration silently keeps the longer
        lifetime.  That is the paper's semantics -- renewing can only ever
        lengthen -- and it is what makes monotonic views maintenance-free.
        To *shorten* a lifetime (revoke a grant, log a session out, clear
        a lockout early), use :meth:`override`, which is last-write.
        """
        return self.insert(values, ttl=ttl)

    def touch(
        self, values: Iterable[Any], ttl: Optional[int] = None
    ) -> Optional[ExpiringTuple]:
        """Renewal-on-touch: restart a live row's idle timer.

        On a ``since_last_modification`` table, activity on a row routes
        through here and renews it for ``ttl`` (default: the table's
        :attr:`default_ttl`) ticks from now -- the Zeek-broker idiom where
        any access counts as a modification.  The renewal is max-merge
        like every touch-path write, which with a fixed idle timeout is
        exactly "now + timeout" (the clock never runs backwards).

        Touching is deliberately weaker than :meth:`renew`:

        * on an ``absolute``-expiry table it is a no-op returning ``None``
          (activity does not extend absolutely-stamped lifetimes);
        * a row that is absent -- or already expired, even if a lazy sweep
          has not reclaimed it yet -- is *not* revived (``None`` again);
          resurrection would un-fire an expiration the model already
          considers to have happened.  Re-admit it with :meth:`insert`.
        """
        if self.expiry != EXPIRY_SINCE_LAST_MODIFICATION:
            return None
        effective = ttl if ttl is not None else self.default_ttl
        if effective is None or effective <= 0:
            raise EngineError(f"touch ttl must be positive, got {effective}")
        row = make_row(values)
        current = self._preimage(self._route(row), row)
        if current is None or current <= self.clock.now:
            return None
        # Not insert: an older directory's row outside the domain stays touchable.
        stamp = self.clock.now + effective
        stored = self._apply(row, stamp, merge=True, inserted=True, counter="inserts")
        self.statistics.touches += 1
        return stored

    def override(
        self,
        values: Iterable[Any],
        expires_at: TimeLike = None,
        ttl: Optional[int] = None,
    ) -> ExpiringTuple:
        """Set a row's expiration *unconditionally* (the revocation path).

        Unlike :meth:`insert`/:meth:`renew`, no max-merge happens: the
        stored expiration becomes exactly ``expires_at`` (or ``now + ttl``;
        omitting both means ``∞``), whether that shortens or lengthens the
        lifetime, and the row is created if absent.  ``expires_at == now``
        is immediate revocation -- the row is invisible to every read at
        once (``exp_τ`` needs ``texp > τ``) and is reclaimed by the next
        sweep, where its ON-EXPIRE triggers fire normally.

        Overriding into the past is rejected: it would express nothing
        more than ``now`` does, and it would break the due-buffer
        invariant (buffered due entries may precede a stored expiration,
        never follow it).

        Delete listeners -- not insert listeners -- fire, because a
        shortened lifetime can *remove* tuples from downstream results,
        which only the conservative mark-stale path models; views
        therefore observe a revocation without any manual refresh.
        """
        if ttl is not None:
            if expires_at is not None:
                raise EngineError("pass expires_at or ttl, not both")
            if ttl < 0:
                raise EngineError(f"ttl must be non-negative, got {ttl}")
            stamp = self.clock.now + ttl
        else:
            stamp = ts(expires_at)
        if stamp.is_finite and stamp < self.clock.now:
            raise RelationError(
                f"cannot override into the past: {stamp} < now "
                f"{self.clock.now} (use expires_at=now to revoke immediately)"
            )
        return self._apply(check_domain(make_row(values)), stamp, counter="overrides")

    # -- transaction rollback ---------------------------------------------------

    def undo_insert(self, values: Iterable[Any], previous: Optional[Timestamp]) -> None:
        """Roll back an insert, restoring the pre-insert expiration.

        ``previous`` is the expiration the row had before the insert
        (``None`` if it did not exist).  Rollback runs the same pipeline
        as the forward operations: mutating ``self.relation`` directly
        would leave a phantom entry in the expiration index, a plan cache
        that keeps serving pre-rollback results, and materialised views
        that never learn the row changed.  Neither undo checks the domain:
        a row an older directory restored outside it must roll back.
        """
        self._apply(make_row(values), previous)

    def undo_delete(self, values: Iterable[Any], previous: Timestamp) -> None:
        """Roll back an explicit delete: restore the row and its index entry."""
        self._apply(make_row(values), previous, inserted=True)

    # -- trusted bulk paths -------------------------------------------------------

    def _buckets(self, entries: Iterable[tuple]) -> List[Tuple[_Shard, list]]:
        if self.partitions is None:
            return [(self._shards[0], list(entries))]
        return [
            (shard, bucket)
            for shard, bucket in zip(self._shards, self.relation.partition(entries))
            if bucket
        ]

    def bulk_load(self, pairs: Iterable[Tuple[Row, TimeLike]]) -> int:
        """Max-merge trusted ``(row, expiration)`` pairs into storage and index.

        The path snapshot restore and benchmark seeding take instead of
        one :meth:`insert` per row: rows are tuples already in the domain
        (not checked again), an expiration is a :class:`Timestamp` or the
        bare tick a snapshot segment holds (``RAW_INFINITY`` = never), the
        index is heapified at most once per shard, and nothing is logged,
        counted or announced to listeners -- nor checked against the
        clock, on purpose: a
        lazy-policy snapshot may hold expired-but-unreclaimed tuples that
        the next vacuum will process.
        Returns the number of pairs loaded.
        """
        count = 0
        for shard, bucket in self._buckets(pairs):
            relation = shard.relation
            before = len(relation)
            count += relation.bulk_load(bucket)
            if len(relation) - before != len(bucket):
                # A pair merged into a stored or repeated row: schedule
                # what storage kept, not what the pair asked for.
                stored = relation.expiration_or_none
                bucket = ((row, stored(row)) for row, _ in bucket)
            shard.index.bulk_put(bucket)
        return count

    def bulk_restore(self, ops: Iterable[Tuple[Row, Optional[TimeLike]]]) -> None:
        """Apply trusted ``(row, texp-or-None)`` ops last-write, in order.

        The WAL-replay path (``None`` erases the row; ``texp`` is a
        :class:`Timestamp` or a log record's bare tick): storage applies
        every op, the index takes each row's *final* action only -- the
        state per-record replay would have converged to -- and, as with
        :meth:`bulk_load`, no log, counter or listener runs.
        """
        for shard, bucket in self._buckets(ops):
            shard.relation.bulk_restore(bucket)
            # To the index an erased row and an immortal one are the same
            # thing, no entry: ``None`` schedules as "never".
            shard.index.bulk_put(
                (row, INFINITY if tick is None else tick)
                for row, tick in dict(bucket).items()
            )

    # -- reading -----------------------------------------------------------------

    def read(self, at: TimeLike = None) -> Relation:
        """The unexpired content ``exp_τ(R)`` (never shows expired tuples)."""
        stamp = self.clock.now if at is None else ts(at)
        return self.relation.exp_at(stamp)

    def __len__(self) -> int:
        """Number of *unexpired* tuples at the current time."""
        return len(self.read())

    @property
    def physical_size(self) -> int:
        """Stored tuples including not-yet-vacuumed expired ones."""
        return len(self.relation)

    def next_expiration(self) -> Optional[Timestamp]:
        """When the next tuple expires (the trigger scheduler's deadline)."""
        pending = (shard.index.next_due() for shard in self._shards)
        tick = min((tick for tick in pending if tick is not None), default=None)
        return None if tick is None else ts(tick)

    # -- expiration processing -------------------------------------------------------

    def on_clock_advance(self, old: Timestamp, new: Timestamp) -> None:
        """Clock listener: process expirations according to the policy."""
        if self.removal_policy is RemovalPolicy.EAGER:
            self.process_expirations(new)
            return
        # O(k log n): only the k tuples that actually came due are
        # touched; they stay physically present (and invisible to reads)
        # until the batch threshold triggers a vacuum.
        pending = 0
        for shard in self._shards:
            shard.due.extend(shard.index.pop_due(new))
            pending += len(shard.due)
        if pending >= self.lazy_batch_size:
            self.vacuum(new)

    def process_expirations(self, now: Optional[TimeLike] = None) -> int:
        """Remove every due tuple, firing ON-EXPIRE triggers; returns count."""
        stamp = self.clock.now if now is None else ts(now)
        started = time.perf_counter()
        jobs = []
        for shard in self._shards:
            due = shard.due + shard.index.pop_due(stamp)
            if due:
                shard.due = []
                jobs.append((shard, due))
        if not jobs:
            self._maybe_verify()
            return 0
        return self._sweep(jobs, stamp, started)

    def _sweep(
        self,
        jobs: List[Tuple[_Shard, List[Tuple[Row, int]]]],
        stamp: Timestamp,
        started: float,
    ) -> int:
        """Run the removal kernel over each shard's due list; returns count.

        The storage kernel skips entries renewed (re-inserted with a later
        expiration) between coming due and being processed -- a renewed
        tuple never expired -- comparing ticks, straight off the texp
        array on columnar shards.  Kernels, triggers and WAL appends all
        run here, shard after shard on the calling thread, and every
        kernel runs before the first trigger fires (a trigger sees the
        whole batch gone, as on a flat table); statistics are written
        once per sweep.
        """
        database = self.database
        wal = database.wal if database is not None else None
        triggers = self.triggers if len(self.triggers) > 0 else None
        collect = wal is not None or triggers is not None

        results = []
        for shard, due in jobs:
            shard_started = time.perf_counter()
            processed, expired = shard.relation._sweep_due(due, stamp, collect)
            results.append(
                (shard, processed, expired, time.perf_counter() - shard_started)
            )

        name = self.name
        total = fired = 0
        for shard, processed, expired, elapsed in results:
            if self.partitions is not None:
                self._shard_sweep_seconds.labels(name, shard.label).observe(elapsed)
                if processed:
                    self._shard_tuples_expired.labels(name, shard.label).inc(processed)
            total += processed
            if triggers is not None:
                for row, tick in expired:
                    fired += triggers.fire(ExpiringTuple(row, ts(tick)), stamp)
            if wal is not None:
                # Sweep removals must be durable: a lazy-policy snapshot
                # can retain a row whose vacuum (and ON-EXPIRE firing)
                # happened before the crash; without these records
                # recovery would re-arm it and fire it a second time.
                # They go to the log directly: an expiration is nobody's
                # transaction, so it must never carry the id of one that
                # happens to be applying (rollback would revive the row).
                for row, tick in expired:
                    wal.append("remove", table=name, row=row, prev=tick)
        policy = self.removal_policy.value
        if total:
            self.statistics.expirations_processed += total
            self._tuples_expired.labels(policy).inc(total)
        if fired:
            self.statistics.triggers_fired += fired
        self.statistics.purge_passes += 1
        self._sweep_seconds.labels(policy).observe(time.perf_counter() - started)
        self._maybe_verify()
        return total

    def vacuum(self, now: Optional[TimeLike] = None) -> int:
        """Batch reclamation under lazy removal (alias of the eager path)."""
        return self.process_expirations(now)

    # -- invariant hooks ---------------------------------------------------------------

    def _maybe_verify(self) -> None:
        """Audit the owning database after a mutation (debug mode only)."""
        if self.database is not None:
            self.database._maybe_verify()

    # -- metadata ---------------------------------------------------------------------

    def __repr__(self) -> str:
        partitioned = (
            "" if self.partitions is None
            else f", partitions={self.partitions} on {self.partition_key!r}"
        )
        return (
            f"Table({self.name!r}, arity={self.schema.arity}, "
            f"live={len(self)}, physical={self.physical_size}, "
            f"policy={self.removal_policy.value}{partitioned})"
        )
