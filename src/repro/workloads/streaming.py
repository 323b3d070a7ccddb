"""Continuous queries over expiring streams (ROADMAP item 4, DESIGN §5j).

The paper's expiration model *is* the "sliding window as TTL" view of
stream processing: a window is nothing but a tuple whose ``texp`` is
arrival + width, and the General Expiration Streaming Model (PAPERS.md,
arXiv:2509.07587) formalises counting, sampling, and diameter/k-center
over exactly such heterogeneous-expiration streams.  This module is that
story made runnable on the engine:

* **Streams are tables.**  :meth:`StreamStore.create_stream` makes an
  ordinary engine table under one of two table-level expiry policies --
  ``absolute`` (texp stamped at insert; the tumbling/sliding-window
  style) or ``since_last_modification`` (renewal-on-touch, Zeek-broker
  style: every touch routes through the engine's max-merge ``renew``, so
  activity keeps a row alive and idleness is what expires it).  Memory
  stays flat because retention *is* expiration -- no operator state, no
  window buffers, no eviction logic.

* **Standing queries are held answers.**  Each is a
  :class:`~repro.core.algebra.evaluator.HeldAnswer` on the Schrödinger
  validity ``I(e)`` of its answer, served by the one rule the plan cache
  and the materialised views follow and re-evaluated only on a named
  cause.  Arrivals fold in through the table's insert listeners, never
  through a rescan.  The counting family's window is ``[τ, ∞)`` -- the
  way Theorem 3 keeps a difference correct forever, every counted key is
  parked on one :class:`~repro.core.schedule.Schedule` and a read patches
  the answer forward in O(keys expired since the last read).  A
  revocation (``override``/delete) is a cause through the delete
  listeners, so a shortened lifetime is never served stale.

Queries shipped: windowed :class:`WindowedCount`, :class:`DistinctCount`
and :class:`ThresholdWatch` (per-group distinct counts against a
threshold -- the scan-detection query the network-monitoring example
builds on), all three exact and all three users of the one schedule;
:class:`ReservoirSample` (bounded reservoir over the unexpired set,
refilled from live storage when expiration drains it); and
:class:`ExtentAggregate` (the diameter of a numeric attribute,
validity-guarded via tolerance-widened min/max acceptance bands from
:mod:`repro.core.approximate`).
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.aggregates import MaxAggregate, MinAggregate
from repro.core.algebra.evaluator import HeldAnswer
from repro.core.approximate import (
    EXACT_TOLERANCE,
    Tolerance,
    approximate_validity,
)
from repro.core.intervals import IntervalSet
from repro.core.schedule import Schedule
from repro.core.schema import Schema
from repro.core.timestamps import Timestamp
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.table import Table
from repro.errors import EngineError

__all__ = [
    "CONNECTION_SCHEMA",
    "EVENT_SCHEMA",
    "StreamStore",
    "StandingQuery",
    "WindowedCount",
    "DistinctCount",
    "ReservoirSample",
    "ExtentAggregate",
    "ThresholdWatch",
    "declare_streaming_families",
]

#: Network-monitoring flavoured defaults (the example and bench use both).
CONNECTION_SCHEMA = Schema(["src", "dst", "dport"])
EVENT_SCHEMA = Schema(["key", "value"])


def declare_streaming_families(registry):
    """Idempotently register the ``repro_streaming_*`` metric families.

    Returns ``(events, touches, serves, refreshes, refresh_seconds,
    resident)``.  The serve counter's ``source`` label is the module's
    core claim made observable: ``cached`` serves never rescanned the
    stream, ``refresh`` serves did -- and the refresh counter's ``cause``
    says why: ``initial`` (the first read), ``validity`` (the clock left
    ``I(e)``; never, for the counting family), ``revoked``, ``drift`` or
    ``depleted``.
    """
    events = registry.counter(
        "repro_streaming_events_total",
        "Stream events ingested, by stream.",
        labels=("stream",),
    )
    touches = registry.counter(
        "repro_streaming_touches_total",
        "Renewal-on-touch hits on since-last-modification streams.",
        labels=("stream",),
    )
    serves = registry.counter(
        "repro_streaming_query_serves_total",
        "Standing-query reads, by query and by whether the answer came "
        "from the cached validity interval or forced a refresh.",
        labels=("query", "source"),
    )
    refreshes = registry.counter(
        "repro_streaming_query_refreshes_total",
        "Standing-query re-evaluations, by query and cause (initial -- the "
        "first read; validity -- I(e) ran out; revoked -- a delete/override "
        "dirtied it; drift; depleted).",
        labels=("query", "cause"),
    )
    refresh_seconds = registry.histogram(
        "repro_streaming_refresh_seconds",
        "Wall time of standing-query re-evaluations (full rescans).",
    )
    resident = registry.gauge(
        "repro_streaming_resident_tuples",
        "Physically resident tuples per stream (the bounded-memory gate).",
        labels=("stream",),
    )
    return events, touches, serves, refreshes, refresh_seconds, resident


# -- standing queries --------------------------------------------------------


class StandingQuery(HeldAnswer):
    """A continuous query over one stream table, held on its ``I(e)``.

    Subclasses fold arrivals in (``_on_insert``), re-evaluate at ``τ``
    returning the new validity (``_refresh``) and answer from their state
    (``_serve``).  ``read`` is the held answer's protocol: it refreshes the
    first time (``initial``), when the clock has left the held validity
    (``validity``), or on a pending cause -- a revocation (``revoked``) or
    what :meth:`_catch_up` names while folding expirations forward
    (``drift``, ``depleted``).  Folding is destructive, so a standing query
    only moves forward with the stream (:class:`~repro.errors.ViewError`).
    """

    _forward_only = True

    def __init__(self, store: "StreamStore", name: str, table: Table) -> None:
        super().__init__(Timestamp(0))
        self.store = store
        self.name = name
        self.table = table
        self.clock = table.clock
        self._served = store._serves.labels(name, "cached").inc
        table.insert_listeners.append(self._on_insert)
        table.delete_listeners.append(self._on_delete)

    def _on_delete(self, table: Table, row) -> None:
        # Conservative, like the materialised-view path: an override or
        # delete can remove tuples from the answer before their old texp,
        # which no validity interval computed earlier can know about.
        self.invalidate("revoked")

    @property
    def validity(self) -> Optional[IntervalSet]:
        """The held answer's ``I(e)`` (None before the first read)."""
        return self.window

    def _renew(self, tau: Timestamp, cause: str) -> None:
        store = self.store
        started = time.perf_counter()
        self.hold(tau, self._refresh(tau))
        store._refresh_seconds.observe(time.perf_counter() - started)
        store._refreshes.labels(self.name, cause).inc()
        store._serves.labels(self.name, "refresh").inc()

    def _live_items(self, tau: Timestamp) -> List[Tuple[tuple, Timestamp]]:
        return [item for item in self.table.relation.items() if tau < item[1]]


class _KeyedCount(StandingQuery):
    """What the counting family shares: live keys on one schedule.

    The counted unit is a *key* derived from the row, live while any
    stream row carrying it is live; tracking the per-key max expiration
    is the model's max-merge projection (Theorem 1: monotonic, so
    arrivals propagate as pure deltas).  Every key, whether a rescan or
    an arrival found it, is admitted to one :class:`Schedule` at its
    max-merged tick, or to the set of immortal keys; a read pops what is
    due by ``τ`` and answers from what is left, exactly, at every ``τ``
    from the rescan onwards -- which is the validity reported.
    Subclasses say what the key is (``_admit``).
    """

    def __init__(self, store: "StreamStore", name: str, table: Table) -> None:
        self._live = Schedule()
        self._immortal: Set[Any] = set()
        super().__init__(store, name, table)

    def _add(self, key: Any, texp: Timestamp) -> bool:
        """Max-merge ``key`` in; whether it is new to the count."""
        live, immortal = self._live, self._immortal
        if key in immortal:
            return False
        current = live.get(key)
        if texp.is_infinite:
            immortal.add(key)
        if current is None or current < texp:
            live.put(key, texp)  # ∞ unparks it
        return current is None

    def _on_insert(self, table: Table, stored) -> None:
        self._admit(stored.row, stored.expires_at)

    def _refresh(self, tau: Timestamp) -> IntervalSet:
        self._live = Schedule()
        self._immortal = set()
        for row, texp in self._live_items(tau):
            self._admit(row, texp)
        return IntervalSet.from_onwards(tau)

    def _serve(self, tau: Timestamp):
        self._live.pop_due(tau)
        return len(self._live) + len(self._immortal)


class WindowedCount(_KeyedCount):
    """``COUNT(*)`` over the unexpired stream: the key is the row.

    ``tolerance`` is accepted for callers that declared a band -- an
    exact answer is inside every band -- and buys nothing any more:
    there is no rescan left for it to postpone.
    """

    def __init__(
        self,
        store: "StreamStore",
        name: str,
        table: Table,
        tolerance: Tolerance = EXACT_TOLERANCE,
    ) -> None:
        self.tolerance = tolerance
        super().__init__(store, name, table)

    def _admit(self, row: tuple, texp: Timestamp) -> None:
        self._add(row, texp)


class DistinctCount(_KeyedCount):
    """``COUNT(DISTINCT attribute)``: the key is one attribute's value.

    ``tolerance`` as for :class:`WindowedCount`.
    """

    def __init__(
        self,
        store: "StreamStore",
        name: str,
        table: Table,
        attribute: Any,
        tolerance: Tolerance = EXACT_TOLERANCE,
    ) -> None:
        self.attribute = table.schema.index(attribute)
        self.tolerance = tolerance
        super().__init__(store, name, table)

    def _admit(self, row: tuple, texp: Timestamp) -> None:
        self._add(row[self.attribute], texp)


class ReservoirSample(StandingQuery):
    """A bounded uniform-ish sample of the unexpired stream (GESM §sampling).

    Arrivals run classic Algorithm R against the arrivals-since-refill
    stream; expired members are evicted on read (an O(1) stored-
    expiration probe each, once per clock value: a member can only die
    when the clock moves or a revocation invalidates) and, when
    eviction drains the reservoir below half capacity, it is refilled by
    a uniform draw from live storage -- the expiring-stream analogue of a
    restart, counted in ``repro_streaming_query_refreshes_total``.
    Membership is always a subset of the live stream; uniformity is
    approximate between refills (heterogeneous TTLs skew long-lived
    tuples upward, exactly the effect the GESM paper studies).
    """

    def __init__(
        self,
        store: "StreamStore",
        name: str,
        table: Table,
        capacity: int,
        rng: Optional[random.Random] = None,
    ) -> None:
        if capacity <= 0:
            raise EngineError(f"reservoir capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.rng = rng if rng is not None else random.Random(0x5EED)
        self._members: List[tuple] = []
        self._arrivals = 0
        super().__init__(store, name, table)

    def _on_insert(self, table: Table, stored) -> None:
        self._arrivals += 1
        self._unfolded += 1  # a read ahead of the clock must probe it
        if len(self._members) < self.capacity:
            if stored.row not in self._members:
                self._members.append(stored.row)
            return
        slot = self.rng.randrange(self._arrivals)
        if slot < self.capacity:
            self._members[slot] = stored.row

    def _alive(self, row: tuple, tau: Timestamp) -> bool:
        return self.table.relation.alive_at(row, tau)

    def _refresh(self, tau: Timestamp) -> IntervalSet:
        live = [row for row, _ in self._live_items(tau)]
        if len(live) <= self.capacity:
            self._members = list(live)
        else:
            self._members = self.rng.sample(live, self.capacity)
        self._arrivals = len(live)
        # The reservoir's own validity: it degrades gracefully (members
        # just vanish as they expire), so only *depletion* forces the next
        # refill -- a cause named while catching up, not an interval.
        return IntervalSet.from_onwards(tau)

    def _catch_up(self, tau: Timestamp) -> None:
        self._unfolded = 0
        if tau == self.held_at and not (
            self.cause is not None or self.clock.now < tau
        ):
            return  # filtered at tau already; arrivals since are alive at now
        self._members = [r for r in self._members if self._alive(r, tau)]
        if (
            len(self._members) < max(1, self.capacity // 2)
            and len(self.table) > len(self._members)
        ):
            self.invalidate("depleted")  # refill: a fresh uniform draw

    def _serve(self, tau: Timestamp) -> List[tuple]:
        return list(self._members)


class ExtentAggregate(StandingQuery):
    """Diameter (max - min) of a numeric attribute, within ``tolerance``.

    A refresh computes the true min and max over the live stream and
    intersects their tolerance-widened validities
    (:func:`~repro.core.approximate.approximate_validity` with the min/max
    aggregates): the cached extent is served until *either* endpoint
    drifts out of band.  Arrivals fold in exactly -- a value outside the
    current ``[lo, hi]`` widens it immediately -- and park their row on a
    :class:`Schedule` at its stored ``texp``; an expiring row that
    carried an endpoint is a ``drift`` cause (the extent may shrink, which
    only a rescan can bound).
    """

    def __init__(
        self,
        store: "StreamStore",
        name: str,
        table: Table,
        attribute: Any,
        tolerance: Tolerance = EXACT_TOLERANCE,
    ) -> None:
        self.attribute = table.schema.index(attribute)
        self.tolerance = tolerance
        self._lo: Optional[Any] = None
        self._hi: Optional[Any] = None
        #: Rows that arrived since the last rescan, at their stored texp.
        self._rows = Schedule()
        super().__init__(store, name, table)

    def _on_insert(self, table: Table, stored) -> None:
        value = stored.row[self.attribute]
        if self._lo is None or value < self._lo:
            self._lo = value
        if self._hi is None or value > self._hi:
            self._hi = value
        texp = stored.expires_at
        self._rows.put(stored.row, texp)  # a renewal to ∞ unparks it
        if texp.is_finite:
            self._unfolded += 1

    def _refresh(self, tau: Timestamp) -> IntervalSet:
        items = [
            (row[self.attribute], texp) for row, texp in self._live_items(tau)
        ]
        self._rows = Schedule()
        if not items:
            self._lo = self._hi = None
            return IntervalSet.from_onwards(tau)
        values = [value for value, _ in items]
        self._lo, self._hi = min(values), max(values)
        lo_validity = approximate_validity(
            items, MinAggregate(), tau, self.tolerance
        )
        hi_validity = approximate_validity(
            items, MaxAggregate(), tau, self.tolerance
        )
        return lo_validity & hi_validity

    def _catch_up(self, tau: Timestamp) -> None:
        self._unfolded = 0
        for row, _ in self._rows.pop_due(tau):
            value = row[self.attribute]
            if self._lo is not None and (value == self._lo or value == self._hi):
                # An endpoint-carrying arrival died: the extent may have
                # shrunk in a way no precomputed band bounds -- rescan.
                self.invalidate("drift")

    def _serve(self, tau: Timestamp) -> Optional[Any]:
        if self._lo is None:
            return None
        return self._hi - self._lo


class ThresholdWatch(_KeyedCount):
    """Per-group distinct counts against a threshold (scan detection).

    For each value of ``group_by``, how many distinct values of
    ``distinct`` are live -- e.g. per source address, the number of
    distinct ``(dst, dport)`` targets probed inside the window.  Groups
    at or above ``threshold`` are the alerts.  The counted key is the
    ``(group, value)`` pair; a per-group counter goes up when a new pair
    is admitted and down for every pair a read pops off the schedule, so
    serving costs the pairs that expired since the last read, not the
    pairs tracked.
    """

    def __init__(
        self,
        store: "StreamStore",
        name: str,
        table: Table,
        group_by: Any,
        distinct: Sequence[Any],
        threshold: int,
    ) -> None:
        if threshold <= 0:
            raise EngineError(f"threshold must be positive, got {threshold}")
        self.group_index = table.schema.index(group_by)
        self.distinct_indexes = tuple(table.schema.index(a) for a in distinct)
        self.threshold = threshold
        self._counts: Dict[Any, int] = {}
        super().__init__(store, name, table)

    def _admit(self, row: tuple, texp: Timestamp) -> None:
        group = row[self.group_index]
        value = tuple(row[i] for i in self.distinct_indexes)
        if self._add((group, value), texp):
            self._counts[group] = self._counts.get(group, 0) + 1

    def _refresh(self, tau: Timestamp) -> IntervalSet:
        self._counts = {}
        return super()._refresh(tau)

    def _serve(self, tau: Timestamp) -> Dict[Any, int]:
        counts = self._counts
        for (group, _), _ in self._live.pop_due(tau):
            if counts[group] == 1:
                del counts[group]
            else:
                counts[group] -= 1
        return dict(counts)

    def alerts(self, at=None) -> Dict[Any, int]:
        """Groups whose live distinct count meets the threshold."""
        counts = self.read(at)
        return {
            group: count
            for group, count in counts.items()
            if count >= self.threshold
        }


# -- the store ---------------------------------------------------------------


class StreamStore:
    """Expiring streams plus standing queries on the engine.

    >>> store = StreamStore()
    >>> _ = store.create_stream("events", EVENT_SCHEMA, ttl=10)
    >>> hits = store.count("events")
    >>> store.ingest("events", (1, 7))
    >>> store.ingest("events", (2, 9), ttl=3)
    >>> hits.read()
    2
    >>> _ = store.database.tick(5)      # the short-lived event expired
    >>> hits.read()
    1
    >>> _ = store.create_stream(
    ...     "conns", CONNECTION_SCHEMA, ttl=4,
    ...     expiry="since_last_modification")
    >>> store.ingest("conns", ("10.0.0.1", "10.0.0.9", 443))
    >>> _ = store.database.tick(3)
    >>> _ = store.touch("conns", ("10.0.0.1", "10.0.0.9", 443))
    >>> _ = store.database.tick(3)      # idle timeout restarted: still live
    >>> len(store.stream("conns"))
    1
    """

    def __init__(self, database: Optional[Database] = None) -> None:
        self.database = database if database is not None else Database()
        self._queries: Dict[str, StandingQuery] = {}
        (
            self._events,
            self._touches,
            self._serves,
            self._refreshes,
            self._refresh_seconds,
            self._resident,
        ) = declare_streaming_families(self.database.metrics)
        self._stream_series: Dict[str, tuple] = {}

    # -- streams -------------------------------------------------------------

    def create_stream(
        self,
        name: str,
        schema: Schema,
        ttl: int,
        expiry: str = "absolute",
        partitions: Optional[int] = None,
        partition_key: Optional[Any] = None,
        layout: str = "row",
        removal_policy: Optional[RemovalPolicy] = None,
        lazy_batch_size: int = 256,
    ) -> Table:
        """Register a stream: a table whose rows default to ``ttl`` ticks.

        Attaches to an existing table of the same name (a store over a
        recovered database is the same store).  ``expiry`` picks the
        policy: ``absolute`` windows, or ``since_last_modification`` for
        idle-timeout streams whose :meth:`touch` restarts the timer.
        """
        db = self.database
        if name in db.table_names():
            return db.table(name)
        return db.create_table(
            name,
            schema,
            removal_policy=removal_policy,
            lazy_batch_size=lazy_batch_size,
            partitions=partitions,
            partition_key=partition_key,
            layout=layout,
            expiry=expiry,
            default_ttl=ttl,
        )

    def stream(self, name: str) -> Table:
        return self.database.table(name)

    def ingest(self, name: str, row: tuple, ttl: Optional[int] = None) -> None:
        """One arrival: an insert whose texp is arrival + window/TTL."""
        table = self.stream(name)
        table.insert(row, ttl=ttl)
        events, _, resident = self._series(name)
        events.inc()
        resident.set(table.physical_size)

    def touch(self, name: str, row: tuple, ttl: Optional[int] = None) -> bool:
        """Activity on a since-last-modification stream: restart the timer.

        Returns whether the row was live (a dead or absent row is not
        revived; on absolute streams this is always a no-op).
        """
        touched = self.stream(name).touch(row, ttl=ttl)
        if touched is not None:
            self._series(name)[1].inc()
        return touched is not None

    def resident_tuples(self, name: str) -> int:
        """Physically resident rows (expired-but-unswept included)."""
        table = self.stream(name)
        size = table.physical_size
        self._series(name)[2].set(size)
        return size

    def _series(self, name: str) -> tuple:
        """Stream ``name``'s (events, touches, resident) series, looked up once."""
        series = self._stream_series.get(name)
        if series is None:
            families = (self._events, self._touches, self._resident)
            series = self._stream_series[name] = tuple(f.labels(name) for f in families)
        return series

    # -- standing queries ----------------------------------------------------

    def _add(self, kind, name: str, stream: str, *args) -> StandingQuery:
        if name in self._queries:  # before the query attaches its listeners
            raise EngineError(f"standing query {name!r} already exists")
        query = kind(self, name, self.stream(stream), *args)
        self._queries[name] = query
        return query

    def query(self, name: str) -> StandingQuery:
        return self._queries[name]

    def count(
        self,
        stream: str,
        tolerance: Tolerance = EXACT_TOLERANCE,
        name: Optional[str] = None,
    ) -> WindowedCount:
        """A standing windowed count over the stream."""
        name = name if name is not None else f"{stream}:count"
        return self._add(WindowedCount, name, stream, tolerance)

    def distinct(
        self,
        stream: str,
        attribute: Any,
        tolerance: Tolerance = EXACT_TOLERANCE,
        name: Optional[str] = None,
    ) -> DistinctCount:
        """A standing distinct-count of one attribute over the stream."""
        name = name if name is not None else f"{stream}:distinct:{attribute}"
        return self._add(DistinctCount, name, stream, attribute, tolerance)

    def sample(
        self,
        stream: str,
        capacity: int,
        rng: Optional[random.Random] = None,
        name: Optional[str] = None,
    ) -> ReservoirSample:
        """A bounded reservoir sample of the unexpired stream."""
        name = name if name is not None else f"{stream}:sample"
        return self._add(ReservoirSample, name, stream, capacity, rng)

    def extent(
        self,
        stream: str,
        attribute: Any,
        tolerance: Tolerance = EXACT_TOLERANCE,
        name: Optional[str] = None,
    ) -> ExtentAggregate:
        """A standing diameter extent over a numeric attribute."""
        name = name if name is not None else f"{stream}:extent:{attribute}"
        return self._add(ExtentAggregate, name, stream, attribute, tolerance)

    def watch(
        self,
        stream: str,
        group_by: Any,
        distinct: Sequence[Any],
        threshold: int,
        name: Optional[str] = None,
    ) -> ThresholdWatch:
        """A per-group distinct-count threshold query (scan detection)."""
        name = name if name is not None else f"{stream}:watch:{group_by}"
        return self._add(ThresholdWatch, name, stream, group_by, distinct, threshold)
