"""Continuous queries over expiring streams.

The serve/refresh protocol (answers cached with their Schrödinger
validity interval, arrivals folded in incrementally, refreshes only when
``I(e)`` runs out or a revocation dirties the cache -- and, for the
counting family, never because ``I(e)`` ran out: its one expiration
schedule patches the answer forward), the two table-level expiry
policies, and a brute-force differential for every standing-query kind
over randomised schedules of inserts, renewals, touches, overrides,
deletes, and clock advances.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approximate import AbsoluteTolerance
from repro.core.timestamps import INFINITY
from repro.engine.database import Database
from repro.errors import EngineError
from repro.workloads import (
    CONNECTION_SCHEMA,
    EVENT_SCHEMA,
    StreamStore,
)

STREAM_SHAPES = [
    pytest.param({}, id="flat-row"),
    pytest.param({"layout": "columnar"}, id="flat-columnar"),
    pytest.param({"partitions": 3, "partition_key": "key"}, id="partitioned"),
]


def make_store(shape=None, ttl=10, expiry="absolute"):
    store = StreamStore()
    store.create_stream("s", EVENT_SCHEMA, ttl=ttl, expiry=expiry, **(shape or {}))
    return store


class TestStreamStore:
    @pytest.mark.parametrize("shape", STREAM_SHAPES)
    def test_ingest_defaults_to_stream_ttl(self, shape):
        store = make_store(shape, ttl=7)
        store.ingest("s", (1, 1))
        texp = store.stream("s").relation.expiration_or_none((1, 1))
        assert texp.value == 7

    def test_per_event_ttl_overrides_default(self):
        store = make_store(ttl=7)
        store.ingest("s", (1, 1), ttl=3)
        assert store.stream("s").relation.expiration_or_none((1, 1)).value == 3

    def test_attach_to_existing_table(self):
        db = Database()
        db.create_table("s", EVENT_SCHEMA, default_ttl=5)
        store = StreamStore(db)
        assert store.create_stream("s", EVENT_SCHEMA, ttl=99) is db.table("s")
        assert store.stream("s").default_ttl == 5  # attach, not re-create

    def test_touch_on_absolute_stream_is_noop(self):
        store = make_store(ttl=10)
        store.ingest("s", (1, 1))
        assert not store.touch("s", (1, 1))

    def test_duplicate_query_name_rejected(self):
        store = make_store()
        store.count("s")
        with pytest.raises(EngineError):
            store.count("s")

    def test_metrics_families_update(self):
        store = make_store()
        hits = store.count("s")
        store.ingest("s", (1, 1))
        hits.read()
        hits.read()
        metrics = store.database.metrics
        assert metrics.get("repro_streaming_events_total").labels("s").value == 1
        serves = metrics.get("repro_streaming_query_serves_total")
        assert serves.labels("s:count", "refresh").value == 1
        assert serves.labels("s:count", "cached").value == 1
        # The first read is a refresh, but no validity ran out for it.
        assert refresh_causes(store, "s:count") == {"initial": 1}


class TestIdleTimeoutPolicy:
    """The since-last-modification stream: activity renews, idleness kills."""

    def test_touched_rows_outlive_untouched(self):
        store = StreamStore()
        store.create_stream(
            "conns", CONNECTION_SCHEMA, ttl=5,
            expiry="since_last_modification",
        )
        active = ("a", "b", 80)
        idle = ("c", "d", 443)
        store.ingest("conns", active)
        store.ingest("conns", idle)
        for _ in range(4):
            store.database.tick(3)
            assert store.touch("conns", active)
        table = store.stream("conns")
        assert table.relation.expiration_or_none(active) is not None
        assert len(table) == 1  # the idle one is gone

    def test_touch_does_not_revive_dead_row(self):
        store = StreamStore()
        store.create_stream(
            "conns", CONNECTION_SCHEMA, ttl=5,
            expiry="since_last_modification",
        )
        store.ingest("conns", ("a", "b", 80))
        store.database.tick(5)
        assert not store.touch("conns", ("a", "b", 80))
        assert len(store.stream("conns")) == 0

    def test_touch_counter(self):
        store = StreamStore()
        store.create_stream(
            "conns", CONNECTION_SCHEMA, ttl=5,
            expiry="since_last_modification",
        )
        store.ingest("conns", ("a", "b", 80))
        store.touch("conns", ("a", "b", 80))
        store.touch("conns", ("x", "y", 1))  # absent: not counted
        metrics = store.database.metrics
        assert (
            metrics.get("repro_streaming_touches_total").labels("conns").value
            == 1
        )


class TestServeRefreshProtocol:
    """Re-evaluation happens only when I(e) runs out, not per event."""

    def test_cached_within_validity(self):
        store = make_store(ttl=10)
        hits = store.count("s")
        store.ingest("s", (1, 1))
        store.ingest("s", (2, 2))
        assert hits.read() == 2
        first_validity = hits.validity
        store.database.tick(3)  # still inside [0, 10)
        assert hits.read() == 2
        assert hits.validity is first_validity  # no refresh happened

    def test_expirations_patch_forward_without_a_refresh(self):
        store = make_store(ttl=10)
        hits = store.count("s")
        store.ingest("s", (1, 1), ttl=4)
        store.ingest("s", (2, 2), ttl=10)
        assert hits.read() == 2
        validity = hits.validity
        store.database.tick(4)
        assert hits.read() == 1
        store.database.tick(6)
        assert hits.read() == 0
        # The clock cannot leave [0, ∞): the one refresh was the first read.
        assert hits.validity is validity
        assert validity.intervals[-1].end == INFINITY
        assert refresh_causes(store, "s:count") == {"initial": 1}

    def test_backwards_read_is_refused(self):
        store = make_store(ttl=10)
        hits = store.count("s")
        store.ingest("s", (1, 1), ttl=4)
        store.database.tick(5)
        assert hits.read() == 0  # the schedule dropped the row for good
        with pytest.raises(EngineError, match="back in time"):
            hits.read(at=3)
        assert hits.read(at=5) == 0  # the same time is not backwards

    def test_expired_unread_then_reingested_counts_once(self):
        store = make_store(ttl=10)
        hits = store.count("s")
        keys = store.distinct("s", "key")
        watch = store.watch("s", group_by="key", distinct=("value",), threshold=1)
        store.ingest("s", (1, 1), ttl=2)
        assert (hits.read(), keys.read(), watch.read()) == (1, 1, {1: 1})
        store.database.tick(5)  # dead since 2, and nobody read meanwhile
        store.ingest("s", (1, 1), ttl=3)
        assert (hits.read(), keys.read(), watch.read()) == (1, 1, {1: 1})
        store.database.tick(3)
        assert (hits.read(), keys.read(), watch.read()) == (0, 0, {})

    def test_arrivals_fold_in_without_refresh(self):
        store = make_store(ttl=10)
        hits = store.count("s")
        assert hits.read() == 0
        for i in range(20):
            store.ingest("s", (i, i))
        assert hits.read() == 20
        serves = store.database.metrics.get("repro_streaming_query_serves_total")
        assert serves.labels("s:count", "refresh").value == 1  # only the first

    def test_override_dirties_the_cache(self):
        store = make_store(ttl=10)
        hits = store.count("s")
        store.ingest("s", (1, 1))
        store.ingest("s", (2, 2))
        assert hits.read() == 2
        # Revoke one row mid-validity: the next read must not serve 2.
        store.stream("s").override((2, 2), expires_at=store.database.now)
        assert hits.read() == 1
        causes = store.database.metrics.get(
            "repro_streaming_query_refreshes_total"
        )
        assert causes.labels("s:count", "revoked").value == 1

    def test_tolerant_count_is_exact_and_never_refreshes(self):
        store = make_store(ttl=100)
        exact = store.count("s", name="exact")
        loose = store.count("s", tolerance=AbsoluteTolerance(5), name="loose")
        distinct = store.distinct("s", "key", tolerance=AbsoluteTolerance(5))
        for i in range(10):
            store.ingest("s", (i, i), ttl=10 + i)
        assert exact.read() == loose.read() == distinct.read() == 10
        # A declared band is still accepted, but buys nothing: both
        # answers hold from the first read onwards, exactly.
        assert exact.validity == loose.validity == distinct.validity
        assert loose.validity.intervals[-1].end == INFINITY
        store.database.tick(13)  # four deaths: inside the band, yet shown
        assert exact.read() == loose.read() == distinct.read() == 6
        for name in ("exact", "loose", "s:distinct:key"):
            assert refresh_causes(store, name) == {"initial": 1}


def refresh_causes(store, query):
    """``{cause: refreshes}`` of one standing query, zero counts left out."""
    family = store.database.metrics.get("repro_streaming_query_refreshes_total")
    return {
        labels[1]: counter.value
        for labels, counter in family.series()
        if labels[0] == query and counter.value
    }


def brute_count(table, tau):
    return sum(1 for _, texp in table.relation.items() if tau < texp)


def brute_distinct(table, tau, index):
    return len(
        {row[index] for row, texp in table.relation.items() if tau < texp}
    )


def brute_extent(table, tau, index):
    values = [row[index] for row, texp in table.relation.items() if tau < texp]
    return (max(values) - min(values)) if values else None


class TestDifferential:
    """Random schedules vs brute force, across stream shapes."""

    @pytest.mark.parametrize("shape", STREAM_SHAPES)
    def test_exact_queries_match_brute_force(self, shape):
        store = make_store(shape)
        count = store.count("s")
        distinct = store.distinct("s", "key")
        extent = store.extent("s", "value")
        table = store.stream("s")
        rng = random.Random(20060408)
        for step in range(600):
            roll = rng.random()
            if roll < 0.55:
                store.ingest(
                    "s",
                    (rng.randrange(40), rng.randrange(100)),
                    ttl=rng.randint(1, 20),
                )
            elif roll < 0.65:
                rows = list(table.read().rows())
                if rows:
                    # Last-write shortening: revocation mid-validity.
                    table.override(
                        rng.choice(rows),
                        expires_at=store.database.now.value + rng.randint(0, 3),
                    )
            else:
                store.database.tick(rng.randint(1, 4))
            if step % 7 == 0:
                tau = store.database.now
                assert count.read() == brute_count(table, tau)
                assert distinct.read() == brute_distinct(table, tau, 0)
                assert extent.read() == brute_extent(table, tau, 1)

    def test_tolerant_count_stays_in_band(self):
        store = make_store(ttl=30)
        epsilon = 4
        loose = store.count("s", tolerance=AbsoluteTolerance(epsilon))
        table = store.stream("s")
        rng = random.Random(20060409)
        refreshes = store.database.metrics.get(
            "repro_streaming_query_refreshes_total"
        )
        for step in range(800):
            if rng.random() < 0.6:
                store.ingest(
                    "s",
                    (rng.randrange(500), rng.randrange(100)),
                    ttl=rng.randint(1, 25),
                )
            else:
                store.database.tick(1)
            got = loose.read()
            truth = brute_count(table, store.database.now)
            assert abs(got - truth) <= epsilon
        # The tolerance bought real savings: far fewer refreshes than reads.
        total = sum(c.value for _, c in refreshes.series())
        assert total < 800 / 4


def brute_watch(table, tau):
    groups = {}
    for row, texp in table.relation.items():
        if tau < texp:
            groups.setdefault(row[0], set()).add(row[1:])
    return {group: len(values) for group, values in groups.items()}


def parked(schedule):
    """Bucket entries of a schedule (held keys + stale renewals)."""
    return sum(len(bucket) for bucket in schedule.buckets.values())


ROWS = st.tuples(st.integers(0, 4), st.integers(0, 2))
INGEST = st.tuples(
    st.just("ingest"), ROWS, st.one_of(st.none(), st.integers(1, 6))
)
TICK = st.tuples(st.just("tick"), st.integers(1, 5))
READ = st.tuples(st.just("read"), st.integers(1, 15))
#: Mostly arrivals, ticks and reads: a revocation makes the next read
#: rescan, and it is the stretches *between* rescans that are under test.
HISTORY = st.lists(
    st.one_of(
        INGEST, INGEST, INGEST, INGEST, TICK, TICK, READ, READ,
        st.tuples(st.just("touch"), ROWS),
        st.tuples(st.just("override"), ROWS, st.integers(0, 3)),
        st.tuples(st.just("delete"), ROWS),
    ),
    min_size=8,
    max_size=80,
)


class TestCountingSchedule:
    """Every counted key sits on one schedule (DESIGN §5j)."""

    @pytest.mark.parametrize("shape", STREAM_SHAPES)
    @settings(max_examples=200, deadline=None)
    @given(history=HISTORY)
    def test_reads_match_brute_force_over_random_histories(self, shape, history):
        store = make_store(shape, ttl=4, expiry="since_last_modification")
        table = store.stream("s")
        queries = [
            store.count("s", name="exact"),
            store.count("s", name="loose", tolerance=AbsoluteTolerance(3)),
            store.distinct("s", "key", name="distinct"),
            store.watch("s", "key", ("value",), threshold=2, name="watch"),
        ]
        # Read first, so that everything after arrives through the listeners.
        for op in [("read", 15)] + history + [("read", 15)]:
            if op[0] == "ingest":
                # Small domains: most ingests renew a resident row.
                if op[2] is None:
                    table.insert(op[1], expires_at=INFINITY)
                else:
                    store.ingest("s", op[1], ttl=op[2])
            elif op[0] == "touch":
                store.touch("s", op[1])
            elif op[0] == "override":  # shortens, lengthens, revokes, creates
                table.override(op[1], expires_at=store.database.now.value + op[2])
            elif op[0] == "delete":
                table.delete(op[1])
            elif op[0] == "tick":
                store.database.tick(op[1])
            else:
                tau = store.database.now
                count = brute_count(table, tau)
                truth = [count, count, brute_distinct(table, tau, 0),
                         brute_watch(table, tau)]
                for bit, (query, expected) in enumerate(zip(queries, truth)):
                    if op[1] >> bit & 1:  # the others keep their unread backlog
                        assert query.read() == expected, query.name
        for query in queries:
            causes = refresh_causes(store, query.name)
            assert causes.pop("initial") == 1
            assert set(causes) <= {"revoked"}  # never "validity"

    def test_schedule_does_not_leak_under_churn(self):
        store = make_store(ttl=20)
        hits = store.count("s")
        table = store.stream("s")
        rng = random.Random(20060417)
        peak = 0
        for _ in range(10_000):
            for _ in range(rng.randint(0, 4)):
                row = (rng.randrange(30), rng.randrange(3))
                store.ingest("s", row, ttl=rng.randint(1, 20))
            store.database.tick(1)
            if rng.random() < 0.3:
                assert hits.read() == brute_count(table, store.database.now)
                peak = max(peak, parked(hits._live))
        assert peak <= 2 * 90  # 90 possible rows
        store.database.tick(20)
        assert hits.read() == 0
        assert parked(hits._live) == 0
        assert refresh_causes(store, "s:count") == {"initial": 1}

    def test_immortal_keys_are_counted_but_never_parked(self):
        store = make_store(ttl=5)
        hits = store.count("s")
        table = store.stream("s")
        store.ingest("s", (1, 1))
        table.insert((1, 1), expires_at=INFINITY)  # renewed to forever
        table.insert((2, 2), expires_at=INFINITY)
        store.ingest("s", (2, 2), ttl=3)  # max-merge: stays immortal
        store.database.tick(50)
        assert hits.read() == 2
        assert parked(hits._live) == 0

    def test_watch_serves_without_walking_every_pair(self):
        store = make_store(ttl=50)
        watch = store.watch("s", "key", ("value",), threshold=3)
        for value in range(5):
            store.ingest("s", (1, value), ttl=10 + value)
        store.ingest("s", (2, 0), ttl=50)
        assert watch.alerts() == {1: 5}
        store.database.tick(12)  # values 0..2 of group 1 are gone
        assert watch.read() == {1: 2, 2: 1}
        assert watch.alerts() == {}
        store.database.tick(10)
        assert watch.read() == {2: 1}
        assert refresh_causes(store, watch.name) == {"initial": 1}


class TestReservoirSample:
    def test_members_are_live_subset_and_bounded(self):
        store = make_store(ttl=15)
        sample = store.sample("s", capacity=8, rng=random.Random(1))
        table = store.stream("s")
        rng = random.Random(20060410)
        for _ in range(400):
            if rng.random() < 0.7:
                store.ingest(
                    "s",
                    (rng.randrange(1000), rng.randrange(50)),
                    ttl=rng.randint(1, 12),
                )
            else:
                store.database.tick(1)
            members = sample.read()
            assert len(members) <= 8
            live = set(table.read().rows())
            assert set(members) <= live
            # Depletion refills: with plenty live, never near-empty.
            if len(live) >= 8:
                assert len(members) >= 4

    def test_members_are_probed_once_per_clock_value(self):
        store = make_store(ttl=10)
        sample = store.sample("s", capacity=8, rng=random.Random(2))
        table = store.stream("s")
        for i in range(6):
            store.ingest("s", (i, i), ttl=2 + i)
        probes = []
        alive = sample._alive
        sample._alive = lambda row, tau: probes.append(row) or alive(row, tau)
        store.database.tick(1)
        assert len(sample.read()) == 6
        assert len(probes) == 6
        store.ingest("s", (6, 6))  # an arrival joins without a probe
        assert len(sample.read()) == 7
        assert len(probes) == 6  # same clock value, clean: nothing re-probed
        # A revocation dirties the query: the dead member is not served.
        table.override((6, 6), expires_at=store.database.now)
        assert (6, 6) not in sample.read()
        store.database.tick(1)  # the clock moved: (0, 0) dies at 2
        assert set(sample.read()) == {(i, i) for i in range(1, 6)}

    def test_a_read_ahead_of_the_clock_still_filters_late_arrivals(self):
        store = make_store(ttl=10)
        sample = store.sample("s", capacity=8)
        store.ingest("s", (1, 1), ttl=9)
        assert sample.read(at=5) == [(1, 1)]
        store.ingest("s", (2, 2), ttl=3)  # alive now, dead at 5
        assert sample.read(at=5) == [(1, 1)]

    def test_empty_stream_serves_empty(self):
        store = make_store(ttl=5)
        sample = store.sample("s", capacity=4)
        assert sample.read() == []
        store.ingest("s", (1, 1))
        store.database.tick(5)
        assert sample.read() == []


class TestExtent:
    def test_endpoint_death_shrinks_extent_same_read(self):
        store = make_store(ttl=50)
        extent = store.extent("s", "value")
        store.ingest("s", (1, 0), ttl=50)
        store.ingest("s", (2, 100), ttl=5)  # the max dies early
        assert extent.read() == 100
        store.database.tick(5)
        assert extent.read() == 0  # no stale serve after the endpoint died


class TestThresholdWatch:
    def test_scan_detection(self):
        store = StreamStore()
        store.create_stream("conns", CONNECTION_SCHEMA, ttl=10)
        watch = store.watch(
            "conns", group_by="src", distinct=("dst", "dport"), threshold=3
        )
        # An honest host touches one target repeatedly; a scanner fans out.
        for _ in range(5):
            store.ingest("conns", ("honest", "web", 443))
        for port in range(4):
            store.ingest("conns", ("scanner", "victim", port))
        alerts = watch.alerts()
        assert alerts == {"scanner": 4}

    def test_alerts_expire_with_entries(self):
        store = StreamStore()
        store.create_stream("conns", CONNECTION_SCHEMA, ttl=5)
        watch = store.watch(
            "conns", group_by="src", distinct=("dst", "dport"), threshold=2
        )
        store.ingest("conns", ("s", "a", 1))
        store.ingest("conns", ("s", "b", 2))
        assert watch.alerts() == {"s": 2}
        store.database.tick(5)
        assert watch.alerts() == {}


class TestPersistence:
    def test_expiry_policy_survives_recovery(self, tmp_path):
        from repro.engine.recovery import recover_database

        db = Database(wal_dir=tmp_path)
        db.create_table(
            "conns", CONNECTION_SCHEMA,
            expiry="since_last_modification", default_ttl=6,
        )
        db.table("conns").insert(("a", "b", 80))
        db.close()

        recovered = recover_database(tmp_path)
        table = recovered.table("conns")
        assert table.expiry == "since_last_modification"
        assert table.default_ttl == 6
        # The policy is live, not just recorded: touch still renews.
        recovered.tick(3)
        assert table.touch(("a", "b", 80)) is not None
        recovered.tick(4)
        assert len(table) == 1
