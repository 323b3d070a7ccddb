"""One mutation pipeline and one sweep: the discipline, per verb x shape.

Every verb of :class:`~repro.engine.table.Table` ends in the same
pipeline and every removal of a due tuple in the same sweep, whatever the
storage shape.  The table-driven test states the discipline once --
expiration index rescheduled to the stored ``texp``, one WAL record of
the right kind carrying the pre-image, data version bumped, the right
listener family fired once, the right counter moved, audit clean -- and
runs it for each verb on flat / columnar / partitioned /
partitioned-columnar tables under both removal policies.

The second half pins the LAZY fix: a due row that no vacuum has reclaimed
yet expired at its stored ``texp``, so a verb that meets it reports that
expiration first (ON-EXPIRE, counters, WAL ``remove``) and then sees the
row absent, exactly as under EAGER.
"""

import pytest

from repro.core.timestamps import INFINITY, ts
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.recovery import recover_database
from repro.errors import RelationError

SHAPES = {
    "flat": {},
    "columnar": {"layout": "columnar"},
    "partitioned": {"partitions": 3, "partition_key": "k"},
    "partitioned-columnar": {
        "partitions": 3, "partition_key": "k", "layout": "columnar",
    },
}
POLICIES = [RemovalPolicy.EAGER, RemovalPolicy.LAZY]

ROW = (1, 7)
OTHER = (2, 8)


class Probe:
    """A durable table of one shape with every side effect of a verb tapped."""

    def __init__(self, tmp_path, shape, policy):
        self.db = Database(wal_dir=tmp_path)
        # An idle-timeout table so that ``touch`` is not a no-op; explicit
        # lifetimes behave as on any other table.
        self.table = self.db.create_table(
            "T", ["k", "v"], removal_policy=policy, lazy_batch_size=1_000,
            expiry="since_last_modification", default_ttl=6, **SHAPES[shape],
        )
        self.inserted, self.deleted, self.fired = [], [], []
        self.table.insert_listeners.append(
            lambda table, stored: self.inserted.append(
                (stored.row, stored.expires_at)
            )
        )
        self.table.delete_listeners.append(
            lambda table, row: self.deleted.append(row)
        )
        self.table.triggers.register(
            "audit",
            lambda event: self.fired.append(
                (event.tuple.row, event.tuple.expires_at.value)
            ),
        )

    def physical_records(self):
        return [
            record for record in self.db.wal.records()
            if record["kind"] in ("upsert", "remove")
        ]

    def observe(self, action):
        """Run ``action``; return its result and everything it caused."""
        logged = len(self.physical_records())
        version = self.db.catalog_version
        marks = len(self.inserted), len(self.deleted), len(self.fired)
        counters = self.db.statistics.snapshot()
        result = action(self.table)
        return result, {
            "records": [
                {key: value for key, value in record.items() if key != "table"}
                for record in self.physical_records()[logged:]
            ],
            "version_bumped": self.db.catalog_version > version,
            "inserted": self.inserted[marks[0]:],
            "deleted": self.deleted[marks[1]:],
            "fired": self.fired[marks[2]:],
            "counters": self.db.statistics.diff(counters),
        }

    def scheduled(self, row):
        """The tick ``row`` is indexed at (``None``: no live entry)."""
        hits = [
            tick
            for shard in self.table._shards
            for indexed, tick in shard.index.items()
            if indexed == row
        ]
        assert len(hits) <= 1
        return hits[0] if hits else None


def sweep(table):
    table.database.advance_to(5)
    return table.vacuum()  # LAZY reclaims here; EAGER already did


#: name -> (setup, action, expected).  ``stored`` is the row's expiration
#: afterwards (``None`` = absent); ``records`` the physical WAL records the
#: verb alone must write.
CASES = {
    "insert": (
        lambda t: None,
        lambda t: t.insert(ROW, expires_at=20),
        dict(stored=ts(20), inserted=[(ROW, ts(20))],
             records=[dict(kind="upsert", row=(1, 7), texp=20, prev="absent")],
             counters={"inserts": 1}),
    ),
    "insert keeps the later expiration": (
        lambda t: t.insert(ROW, expires_at=30),
        lambda t: t.insert(ROW, expires_at=20),
        dict(stored=ts(30), inserted=[(ROW, ts(30))],
             records=[dict(kind="upsert", row=(1, 7), texp=30, prev=30)],
             counters={"inserts": 1}),
    ),
    "renew": (
        lambda t: t.insert(ROW, expires_at=5),
        lambda t: t.renew(ROW, 20),
        dict(stored=ts(20), inserted=[(ROW, ts(20))],
             records=[dict(kind="upsert", row=(1, 7), texp=20, prev=5)],
             counters={"inserts": 1}),
    ),
    "touch": (
        lambda t: t.insert(ROW, expires_at=3),
        lambda t: t.touch(ROW),
        dict(stored=ts(6), inserted=[(ROW, ts(6))],
             records=[dict(kind="upsert", row=(1, 7), texp=6, prev=3)],
             counters={"inserts": 1, "touches": 1}),
    ),
    "override shortens": (
        lambda t: t.insert(ROW, expires_at=30),
        lambda t: t.override(ROW, expires_at=4),
        dict(stored=ts(4), deleted=[ROW],
             records=[dict(kind="upsert", row=(1, 7), texp=4, prev=30)],
             counters={"overrides": 1}),
    ),
    "override pins forever": (
        lambda t: t.insert(ROW, expires_at=30),
        lambda t: t.override(ROW),
        dict(stored=INFINITY, deleted=[ROW],
             records=[dict(kind="upsert", row=(1, 7), texp=None, prev=30)],
             counters={"overrides": 1}),
    ),
    "delete": (
        lambda t: t.insert(ROW, expires_at=30),
        lambda t: t.delete(ROW),
        dict(stored=None, deleted=[ROW], result=True,
             records=[dict(kind="remove", row=(1, 7), prev=30)],
             counters={"explicit_deletes": 1}),
    ),
    "delete of an absent row": (
        lambda t: None,
        lambda t: t.delete(ROW),
        dict(stored=None, result=False, records=[], counters={},
             version_bumped=False),
    ),
    "undo_insert to absent": (
        lambda t: t.insert(ROW, expires_at=30),
        lambda t: t.undo_insert(ROW, None),
        dict(stored=None, deleted=[ROW],
             records=[dict(kind="remove", row=(1, 7), prev=30)],
             counters={}),
    ),
    "undo_insert to a previous texp": (
        lambda t: t.insert(ROW, expires_at=30),
        lambda t: t.undo_insert(ROW, ts(12)),
        dict(stored=ts(12), deleted=[ROW],
             records=[dict(kind="upsert", row=(1, 7), texp=12, prev=30)],
             counters={}),
    ),
    "undo_delete": (
        lambda t: None,
        lambda t: t.undo_delete(ROW, ts(15)),
        dict(stored=ts(15), inserted=[(ROW, ts(15))],
             records=[dict(kind="upsert", row=(1, 7), texp=15, prev="absent")],
             counters={}),
    ),
    # Expiry is what every cached result's validity already predicts: the
    # sweep fires the ON-EXPIRE trigger, not a listener, and leaves the
    # data version alone.
    "sweep": (
        lambda t: (t.insert(ROW, expires_at=4), t.insert(OTHER, expires_at=50)),
        sweep,
        dict(stored=None, fired=[(ROW, 4)], version_bumped=False,
             records=[dict(kind="remove", row=(1, 7), prev=4)],
             counters={"expirations_processed": 1, "purge_passes": 1,
                       "triggers_fired": 1}),
    ),
}


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("verb", CASES)
def test_every_verb_keeps_the_discipline(tmp_path, verb, shape, policy):
    setup, action, expected = CASES[verb]
    probe = Probe(tmp_path, shape, policy)
    setup(probe.table)
    result, effects = probe.observe(action)

    stored = probe.table.relation.expiration_or_none(ROW)
    assert stored == expected["stored"]
    # Index entry equals the stored texp; rows that never expire (and
    # absent ones) are not indexed at all.
    finite = stored is not None and stored.is_finite
    assert probe.scheduled(ROW) == (stored.value if finite else None)
    assert effects["records"] == expected["records"]
    assert effects["version_bumped"] is expected.get("version_bumped", True)
    assert effects["inserted"] == expected.get("inserted", [])
    assert effects["deleted"] == expected.get("deleted", [])
    assert effects["fired"] == expected.get("fired", [])
    assert effects["counters"] == expected["counters"]
    if "result" in expected:
        assert result is expected["result"]
    assert probe.db.verify(strict=True) == []
    probe.db.close()


class TestTrustedBulkPaths:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bulk_load_schedules_what_storage_kept(self, shape):
        db = Database()
        table = db.create_table("T", ["k", "v"], **SHAPES[shape])
        table.insert((3, 3), expires_at=40)
        loaded = table.bulk_load([
            ((1, 1), ts(5)), ((1, 1), ts(9)),  # repeated: max-merge
            ((2, 2), ts(3)), ((3, 3), ts(7)),  # (3, 3) is stored later
            ((4, 4), INFINITY),
        ])
        assert loaded == 5
        assert dict(table.relation.items()) == {
            (1, 1): ts(9), (2, 2): ts(3), (3, 3): ts(40), (4, 4): INFINITY,
        }
        assert table.next_expiration() == ts(3)
        assert db.verify(strict=True) == []
        db.close()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_bulk_restore_is_last_write_in_order(self, shape):
        db = Database()
        table = db.create_table("T", ["k", "v"], **SHAPES[shape])
        table.insert((1, 1), expires_at=40)
        table.insert((2, 2), expires_at=40)
        table.bulk_restore([
            ((1, 1), ts(9)), ((2, 2), None), ((3, 3), ts(6)),
            ((3, 3), None), ((4, 4), None), ((4, 4), ts(8)),
        ])
        assert dict(table.relation.items()) == {(1, 1): ts(9), (4, 4): ts(8)}
        assert table.next_expiration() == ts(8)
        assert db.verify(strict=True) == []
        db.close()


class TestLazyReportsWhatExpired:
    """Eager and lazy removal differ in *when* a tuple is reclaimed, never
    in whether its expiration is reported."""

    @pytest.fixture(params=[False, True], ids=["memory", "wal"])
    def make_db(self, request, tmp_path):
        def make():
            return Database(wal_dir=tmp_path) if request.param else Database()

        make.durable = request.param
        make.path = tmp_path
        return make

    @staticmethod
    def table_with_audit(db, shape, policy):
        table = db.create_table(
            "T", ["k"], removal_policy=policy, lazy_batch_size=1_000,
            **SHAPES[shape],
        )
        fired = []
        table.triggers.register(
            "audit",
            lambda event: fired.append(
                (event.tuple.row, event.tuple.expires_at.value)
            ),
        )
        return table, fired

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_delete_of_a_lapsed_row_reports_the_expiration(
        self, make_db, shape, policy
    ):
        db = make_db()
        table, fired = self.table_with_audit(db, shape, policy)
        table.insert((1,), expires_at=2)
        db.advance_to(5)
        assert table.delete((1,)) is False  # it expired; nothing to delete
        assert fired == [((1,), 2)]
        assert db.statistics.explicit_deletes == 0
        assert db.statistics.expirations_processed == 1
        expired = db.metrics.snapshot()[
            f'repro_expiration_tuples_expired_total{{policy="{policy.value}"}}'
        ]
        assert expired == 1
        assert table.physical_size == 0
        assert db.verify(strict=True) == []
        if make_db.durable:
            last = [r for r in db.wal.records() if r["kind"] == "remove"][-1]
            assert (last["row"], last["prev"]) == ((1,), 2)
            assert "txn" not in last
            db.close()
            db = recover_database(make_db.path)
            table = db.table("T")
            table.triggers.register("audit", lambda event: fired.append(event))
            assert table.physical_size == 0
        db.advance_to(9)
        table.vacuum()
        assert fired == [((1,), 2)]  # reported exactly once
        db.close()

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_insert_onto_a_lapsed_row_reports_the_expiration(
        self, make_db, shape, policy
    ):
        db = make_db()
        table, fired = self.table_with_audit(db, shape, policy)
        table.insert((2,), expires_at=7)
        db.advance_to(8)
        stored = table.insert((2,), expires_at=20)  # a new incarnation
        assert stored.expires_at == ts(20)
        assert fired == [((2,), 7)]
        assert db.verify(strict=True) == []
        if make_db.durable:
            kinds = [
                (r["kind"], r["prev"]) for r in db.wal.records()
                if r["kind"] in ("upsert", "remove")
            ]
            assert kinds == [
                ("upsert", "absent"), ("remove", 7), ("upsert", "absent"),
            ]
        # The first incarnation's buffered due entry is stale now: the
        # sweep that finally takes the row must report the stored
        # expiration (20), not the scheduled one it finds first (7).
        db.advance_to(20)
        table.vacuum()
        assert fired == [((2,), 7), ((2,), 20)]
        assert table.physical_size == 0
        assert db.verify(strict=True) == []
        db.close()

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_revoked_to_now_is_still_deletable_until_the_clock_moves(
        self, shape, policy
    ):
        """``override(expires_at=now)`` hides a row at once, but it comes
        due at the next advance -- under either policy, and whatever else
        is waiting in the shard's due buffer."""
        db = Database()
        table, fired = self.table_with_audit(db, shape, policy)
        for key in range(8):
            table.insert((key,), expires_at=3)
        table.insert((100,), expires_at=50)
        db.advance_to(3)  # LAZY: eight due rows buffered across the shards
        table.override((100,), expires_at=db.now)
        assert table.delete((100,)) is True
        assert db.statistics.explicit_deletes == 1
        db.advance_to(60)
        table.vacuum()
        assert sorted(fired) == [((key,), 3) for key in range(8)]
        assert db.verify(strict=True) == []
        db.close()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_aborted_transaction_does_not_revive_what_expired(self, shape):
        db = Database()
        table, fired = self.table_with_audit(db, shape, RemovalPolicy.LAZY)
        table.insert((1,), expires_at=5)
        db.advance_to(6)
        txn = db.transaction()
        txn.insert("T", (1,), ttl=10)
        txn.insert("T", (9,), expires_at=db.now)  # rejected: aborts the lot
        with pytest.raises(RelationError):
            txn.commit()
        assert fired == [((1,), 5)]
        assert table.physical_size == 0  # rolled back to absent, not to 5
        db.advance_to(50)
        table.vacuum()
        assert fired == [((1,), 5)]
        assert db.verify(strict=True) == []
        db.close()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_crash_mid_transaction_does_not_revive_what_expired(
        self, tmp_path, shape
    ):
        db = Database(wal_dir=tmp_path)
        table, fired = self.table_with_audit(db, shape, RemovalPolicy.LAZY)
        table.insert((1,), expires_at=5)
        db.advance_to(6)
        # A commit that was applying when the machine died: the bracket
        # is open, the insert's record carries the transaction id, the
        # expiration it triggered on the way does not.
        txn_id = db.wal.next_txn_id()
        db.wal.append("begin", txn=txn_id)
        db._wal_txn = txn_id
        table.insert((1,), ttl=10)
        assert fired == [((1,), 5)]
        db.close()

        recovered = recover_database(tmp_path)
        assert recovered.last_recovery.transactions_rolled_back == 1
        table = recovered.table("T")
        refired = []
        table.triggers.register("audit", lambda event: refired.append(event))
        assert table.physical_size == 0
        recovered.advance_to(50)
        table.vacuum()
        assert refired == []
        recovered.close()
