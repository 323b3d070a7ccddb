"""Tests for the write-ahead log: frames, torn tails, the checkpoint."""

from fractions import Fraction

import pytest

from repro.codec import decode_exp, decode_prev, encode_exp, encode_prev
from repro.core.timestamps import INFINITY, ts
from repro.engine import wal as wal_module
from repro.engine.database import Database
from repro.engine.recovery import recover_database
from repro.engine.wal import WriteAheadLog, scan_log
from repro.errors import RelationError, WalError
from tests.test_codec import BAD_FRAMES


class TestEncodings:
    def test_expiration_roundtrip(self):
        assert encode_exp(INFINITY) is None
        assert encode_exp(ts(5)) == 5
        assert decode_exp(None) == INFINITY
        assert decode_exp(5) == ts(5)

    def test_previous_state_roundtrip(self):
        assert encode_prev(None) == "absent"
        assert encode_prev(INFINITY) is None
        assert encode_prev(ts(7)) == 7
        assert decode_prev("absent") is None
        assert decode_prev(None) == INFINITY
        assert decode_prev(7) == ts(7)


class TestFrames:
    def test_append_and_read_back_in_order(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("clock", now=3)
        wal.append("upsert", table="T", row=[1, 2], texp=9, prev="absent")
        wal.append("remove", table="T", row=[1, 2], prev=9)
        records = wal.records()
        assert [r["kind"] for r in records] == ["clock", "upsert", "remove"]
        assert records[1]["row"] == (1, 2)
        assert records[1]["texp"] == 9
        wal.close()

    def test_scan_missing_file(self, tmp_path):
        assert scan_log(tmp_path / "nope.log") == ([], 0, False)

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.close()
        wal.close()  # idempotent
        with pytest.raises(WalError):
            wal.append("clock", now=1)

    def test_oversize_record_is_refused_before_any_byte(
        self, tmp_path, monkeypatch
    ):
        """The log never writes what its own reader would call a torn
        tail: at the parent the second append went to disk and the scan
        stopped there, losing the three good records behind it."""
        monkeypatch.setattr(wal_module, "_MAX_FRAME", 256)
        wal = WriteAheadLog(tmp_path)
        wal.append("clock", now=1)
        before = wal.log_path.stat().st_size
        with pytest.raises(WalError, match="exceeds the frame bound"):
            wal.append("create_view", spec={"blob": "x" * 300})
        assert wal.log_path.stat().st_size == before
        for now in (2, 3, 4):
            wal.append("clock", now=now)
        wal.close()
        records, length, torn = scan_log(wal.log_path)
        assert [r["now"] for r in records] == [1, 2, 3, 4]
        assert not torn
        assert length == wal.log_path.stat().st_size

    def test_a_record_json_cannot_write_is_refused(self, tmp_path):
        """Rows pass the table's domain check, but other records (a view
        spec built in Python) can hold any value."""
        wal = WriteAheadLog(tmp_path)
        wal.append("clock", now=1)
        before = wal.log_path.stat().st_size
        with pytest.raises(WalError, match="refusing to log a 'create_view'"):
            wal.append("create_view", spec={"constant": 1j})
        assert wal.log_path.stat().st_size == before
        wal.close()

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(WalError):
            WriteAheadLog(tmp_path, fsync="sometimes")

    def test_txn_counter_seeds_past_logged_ids(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("begin", txn=5)
        wal.append("commit", txn=5)
        wal.close()
        reopened = WriteAheadLog(tmp_path)
        assert reopened.next_txn_id() == 6
        reopened.close()

    def test_reset_empties_the_segment(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("clock", now=1)
        wal.reset()
        assert wal.records() == []
        wal.append("clock", now=2)  # still appendable after reset
        assert [r["now"] for r in wal.records()] == [2]
        wal.close()


class TestOpeningScan:
    """Opening a log decodes it once; reads reuse that until it changes."""

    def test_open_truncate_and_first_read_share_one_scan(
        self, tmp_path, log_scans
    ):
        wal = WriteAheadLog(tmp_path)
        wal.append("begin", txn=4)
        wal.append("upsert", table="T", row=[1], texp=9, prev="absent", txn=4)
        wal.close()
        with open(wal.log_path, "ab") as fh:
            fh.write(b"\x00\x00\x01\x00partial")
        del log_scans[:]  # the writer's own open
        reopened = WriteAheadLog(tmp_path)
        assert reopened.next_txn_id() == 5
        with pytest.warns(UserWarning, match="torn tail"):
            assert reopened.truncate_torn_tail()
        assert [r["kind"] for r in reopened.records()] == ["begin", "upsert"]
        assert len(log_scans) == 1
        # The list was handed over, not kept: the next read decodes anew.
        assert [r["kind"] for r in reopened.records()] == ["begin", "upsert"]
        assert len(log_scans) == 2
        reopened.close()

    def test_append_invalidates_the_opening_scan(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("clock", now=1)
        wal.close()
        reopened = WriteAheadLog(tmp_path)
        reopened.append("clock", now=2)
        assert [r["now"] for r in reopened.records()] == [1, 2]
        reopened.close()

    def test_reset_invalidates_the_opening_scan(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("upsert", table="T", row=[1], texp=3, prev="absent")
        wal.close()
        reopened = WriteAheadLog(tmp_path)
        reopened.reset()
        assert reopened.records() == []
        reopened.close()


class TestTornTails:
    def _intact(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("clock", now=1)
        wal.append("upsert", table="T", row=[1], texp=None, prev="absent")
        wal.close()
        return wal.log_path, len(wal.log_path.read_bytes())

    @pytest.mark.parametrize(
        "tail", [frame.data for frame in BAD_FRAMES.values() if frame.log == "torn"]
    )
    def test_tail_is_detected_and_truncated(self, tmp_path, tail):
        path, valid = self._intact(tmp_path)
        with open(path, "ab") as fh:
            fh.write(tail)
        records, length, torn = scan_log(path)
        assert torn
        assert length == valid
        assert [r["kind"] for r in records] == ["clock", "upsert"]
        wal = WriteAheadLog(tmp_path)
        with pytest.warns(UserWarning, match="torn tail"):
            assert wal.truncate_torn_tail()
        assert len(path.read_bytes()) == valid
        assert not wal.truncate_torn_tail()  # nothing left to drop
        wal.close()

    def test_clean_log_is_not_torn(self, tmp_path):
        path, valid = self._intact(tmp_path)
        records, length, torn = scan_log(path)
        assert not torn
        assert length == valid
        wal = WriteAheadLog(tmp_path)
        assert not wal.truncate_torn_tail()
        wal.close()


#: A row, a columnar and a partitioned table: one history runs on each.
SHAPES = {"R": {}, "C": {"layout": "columnar"}, "P": {"partitions": 3}}


def _state(db):
    return db.now.value, {
        name: dict(db.table(name).relation.items()) for name in db.table_names()
    }


class TestCheckpoint:
    """The one bound on the log: a snapshot of what is stored, then an
    empty log."""

    def test_checkpoint_is_replay_equivalent(self, tmp_path):
        """A renewal, an explicit delete and a row born and swept inside
        the log: recovery sees the same database, and no record of any of
        it is left."""
        db = Database(wal_dir=tmp_path, wal_fsync="never")
        for name, shape in SHAPES.items():
            table = db.create_table(name, ["k"], **shape)
            table.insert((1,), expires_at=5)
            table.renew((1,), ttl=30)
            table.insert((2,), expires_at=9)
            table.delete((2,))
            table.insert((3,), expires_at=4)
        db.advance_to(10)
        before = _state(db)
        assert before == (10, {name: {(1,): ts(30)} for name in SHAPES})
        db.checkpoint()
        assert db.wal.records() == []
        db.close()
        assert scan_log(tmp_path / WriteAheadLog.LOG_NAME)[0] == []
        recovered = recover_database(tmp_path)
        assert _state(recovered) == before
        assert recovered.last_recovery.records_replayed == 0
        recovered.close()

    def test_checkpoint_needs_a_log(self):
        with pytest.raises(WalError, match="needs a write-ahead log"):
            Database().checkpoint()

    def test_checkpoint_is_refused_while_a_commit_is_applying(self, tmp_path):
        """An insert listener runs inside the commit: a snapshot taken
        there would hold half the transaction and drop its bracket."""
        db = Database(wal_dir=tmp_path, wal_fsync="never")
        table = db.create_table("T", ["k"])
        refused = []

        def checkpoint_now(_table, stored):
            with pytest.raises(WalError, match="transaction is applying"):
                db.checkpoint()
            refused.append(stored)

        table.insert_listeners.append(checkpoint_now)
        with db.transaction() as txn:
            txn.insert("T", (1,), expires_at=9)
            txn.insert("T", (2,), expires_at=9)
        assert len(refused) == 2
        assert [r["kind"] for r in db.wal.records()][-4:] == [
            "begin", "upsert", "upsert", "commit",
        ]
        assert not db.wal.snapshot_path.exists()
        db.close()
        assert sorted(recover_database(tmp_path).table("T").relation.rows()) == [
            (1,), (2,),
        ]


class TestUnloggableMutations:
    """A mutation is applied only if it is logged."""

    @pytest.mark.parametrize(
        "shape", [{}, {"layout": "columnar"}, {"partitions": 3}],
        ids=["row", "columnar", "partitioned"],
    )
    def test_a_value_the_log_cannot_encode_leaves_no_trace(self, tmp_path, shape):
        """Once the row stayed readable, but no view heard of it and it was
        gone after a restart.  A tuple value encodes, as a JSON list, but
        used to be logged that way and make the directory unrecoverable:
        replay could not hash the list it read back.  Both values are
        outside the attribute domain, so the table's door refuses them
        before the log is asked."""
        db = Database(wal_dir=tmp_path)
        table = db.create_table("T", ["k"], **shape)
        table.insert((1,), ttl=5)
        view = db.materialise("v", db.table_expr("T"))
        assert sorted(view.read().rows()) == [(1,)]
        heard = []
        table.insert_listeners.append(lambda _table, stored: heard.append(stored))
        version = db.catalog_version
        with pytest.raises(RelationError, match="complex"):
            table.insert((complex(1, 2),), ttl=5)
        with pytest.raises(RelationError, match="tuple"):
            table.insert(((1, 2),), ttl=5)
        assert sorted(table.relation.rows()) == [(1,)]
        assert table.next_expiration() == ts(5)
        assert db.catalog_version == version
        assert heard == []
        assert sorted(view.read().rows()) == [(1,)]
        db.close()
        assert sorted(recover_database(tmp_path).table("T").relation.rows()) == [(1,)]

    def test_a_failed_append_restores_a_present_row(self, tmp_path, monkeypatch):
        db = Database(wal_dir=tmp_path)
        table = db.create_table("T", ["k"])
        table.insert((1,), expires_at=5)

        def refuse(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(db.wal, "append", refuse)
        with pytest.raises(OSError):
            table.override((1,), expires_at=9)
        with pytest.raises(OSError):
            table.delete((1,))
        assert table.relation.expiration_of((1,)) == ts(5)
        assert table.next_expiration() == ts(5)
        monkeypatch.undo()
        db.close()

    def test_a_fraction_survives_the_log_and_the_snapshot(self, tmp_path):
        db = Database(wal_dir=tmp_path)
        table = db.create_table("T", ["k", "v"])
        table.insert((1, Fraction(1, 3)), ttl=5)
        db.checkpoint()
        table.insert((2, Fraction(-7, 2)), ttl=5)
        db.close()
        rows = sorted(recover_database(tmp_path).table("T").relation.rows())
        assert rows == [(1, Fraction(1, 3)), (2, Fraction(-7, 2))]
        assert {type(v) for _, v in rows} == {Fraction}
