"""Tests for the write-ahead log: frames, torn tails, compaction."""

from fractions import Fraction

import pytest

from repro.codec import decode_exp, decode_prev, encode_exp, encode_prev
from repro.core.timestamps import INFINITY, ts
from repro.engine import wal as wal_module
from repro.engine.database import Database
from repro.engine.recovery import recover_database
from repro.engine.wal import WriteAheadLog, scan_log
from repro.errors import WalError
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

    def test_reset_and_compact_invalidate_the_opening_scan(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("upsert", table="T", row=[1], texp=3, prev="absent")
        wal.append("upsert", table="T", row=[2], texp=None, prev="absent")
        wal.close()
        reopened = WriteAheadLog(tmp_path)
        reopened.compact(now=5)  # row 1 is expired: dropped
        assert [r["kind"] for r in reopened.records()] == ["upsert", "clock"]
        reopened.close()
        again = WriteAheadLog(tmp_path)
        again.reset()
        assert again.records() == []
        again.close()


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


class TestCompaction:
    def test_superseded_and_expired_are_dropped(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("create_table", spec={"name": "T", "columns": ["k"]})
        wal.append("upsert", table="T", row=[1], texp=5, prev="absent")
        wal.append("upsert", table="T", row=[1], texp=20, prev=5)  # renewal
        wal.append("upsert", table="T", row=[2], texp=8, prev="absent")
        wal.append("clock", now=10)
        stats = wal.compact(now=10)
        # row 1: first upsert superseded; row 2: expired at now=10 and not
        # in any base snapshot, so it vanishes outright.
        assert stats["superseded"] == 1
        assert stats["expired"] == 1
        assert stats["demoted"] == 0
        records = wal.records()
        assert [r["kind"] for r in records] == ["create_table", "upsert", "clock"]
        assert records[1]["texp"] == 20
        assert records[-1]["now"] == 10
        wal.close()

    def test_expired_base_row_demotes_to_remove(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("upsert", table="T", row=[1], texp=5, prev=None)
        stats = wal.compact(now=10, base_rows={("T", (1,))})
        assert stats["demoted"] == 1
        records = wal.records()
        assert [r["kind"] for r in records] == ["remove", "clock"]
        assert records[0]["row"] == (1,)
        wal.close()

    def test_final_remove_is_kept_only_as_a_base_tombstone(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        # Row 1 is in the base snapshot: renewed, then swept.
        wal.append("upsert", table="T", row=[1], texp=5, prev=3)
        wal.append("remove", table="T", row=[1], prev=5)
        # Row 2 was born, renewed and swept entirely within the log.
        wal.append("upsert", table="T", row=[2], texp=4, prev="absent")
        wal.append("upsert", table="T", row=[2], texp=6, prev=4)
        wal.append("remove", table="T", row=[2], prev=6)
        # Row 3 was deleted explicitly, long before its expiration.
        wal.append("upsert", table="T", row=[3], texp=50, prev="absent")
        wal.append("remove", table="T", row=[3], prev=50)
        stats = wal.compact(now=10, base_rows={("T", (1,))})
        records = wal.records()
        assert [(r["kind"], r.get("row")) for r in records] == [
            ("remove", (1,)), ("clock", None),
        ]
        # Expired: row 2's two lapsed upserts and its tombstone, row 3's
        # tombstone.  Superseded: row 1's upsert (its remove is kept) and
        # row 3's upsert (deleted, not lapsed).
        assert stats["expired"] == 4
        assert stats["superseded"] == 2
        assert stats["kept"] == 2
        wal.close()

    def test_tombstone_rule_is_replay_equivalent(self, tmp_path):
        """Recovery sees the same database before and after compaction."""
        from repro.engine.database import Database
        from repro.engine.recovery import recover_database

        def state(db):
            return db.now.value, dict(db.table("T").relation.items())

        db = Database(wal_dir=tmp_path, wal_fsync="never")
        table = db.create_table("T", ["k"])
        table.insert((1,), ttl=3)
        table.insert((2,), ttl=50)
        db.checkpoint()  # rows 1 and 2 are the base snapshot
        table.insert((3,), ttl=2)  # born and swept inside the log
        table.insert((4,), ttl=60)
        db.tick(5)  # sweeps row 1 (base-held) and row 3 (log-only)
        before = state(db)
        stats = db.compact_wal()
        physical = sorted(
            (r["kind"], r["row"]) for r in db.wal.records() if "row" in r
        )
        assert physical == [("remove", (1,)), ("upsert", (4,))]
        assert stats["expired"] == 2  # row 3's upsert and its tombstone
        db.close()
        recovered = recover_database(tmp_path)
        assert state(recovered) == before
        assert set(recovered.table("T").read().rows()) == {(2,), (4,)}
        recovered.close()

    def test_dropped_tombstones_still_refuse_an_open_transaction(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("upsert", table="T", row=[1], texp=2, prev="absent")
        wal.append("begin", txn=1)
        wal.append("remove", table="T", row=[1], prev=2, txn=1)
        assert not any(wal.compact(now=10).values())
        assert [r["kind"] for r in wal.records()] == ["upsert", "begin", "remove"]
        wal.close()

    def test_brackets_and_clocks_collapse_and_txn_tags_strip(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("clock", now=1)
        wal.append("begin", txn=1)
        wal.append("upsert", table="T", row=[1], texp=None, prev="absent",
                   txn=1)
        wal.append("commit", txn=1)
        wal.append("clock", now=2)
        stats = wal.compact(now=2)
        assert stats["collapsed"] == 4  # two clocks + begin + commit
        records = wal.records()
        assert [r["kind"] for r in records] == ["upsert", "clock"]
        assert "txn" not in records[0]  # resolved bracket must not revive
        wal.close()

    def test_refuses_open_transaction(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("begin", txn=1)
        wal.append("upsert", table="T", row=[1], texp=None, prev="absent",
                   txn=1)
        stats = wal.compact(now=0)
        assert stats == {"kept": 0, "expired": 0, "superseded": 0,
                         "collapsed": 0, "demoted": 0}
        assert len(wal.records()) == 2  # untouched
        wal.close()

    def test_refuses_torn_tail(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append("clock", now=1)
        wal.close()
        with open(wal.log_path, "ab") as fh:
            fh.write(b"\xff\xff")
        wal = WriteAheadLog(tmp_path)
        with pytest.raises(WalError, match="torn tail"):
            wal.compact(now=1)
        wal.close()

    def test_compaction_is_replay_equivalent(self, tmp_path):
        """Compacting must not change what scan_log-driven replay sees."""
        wal = WriteAheadLog(tmp_path)
        wal.append("upsert", table="T", row=[1], texp=5, prev="absent")
        wal.append("upsert", table="T", row=[1], texp=30, prev=5)
        wal.append("remove", table="T", row=[2], prev=9)
        wal.append("upsert", table="T", row=[3], texp=4, prev="absent")
        wal.append("clock", now=10)

        def final_visible(records, now):
            state = {}
            for r in records:
                key = tuple(r["row"]) if "row" in r else None
                if r["kind"] == "upsert":
                    state[key] = r["texp"]
                elif r["kind"] == "remove":
                    state.pop(key, None)
            return {
                k: t for k, t in state.items() if t is None or t > now
            }

        before = final_visible(wal.records(), 10)
        wal.compact(now=10)
        assert final_visible(wal.records(), 10) == before
        wal.close()


class TestUnloggableMutations:
    """A mutation is applied only if it is logged."""

    @pytest.mark.parametrize(
        "shape", [{}, {"layout": "columnar"}, {"partitions": 3}],
        ids=["row", "columnar", "partitioned"],
    )
    def test_a_value_the_log_cannot_encode_leaves_no_trace(self, tmp_path, shape):
        """At the parent the row stayed readable, but no view heard of it
        and it was gone after a restart."""
        db = Database(wal_dir=tmp_path)
        table = db.create_table("T", ["k"], **shape)
        table.insert((1,), ttl=5)
        view = db.materialise("v", db.table_expr("T"))
        assert sorted(view.read().rows()) == [(1,)]
        heard = []
        table.insert_listeners.append(lambda _table, stored: heard.append(stored))
        version = db.catalog_version
        with pytest.raises(WalError, match="complex"):
            table.insert((complex(1, 2),), ttl=5)
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
