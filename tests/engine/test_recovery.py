"""Crash-recovery edge cases.

Empty/log-only/snapshot-only starting states, torn final records,
logs whose every record is already expired, and transactions in flight
(applying or aborting) at the moment of the crash.
"""

import pytest

from repro.core.timestamps import ts
from repro.engine.database import Database
from repro.engine.recovery import recover_database
from repro.engine.views import MaintenancePolicy
from repro.engine.wal import WriteAheadLog, scan_log
from repro.errors import RecoveryError, RelationError, WalError


def durable(tmp_path, **kwargs):
    return Database(wal_dir=tmp_path, **kwargs)


class TestStartingStates:
    def test_empty_directory(self, tmp_path):
        db = recover_database(tmp_path)
        assert db.table_names() == []
        assert db.now == ts(0)
        report = db.last_recovery
        assert not report.snapshot_loaded
        assert report.records_replayed == 0
        assert not report.torn_tail_truncated
        db.close()

    def test_log_only(self, tmp_path):
        db = durable(tmp_path)
        db.create_table("T", ["k", "v"]).insert((1, 2), expires_at=50)
        db.table("T").insert((3, 4))  # immortal
        db.tick(5)
        db.close()

        recovered = recover_database(tmp_path)
        assert not recovered.last_recovery.snapshot_loaded
        assert recovered.now == ts(5)
        assert set(recovered.table("T").read().rows()) == {(1, 2), (3, 4)}
        assert recovered.table("T").relation.expiration_of((1, 2)) == ts(50)
        recovered.close()

    def test_snapshot_only(self, tmp_path):
        db = durable(tmp_path)
        db.create_table("T", ["k"]).insert((1,), expires_at=9)
        db.checkpoint()  # snapshot written, log truncated
        db.close()

        recovered = recover_database(tmp_path)
        report = recovered.last_recovery
        assert report.snapshot_loaded
        assert report.records_replayed == 0
        assert set(recovered.table("T").read().rows()) == {(1,)}
        recovered.close()

    def test_snapshot_plus_log(self, tmp_path):
        db = durable(tmp_path)
        db.create_table("T", ["k"]).insert((1,), expires_at=9)
        db.checkpoint()
        db.table("T").insert((2,), expires_at=30)
        db.tick(4)
        db.close()

        recovered = recover_database(tmp_path)
        report = recovered.last_recovery
        assert report.snapshot_loaded
        assert report.records_replayed > 0
        assert recovered.now == ts(4)
        assert set(recovered.table("T").read().rows()) == {(1,), (2,)}
        recovered.close()

    def test_unreadable_snapshot_raises(self, tmp_path):
        (tmp_path / WriteAheadLog.SNAPSHOT_NAME).write_text("{oops")
        with pytest.raises(RecoveryError, match="unreadable snapshot"):
            recover_database(tmp_path)

    def test_start_time_kwarg_rejected(self, tmp_path):
        with pytest.raises(RecoveryError):
            recover_database(tmp_path, start_time=5)

    def test_fresh_database_refuses_durable_directory(self, tmp_path):
        db = durable(tmp_path)
        db.create_table("T", ["k"]).insert((1,))
        db.close()
        with pytest.raises(WalError, match="recover"):
            Database(wal_dir=tmp_path)


class TestTornTail:
    def test_torn_final_record_truncated_with_warning(self, tmp_path):
        db = durable(tmp_path)
        db.create_table("T", ["k"]).insert((1,), expires_at=50)
        db.close()
        with open(tmp_path / WriteAheadLog.LOG_NAME, "ab") as fh:
            fh.write(b"\x00\x00\x01\x00partial")  # frame torn mid-payload

        with pytest.warns(UserWarning, match="torn tail"):
            recovered = recover_database(tmp_path)
        assert recovered.last_recovery.torn_tail_truncated
        assert set(recovered.table("T").read().rows()) == {(1,)}
        # The log is clean again: a second recovery sees no torn tail.
        recovered.close()
        again = recover_database(tmp_path)
        assert not again.last_recovery.torn_tail_truncated
        again.close()


class TestSingleLogScan:
    """Recovery decodes the log exactly once, whatever state it is in."""

    def _populate(self, tmp_path):
        db = durable(tmp_path)
        table = db.create_table("T", ["k"])
        for key in range(5):
            table.insert((key,), expires_at=50)
        db.close()

    def test_clean_log(self, tmp_path, log_scans):
        self._populate(tmp_path)
        del log_scans[:]  # the live run's own open
        recovered = recover_database(tmp_path)
        assert len(log_scans) == 1
        assert recovered.last_recovery.records_replayed == 6
        recovered.close()

    def test_torn_log(self, tmp_path, log_scans):
        self._populate(tmp_path)
        with open(tmp_path / WriteAheadLog.LOG_NAME, "ab") as fh:
            fh.write(b"\x00\x00\x01\x00partial")
        del log_scans[:]
        with pytest.warns(UserWarning, match="torn tail"):
            recovered = recover_database(tmp_path)
        assert len(log_scans) == 1
        assert recovered.last_recovery.torn_tail_truncated
        assert len(recovered.table("T")) == 5
        recovered.close()

    def test_empty_log(self, tmp_path, log_scans):
        recovered = recover_database(tmp_path)
        assert len(log_scans) == 1
        assert recovered.last_recovery.records_replayed == 0
        recovered.close()

    def test_recovered_log_reads_see_later_appends(self, tmp_path):
        self._populate(tmp_path)
        recovered = recover_database(tmp_path)
        recovered.table("T").insert((99,), expires_at=60)
        rows = [r["row"] for r in recovered.wal.records() if r["kind"] == "upsert"]
        assert rows[-1] == (99,) and len(rows) == 6
        recovered.close()


class TestRecoveryReport:
    def test_phases_cover_the_whole_recovery(self, tmp_path):
        db = durable(tmp_path)
        db.create_table("T", ["k", "v"]).insert((1, 2), expires_at=50)
        db.materialise("V", db.table_expr("T").project(1))
        db.checkpoint()
        db.table("T").insert((3, 4), expires_at=60)
        db.close()

        recovered = recover_database(tmp_path)
        report = recovered.last_recovery
        assert list(report.phase_seconds) == [
            "scan", "snapshot", "replay", "views", "verify",
        ]
        assert all(seconds >= 0 for seconds in report.phase_seconds.values())
        # ``seconds`` is open-to-ready: the audit is part of it.
        assert report.seconds == pytest.approx(sum(report.phase_seconds.values()))
        text = recovered.metrics.to_prom_text()
        for phase in report.phase_seconds:
            assert f'repro_wal_recovery_phase_seconds_count{{phase="{phase}"}} 1' in text
        recovered.close()

    def test_skipped_audit_is_a_zero_phase(self, tmp_path):
        durable(tmp_path).close()
        recovered = recover_database(tmp_path, verify=False)
        assert recovered.last_recovery.phase_seconds["verify"] < 0.01
        recovered.close()


class TestExpirationAwareReplay:
    def test_all_records_expired_leaves_valid_empty_tables(self, tmp_path):
        db = durable(tmp_path)
        table = db.create_table("T", ["k"])
        for key in range(5):
            table.insert((key,), expires_at=key + 1)
        db.advance_to(10)
        db.close()

        recovered = recover_database(tmp_path)
        report = recovered.last_recovery
        assert report.records_skipped_expired == 5
        assert recovered.now == ts(10)
        table = recovered.table("T")
        assert len(table) == 0
        assert table.physical_size == 0
        # The schema survived: the table is immediately usable.
        table.insert((99,), expires_at=20)
        assert set(table.read().rows()) == {(99,)}
        recovered.close()

    def test_expired_upsert_erases_snapshot_incarnation(self, tmp_path):
        # Snapshot holds the row immortal; after the checkpoint it is
        # deleted and re-inserted with a short life that has lapsed by the
        # crash.  Skipping the expired upsert must also erase the snapshot
        # copy, not let it leak back.
        db = durable(tmp_path)
        db.create_table("T", ["k"]).insert((1,))
        db.checkpoint()
        db.table("T").delete((1,))
        db.table("T").insert((1,), expires_at=3)
        db.advance_to(5)
        db.close()

        recovered = recover_database(tmp_path)
        assert set(recovered.table("T").read().rows()) == set()
        assert recovered.table("T").physical_size == 0
        recovered.close()

    def test_partitioned_sweep_removals_are_durable(self, tmp_path):
        # Regression: the partitioned sweep path skipped the WAL remove
        # records the flat path writes, so rows snapshotted before a
        # sweep were resurrected at recovery and their ON-EXPIRE
        # triggers fired a second time.
        from repro.engine.expiration_index import RemovalPolicy

        db = durable(tmp_path, default_removal_policy=RemovalPolicy.LAZY)
        table = db.create_table(
            "T", ["k", "v"], partitions=3, partition_key="k",
            lazy_batch_size=1_000,
        )
        fired = []
        table.triggers.register(
            "audit", lambda event: fired.append(event.tuple.row)
        )
        for key in range(6):
            table.insert((key, key), expires_at=4)
        db.checkpoint()  # the snapshot retains all six rows
        db.advance_to(5)
        assert table.vacuum() == 6  # sweep fires + must log removes
        assert len(fired) == 6
        db.close()

        recovered = recover_database(tmp_path)
        t = recovered.table("T")
        assert t.physical_size == 0  # nothing resurrected
        refired = []
        t.triggers.register(
            "audit", lambda event: refired.append(event.tuple.row)
        )
        recovered.tick(1)
        assert t.vacuum() == 0
        assert refired == []  # each (row, texp) fired exactly once
        assert recovered.verify(strict=True, deep=True) == []
        recovered.close()


class TestInFlightTransactions:
    def test_unbracketed_transaction_rolled_back(self, tmp_path):
        db = durable(tmp_path)
        db.create_table("T", ["k"]).insert((1,), expires_at=100)
        db.close()
        # Hand-write the crash shape: a begin with physical records and no
        # closing bracket -- the process died mid-apply.
        wal = WriteAheadLog(tmp_path)
        txn = wal.next_txn_id()
        wal.append("begin", txn=txn)
        wal.append("upsert", table="T", row=[5], texp=None, prev="absent",
                   txn=txn)
        wal.append("upsert", table="T", row=[1], texp=200, prev=100, txn=txn)
        wal.close()

        recovered = recover_database(tmp_path)
        assert recovered.last_recovery.transactions_rolled_back == 1
        assert set(recovered.table("T").read().rows()) == {(1,)}
        assert recovered.table("T").relation.expiration_of((1,)) == ts(100)
        recovered.close()

    def test_aborting_transaction_at_crash_leaves_pre_txn_state(self, tmp_path):
        db = durable(tmp_path)
        db.create_table("T", ["k"]).insert((1,), expires_at=50)
        txn = db.transaction()
        txn.insert("T", (2,), expires_at=80)
        txn.insert("T", (9,), expires_at=db.now)  # rejected at apply time
        with pytest.raises(RelationError):
            txn.commit()  # aborts, logging compensating records + bracket
        db.close()

        recovered = recover_database(tmp_path)
        assert recovered.last_recovery.transactions_rolled_back == 0
        assert set(recovered.table("T").read().rows()) == {(1,)}
        assert recovered.table("T").relation.expiration_of((1,)) == ts(50)
        recovered.close()


class TestComposition:
    def test_recover_continue_crash_recover_again(self, tmp_path):
        db = durable(tmp_path)
        db.create_table("T", ["k"]).insert((1,), expires_at=100)
        db.close()

        first = recover_database(tmp_path)
        first.table("T").insert((2,), expires_at=100)
        first.tick(3)
        first.close()

        second = recover_database(tmp_path)
        assert second.now == ts(3)
        assert set(second.table("T").read().rows()) == {(1,), (2,)}
        second.close()

    def test_views_rematerialised_never_logged(self, tmp_path):
        db = durable(tmp_path)
        db.create_table("T", ["k", "v"])
        db.create_table("U", ["k", "v"])
        db.materialise(
            "W", db.table_expr("T").difference(db.table_expr("U")),
            policy=MaintenancePolicy.PATCH, patch_limit=4,
        )
        db.table("T").insert((1, 10), expires_at=50)
        db.table("T").insert((2, 20))
        db.close()

        # The log records the view's definition, never its content.
        records, _, _ = scan_log(tmp_path / WriteAheadLog.LOG_NAME)
        assert [r["kind"] for r in records].count("create_view") == 1

        recovered = recover_database(tmp_path)
        view = recovered.view("W")
        assert view.policy is MaintenancePolicy.PATCH
        assert view.patch_limit == 4
        assert set(view.read().rows()) == {(1, 10), (2, 20)}
        recovered.close()

    def test_unknown_record_kind_warns_and_continues(self, tmp_path):
        db = durable(tmp_path)
        db.create_table("T", ["k"]).insert((1,))
        db.close()
        wal = WriteAheadLog(tmp_path)
        wal.append("hologram", payload=1)
        wal.close()

        with pytest.warns(UserWarning, match="unknown WAL record kind"):
            recovered = recover_database(tmp_path)
        assert set(recovered.table("T").read().rows()) == {(1,)}
        recovered.close()


class TestSweepRemovalDurability:
    """Every physical-removal path must WAL-log what it reclaims.

    The partitioned-LAZY variant above is the original regression; this
    sweeps the whole matrix -- the flat eager drain, the lazy vacuum,
    the columnar in-line expiry, and the partitioned parallel sweep, in
    row and columnar layouts -- because each one removes rows through
    different code and any of them silently skipping the WAL resurrects
    swept rows from the snapshot and re-fires their ON-EXPIRE triggers.
    """

    LAYOUTS = [
        {},
        {"layout": "columnar"},
        {"partitions": 3, "partition_key": "k"},
        {"partitions": 3, "partition_key": "k", "layout": "columnar"},
    ]

    @pytest.mark.parametrize("kwargs", LAYOUTS)
    @pytest.mark.parametrize("policy", ["EAGER", "LAZY"])
    def test_swept_rows_stay_dead_after_recovery(self, tmp_path, kwargs, policy):
        from repro.engine.expiration_index import RemovalPolicy

        removal = RemovalPolicy[policy]
        db = durable(tmp_path)
        table = db.create_table(
            "T", ["k", "v"], removal_policy=removal,
            lazy_batch_size=1_000, **kwargs,
        )
        fired = []
        table.triggers.register(
            "audit", lambda event: fired.append(event.tuple.row)
        )
        for key in range(6):
            table.insert((key, key), expires_at=4)
        table.insert((99, 99), expires_at=50)  # a survivor
        db.checkpoint()  # snapshot retains all seven rows
        db.advance_to(5)  # EAGER: the sweep happens right here
        if removal is RemovalPolicy.LAZY:
            assert table.vacuum() == 6
        assert len(fired) == 6
        assert table.physical_size == 1
        db.close()

        recovered = recover_database(tmp_path)
        t = recovered.table("T")
        refired = []
        t.triggers.register(
            "audit", lambda event: refired.append(event.tuple.row)
        )
        assert t.physical_size == 1  # nothing resurrected
        assert set(t.read().rows()) == {(99, 99)}
        recovered.tick(1)
        if removal is RemovalPolicy.LAZY:
            t.vacuum()
        assert refired == []  # each (row, texp) fired exactly once
        assert recovered.verify(strict=True, deep=True) == []
        recovered.close()
