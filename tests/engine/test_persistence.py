"""Tests for JSON snapshots of databases."""

import json

import pytest

from repro.core.timestamps import INFINITY, ts
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.persistence import (
    database_from_dict,
    database_to_dict,
    load_database,
    save_database,
)
from repro.engine.views import MaintenancePolicy
from repro.errors import EngineError
from repro.workloads.news import figure1_database


class TestRoundtrip:
    def test_tables_and_rows(self, figure1_db):
        restored = database_from_dict(database_to_dict(figure1_db))
        assert restored.table_names() == ["El", "Pol"]
        assert restored.table("Pol").relation.same_content(
            figure1_db.table("Pol").relation
        )
        assert restored.now == figure1_db.now

    def test_clock_preserved(self, figure1_db):
        figure1_db.advance_to(7)
        restored = database_from_dict(database_to_dict(figure1_db))
        assert restored.now == ts(7)
        # Expired tuples were eagerly removed before the snapshot.
        assert set(restored.table("El").read().rows()) == set()

    def test_infinite_expirations(self, figure1_db):
        figure1_db.table("Pol").insert((9, 99))
        restored = database_from_dict(database_to_dict(figure1_db))
        assert restored.table("Pol").relation.expiration_of((9, 99)) == INFINITY

    def test_views_rematerialised(self, figure1_db):
        expr = figure1_db.table_expr("Pol").project(1).difference(
            figure1_db.table_expr("El").project(1)
        )
        figure1_db.materialise("watch", expr, policy=MaintenancePolicy.PATCH)
        restored = database_from_dict(database_to_dict(figure1_db))
        view = restored.view("watch")
        assert view.policy is MaintenancePolicy.PATCH
        assert set(view.read().rows()) == {(3,)}
        restored.advance_to(5)
        assert set(view.read().rows()) == {(1,), (2,), (3,)}

    def test_removal_policy_preserved(self):
        from repro.engine.database import Database

        db = Database(default_removal_policy=RemovalPolicy.LAZY)
        db.create_table("T", ["a"], lazy_batch_size=7)
        restored = database_from_dict(database_to_dict(db))
        assert restored.table("T").removal_policy is RemovalPolicy.LAZY
        assert restored.table("T").lazy_batch_size == 7

    def test_expirations_still_fire_after_restore(self, figure1_db):
        restored = database_from_dict(database_to_dict(figure1_db))
        fired = []
        restored.table("Pol").triggers.register(
            "t", lambda event: fired.append(event.tuple.row)
        )
        restored.advance_to(10)
        assert sorted(fired) == [(1, 25), (3, 35)]

    def test_file_roundtrip(self, figure1_db, tmp_path):
        path = tmp_path / "snapshot.json"
        save_database(figure1_db, path)
        data = json.loads(path.read_text())
        assert data["format"] == 1
        restored = load_database(path)
        assert restored.table("El").relation.same_content(
            figure1_db.table("El").relation
        )


#: A snapshot exactly as PR 17 wrote it: every table spec names the
#: expiration-index substrate it ran on (``index_factory``), a knob that
#: no longer exists.
PR17_SNAPSHOT = {
    "format": 1,
    "now": 0,
    "tables": [
        {"name": "F", "columns": ["k", "v"], "removal_policy": "eager",
         "lazy_batch_size": 64, "index_factory": "heap",
         "rows": [[[0, 0], 10], [[1, 1], 11], [[2, 0], 12], [[3, 1], 13],
                  [[9, 9], None]]},
        {"name": "P", "columns": ["k", "v"], "removal_policy": "lazy",
         "lazy_batch_size": 64, "index_factory": "timer_wheel",
         "partitions": 3, "partition_key": "k", "layout": "columnar",
         "rows": [[[0, 0], 10], [[3, 1], 13], [[1, 1], 11], [[2, 0], 12]]},
        {"name": "S", "columns": ["k"], "removal_policy": "eager",
         "lazy_batch_size": 64, "expiry": "since_last_modification",
         "default_ttl": 6, "index_factory": "skip_list",
         "rows": [[[1], 6]]},
    ],
    "views": [
        {"name": "W", "policy": "patch", "patch_limit": 5,
         "expression": {"kind": "difference",
                        "left": {"kind": "base", "name": "F"},
                        "right": {"kind": "base", "name": "P"}}},
    ],
}


class TestIndexFactoryAndViewSettings:
    """Directories written before there was one expiration index still
    open, and the view knobs the format once dropped round-trip."""

    def test_old_index_factory_key_ignored(self):
        """``"heap"``, ``"timer_wheel"`` or a name never known: all load."""
        restored = database_from_dict(json.loads(json.dumps(PR17_SNAPSHOT)))
        assert restored.verify(strict=True, deep=True) == []
        assert restored.table("P").partitions == 3
        assert restored.table("P").layout == "columnar"
        assert restored.table("S").default_ttl == 6
        assert len(restored.table("F")) == 5
        for spec in database_to_dict(restored)["tables"]:
            assert "index_factory" not in spec  # and is not written back
        # The restored tables behave: expirations still sweep and fire.
        fired = []
        restored.table("P").triggers.register(
            "t", lambda event: fired.append(event.tuple.row)
        )
        restored.advance_to(11)
        restored.table("P").vacuum()
        assert sorted(fired) == [(0, 0), (1, 1)]
        assert sorted(restored.table("F").read().rows()) == [
            (2, 0), (3, 1), (9, 9)
        ]
        assert restored.verify(strict=True, deep=True) == []

    def test_old_create_table_wal_record_recovers(self, tmp_path):
        """A durable directory whose log holds PR 17 ``create_table``
        records (``index_factory`` in the spec) recovers and audits."""
        from repro.engine.recovery import recover_database
        from repro.engine.wal import WriteAheadLog

        wal = WriteAheadLog(tmp_path, fsync="never")
        wal.append("create_table", spec={
            "columns": ["k", "v"], "index_factory": "timer_wheel",
            "layout": "columnar", "lazy_batch_size": 64, "name": "P",
            "partition_key": "k", "partitions": 3, "removal_policy": "lazy",
        })
        wal.append("create_table", spec={
            "columns": ["k", "v"], "index_factory": "heap",
            "lazy_batch_size": 64, "name": "F", "removal_policy": "eager",
        })
        for key in range(4):
            for name in ("P", "F"):
                wal.append("upsert", table=name, row=[key, key % 2],
                           texp=10 + key, prev="absent")
        wal.append("clock", now=11)
        wal.close()

        recovered = recover_database(tmp_path)
        assert recovered.verify(strict=True, deep=True) == []
        assert recovered.table("P").partitions == 3
        for name in ("P", "F"):
            assert sorted(recovered.table(name).read().rows()) == [
                (2, 0), (3, 1)
            ]
        recovered.close()

    def test_patch_limit_roundtrip(self):
        from repro.engine.database import Database

        db = Database()
        db.create_table("P", ["k", "v"], partitions=3, partition_key="k")
        db.create_table("F", ["k", "v"])
        for key in range(12):
            db.table("P").insert((key, key % 4), expires_at=10 + key)
            db.table("F").insert((key, key % 4), expires_at=10 + key)
        db.materialise(
            "W", db.table_expr("F").difference(db.table_expr("P")),
            policy=MaintenancePolicy.PATCH, patch_limit=5,
        )
        restored = database_from_dict(database_to_dict(db))
        view = restored.view("W")
        assert view.policy is MaintenancePolicy.PATCH
        assert view.patch_limit == 5
        assert set(view.read().rows()) == set(db.view("W").read().rows())


class TestValidation:
    def test_non_json_values_rejected(self, figure1_db):
        figure1_db.create_table("Weird", ["a"]).insert(((1, 2),))  # nested tuple
        with pytest.raises(EngineError):
            database_to_dict(figure1_db)

    def test_unknown_format(self):
        with pytest.raises(EngineError):
            database_from_dict({"format": 99})
