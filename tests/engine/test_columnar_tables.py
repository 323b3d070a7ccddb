"""Engine-level integration tests for columnar tables.

The ``layout="columnar"`` table option (and its SQL spelling ``LAYOUT
COLUMNAR``) must thread end-to-end: DDL, compiled batch kernels with
their per-kernel counters and trace spans, plan-cache fingerprinting,
expiration sweeps over the raw texp array, snapshot/WAL round-trips, and
partitioned tables.  Everything here runs against the dict-oracle row
layout as the reference where a comparison is meaningful.
"""

import pytest

from repro.core.algebra.expressions import BaseRef
from repro.core.algebra.predicates import col
from repro.core.columnar import ColumnarRelation
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.recovery import recover_database
from repro.errors import EngineError
from repro.sql import execute_sql


def populated(db: Database, name: str, **kwargs) -> None:
    table = db.create_table(name, ["k", "v"], **kwargs)
    for i in range(20):
        table.insert((i % 5, i), expires_at=10 + i)


class TestDdl:
    def test_create_columnar_table(self):
        db = Database()
        table = db.create_table("T", ["a", "b"], layout="columnar")
        assert table.layout == "columnar"
        assert isinstance(table.relation, ColumnarRelation)

    def test_row_default_unchanged(self):
        table = Database().create_table("T", ["a"])
        assert table.layout == "row"
        assert not isinstance(table.relation, ColumnarRelation)

    def test_unknown_layout_rejected(self):
        with pytest.raises(EngineError):
            Database().create_table("T", ["a"], layout="paged")

    def test_sql_layout_clause(self):
        db = Database()
        execute_sql(db, "CREATE TABLE pol (uid, deg) LAYOUT COLUMNAR")
        assert db.table("pol").layout == "columnar"
        described = execute_sql(db, "DESCRIBE pol").message
        assert described.endswith("; layout=columnar")

    def test_sql_layout_and_partitioning_either_order(self):
        db = Database()
        execute_sql(
            db,
            "CREATE TABLE a (k, v) LAYOUT COLUMNAR "
            "PARTITION BY HASH (k) PARTITIONS 4"
        )
        execute_sql(
            db,
            "CREATE TABLE b (k, v) PARTITION BY HASH (k) PARTITIONS 4 "
            "LAYOUT COLUMNAR"
        )
        for name in ("a", "b"):
            table = db.table(name)
            assert table.layout == "columnar"
            assert table.partitions == 4


class TestQuerying:
    def test_batch_kernels_engage_and_agree_with_row_layout(self):
        db = Database()
        populated(db, "rows")
        populated(db, "cols", layout="columnar")
        expression = lambda name: (
            BaseRef(name).select(col(2) >= 8).project(1)
        )
        reference = db.evaluate(expression("rows"))
        row_stats = db.last_eval_stats
        result = db.evaluate(expression("cols"))
        col_stats = db.last_eval_stats
        assert result.relation.same_content(reference.relation)
        assert result.expiration == reference.expiration
        # The columnar run went through batch kernels; the row run did not.
        assert "scan_filter" in col_stats.columnar_kernel_rows
        assert "select_mask" in col_stats.columnar_kernel_rows
        assert not row_stats.columnar_kernel_rows
        # Exactly-once billing: identical row accounting either way.
        assert col_stats.tuples_scanned == row_stats.tuples_scanned
        assert col_stats.tuples_emitted == row_stats.tuples_emitted

    def test_join_between_columnar_tables(self):
        db = Database()
        populated(db, "l", layout="columnar")
        populated(db, "r", layout="columnar")
        populated(db, "lr")
        populated(db, "rr")
        joined = db.evaluate(BaseRef("l").join(BaseRef("r"), on=[(1, 1)]))
        assert "hash_join" in db.last_eval_stats.columnar_kernel_rows
        reference = db.evaluate(
            BaseRef("lr").join(BaseRef("rr"), on=[(1, 1)])
        )
        assert joined.relation.same_content(reference.relation)

    def test_kernel_metrics_flushed(self):
        db = Database()
        populated(db, "T", layout="columnar")
        db.evaluate(BaseRef("T").select(col(1) >= 2))
        text = db.metrics.to_prom_text()
        assert "repro_columnar_batches_total" in text
        assert "repro_columnar_rows_total" in text
        assert 'repro_columnar_kernel_rows_total{kernel="scan_filter"}' in text

    def test_explain_analyze_shows_batch_spans(self):
        db = Database()
        execute_sql(db, "CREATE TABLE pol (uid, deg) LAYOUT COLUMNAR")
        execute_sql(db, "INSERT INTO pol VALUES (1, 25) EXPIRES AT 10")
        execute_sql(db, "INSERT INTO pol VALUES (2, 35) EXPIRES AT 15")
        message = execute_sql(
            db,
            "EXPLAIN ANALYZE SELECT uid FROM pol WHERE deg >= 30"
        ).message
        assert "columnar_batch" in message
        assert "kernel=" in message

    def test_plan_cache_fingerprints_layout(self):
        db = Database()
        populated(db, "T", layout="columnar")
        expression = BaseRef("T").select(col(1) >= 2)
        first = db.evaluate(expression)
        assert db.last_eval_stats.columnar_kernel_rows
        # Same name, same schema, row layout now: the cached columnar plan
        # must not be reused against dict storage.
        db.drop_table("T")
        populated(db, "T")
        second = db.evaluate(expression)
        assert not db.last_eval_stats.columnar_kernel_rows
        assert second.relation.same_content(first.relation)


class TestExpiration:
    @pytest.mark.parametrize("policy", [RemovalPolicy.EAGER, RemovalPolicy.LAZY])
    def test_sweeps_match_row_layout(self, policy):
        db = Database(default_removal_policy=policy)
        populated(db, "rows")
        populated(db, "cols", layout="columnar")
        db.advance_to(19)
        if policy is RemovalPolicy.LAZY:
            db.vacuum_all()
        assert set(db.table("cols").read().rows()) == set(
            db.table("rows").read().rows()
        )

    def test_partitioned_columnar_sweep(self):
        db = Database()
        populated(
            db, "T", layout="columnar", partitions=3, partition_key="k"
        )
        assert len(db.table("T").read()) == 20
        db.advance_to(25)
        expected = {(i % 5, i) for i in range(20) if 10 + i > 25}
        assert set(db.table("T").read().rows()) == expected


class TestPersistence:
    def test_snapshot_round_trip_preserves_layout(self, tmp_path):
        from repro.engine.persistence import (
            load_database,
            save_database,
            table_spec,
        )

        db = Database()
        populated(db, "T", layout="columnar")
        assert table_spec(db.table("T"))["layout"] == "columnar"
        path = tmp_path / "snap.json"
        save_database(db, path)
        restored = load_database(path)
        table = restored.table("T")
        assert table.layout == "columnar"
        assert isinstance(table.relation, ColumnarRelation)
        assert table.relation.same_content(db.table("T").relation)

    def test_wal_recovery_restores_columnar_table(self, tmp_path):
        wal_dir = tmp_path / "wal"
        db = Database(wal_dir=wal_dir)
        populated(db, "T", layout="columnar")
        db.advance_to(12)
        db.table("T").delete((0, 15))
        db.close()
        recovered = recover_database(wal_dir)
        table = recovered.table("T")
        assert table.layout == "columnar"
        assert isinstance(table.relation, ColumnarRelation)
        assert set(table.read().rows()) == set(db.table("T").read().rows())
        assert recovered.now.value == 12
