"""Tests for hash-partitioned tables and their per-shard sweeps and scans.

The core guarantee is *equivalence*: a table created with ``partitions=N``
must be indistinguishable from a flat :class:`Table` on rows, per-tuple expiration
times, and expression-level ``texp(e)`` / validity, under both removal
policies.  The differential tests drive identical workloads through both
and compare after every step.
"""

import os
import random
import signal
import threading

import pytest

from repro.core.algebra.compiler import compile_expression
from repro.core.algebra.evaluator import evaluate
from repro.core.algebra.expressions import BaseRef
from repro.core.algebra.predicates import col
from repro.core.schema import Schema
from repro.core.timestamps import INFINITY, ts
from repro.engine.clock import LogicalClock
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.partitioning import ShardedRelation
from repro.engine.persistence import database_from_dict, database_to_dict
from repro.engine.table import Table
from repro.errors import CatalogError, EngineError, RelationError
from repro.sql import execute_sql
from tests.core.algebra.test_compiler_differential import random_catalog

POLICIES = [RemovalPolicy.EAGER, RemovalPolicy.LAZY]


def paired_databases(policy, partitions=4, batch=8):
    """A flat database and a partitioned one with the same table 'T'."""
    flat_db, part_db = Database(), Database()
    flat_db.create_table("T", ["k", "v"], removal_policy=policy, lazy_batch_size=batch)
    part_db.create_table(
        "T",
        ["k", "v"],
        removal_policy=policy,
        lazy_batch_size=batch,
        partitions=partitions,
        partition_key="k",
    )
    return flat_db, part_db


def assert_same_visible(flat_db, part_db):
    """Identical visible rows *and* per-tuple expiration times."""
    flat = dict(flat_db.table("T").read().items())
    part = dict(part_db.table("T").read().items())
    assert part == flat


def assert_same_eval(flat_db, part_db, expr_of):
    """Identical rows, texp, texp(e), and validity for an expression."""
    a = flat_db.evaluate(expr_of(flat_db))
    b = part_db.evaluate(expr_of(part_db))
    assert dict(b.relation.items()) == dict(a.relation.items())
    assert b.expiration == a.expiration
    assert b.validity == a.validity


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_inserts_advances_renewals_deletes(self, policy):
        flat_db, part_db = paired_databases(policy)
        for db in (flat_db, part_db):
            t = db.table("T")
            for i in range(64):
                t.insert((i, i % 5), expires_at=4 + (i % 13))
            for i in range(0, 64, 9):
                t.insert((i, i % 5))  # renew to infinity (max-merge)
        assert_same_visible(flat_db, part_db)
        for when in (3, 5, 8, 11, 16, 17):
            flat_db.advance_to(when)
            part_db.advance_to(when)
            assert_same_visible(flat_db, part_db)
        for db in (flat_db, part_db):
            t = db.table("T")
            for i in range(0, 64, 9):
                t.delete((i, i % 5))
            for i in range(100, 120):
                t.insert((i, i % 3), expires_at=25)
        assert_same_visible(flat_db, part_db)
        flat_db.advance_to(30)
        part_db.advance_to(30)
        assert_same_visible(flat_db, part_db)
        assert len(part_db.table("T")) == 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_expression_results_identical(self, policy):
        flat_db, part_db = paired_databases(policy)
        for db in (flat_db, part_db):
            t = db.table("T")
            for i in range(40):
                t.insert((i, i % 4), expires_at=6 + (i % 9))
        for expr_of in (
            lambda db: db.table_expr("T"),
            lambda db: db.table_expr("T").select(col(2) >= 2),
            lambda db: db.table_expr("T").project(2),
            lambda db: db.table_expr("T").join(db.table_expr("T"), on=[(1, 1)]),
        ):
            assert_same_eval(flat_db, part_db, expr_of)
        flat_db.advance_to(9)
        part_db.advance_to(9)
        assert_same_eval(flat_db, part_db, lambda db: db.table_expr("T"))

    def test_lazy_vacuum_equivalence(self):
        flat_db, part_db = paired_databases(RemovalPolicy.LAZY, batch=1000)
        for db in (flat_db, part_db):
            t = db.table("T")
            for i in range(30):
                t.insert((i, 0), expires_at=5)
            db.advance_to(6)
        # Large batch: nothing reclaimed yet, but reads already hide the
        # expired tuples on both sides.
        assert part_db.table("T").physical_size == 30
        assert_same_visible(flat_db, part_db)
        assert flat_db.table("T").vacuum() == part_db.table("T").vacuum() == 30
        assert part_db.table("T").physical_size == 0

    def test_renewal_during_lazy_buffer_not_expired(self):
        flat_db, part_db = paired_databases(RemovalPolicy.LAZY, batch=1000)
        for db in (flat_db, part_db):
            t = db.table("T")
            t.insert((1, 1), expires_at=5)
            db.advance_to(5)  # due and buffered, not yet vacuumed
            t.insert((1, 1), expires_at=50)  # renewal resurrects it
            t.vacuum()
        assert_same_visible(flat_db, part_db)
        assert part_db.table("T").read().expiration_of((1, 1)) == ts(50)


class TestParallelSweep:
    def test_sweep_counts_per_shard(self):
        db = Database()
        table = db.create_table("T", ["k"], partitions=4)
        for i in range(100):
            table.insert((i,), expires_at=10)
        assert db.now == ts(0)
        db.advance_to(10)
        assert len(table) == 0
        assert table.physical_size == 0
        assert table.statistics.expirations_processed == 100
        snap = db.metrics.snapshot()
        expired = sum(
            value
            for key, value in snap.items()
            if key.startswith("repro_partition_tuples_expired_total{")
            and 'table="T"' in key
        )
        assert expired == 100
        shards_hit = [
            key
            for key in snap
            if key.startswith("repro_partition_sweep_seconds{")
            and 'table="T"' in key
        ]
        assert shards_hit  # per-shard sweep timings recorded
        db.close()

    def test_triggers_fire_once_per_expired_tuple(self):
        db = Database()
        table = db.create_table("T", ["k"], partitions=4)
        seen = []
        table.triggers.register("log", lambda event: seen.append(event.tuple.row))
        for i in range(50):
            table.insert((i,), expires_at=3)
        table.insert((999,), expires_at=99)
        db.advance_to(3)
        assert sorted(seen) == [(i,) for i in range(50)]
        assert table.statistics.triggers_fired == 50

    def test_standalone_table_sweeps_without_database(self):
        clock = LogicalClock()
        table = Table("T", Schema(["k"]), clock, partitions=3)
        clock.on_advance(table.on_clock_advance)
        for i in range(20):
            table.insert((i,), expires_at=5)
        clock.advance_to(5)
        assert len(table) == 0

    def test_single_partition_table(self):
        db = Database()
        table = db.create_table("T", ["k"], partitions=1)
        table.insert((1,), expires_at=5)
        db.advance_to(5)
        assert len(table) == 0


class TestShardedRelation:
    # A sharded relation is written through its table, which routes once.
    @staticmethod
    def sharded(columns, partitions):
        table = Table("T", Schema(columns), LogicalClock(), partitions=partitions)
        return table, table.relation

    def test_routing_is_stable(self):
        table, rel = self.sharded(["k", "v"], 4)
        table.insert((7, "x"), expires_at=10)
        assert rel.shard_of((7, "anything")).contains((7, "x"))
        assert rel.contains((7, "x"))
        assert len(rel) == 1

    def test_max_merge_across_duplicate_inserts(self):
        table, rel = self.sharded(["k"], 2)
        table.insert((1,), expires_at=5)
        table.insert((1,), expires_at=3)  # earlier: ignored by max-merge
        assert rel.expiration_of((1,)) == ts(5)

    def test_equality_with_flat_relation(self):
        from repro.core.relation import Relation

        flat = Relation(Schema(["k"]))
        table, sharded = self.sharded(["k"], 3)
        for target in (flat, table):
            target.insert((1,), expires_at=5)
            target.insert((2,), expires_at=INFINITY)
        assert sharded.same_content(flat)
        assert flat.same_content(sharded)

    @pytest.mark.parametrize("layout", ["row", "columnar"])
    def test_alive_at_agrees_with_exp_at(self, layout):
        table = Table("T", Schema(["k", "v"]), LogicalClock(), partitions=3,
                      layout=layout)
        table.insert((1, "a"), expires_at=5)
        table.insert((2, "b"), expires_at=INFINITY)
        rel = table.relation
        for tau in (4, 5, 6):
            visible = set(rel.exp_at(tau).rows())
            for row in ((1, "a"), (2, "b"), (3, "c")):
                assert rel.alive_at(row, ts(tau)) == (row in visible)
        for unhashable in (([1], "a"), (1, ["a"])):  # routing key, then shard
            with pytest.raises(RelationError, match="hashable"):
                rel.alive_at(unhashable, ts(4))

    @pytest.mark.parametrize("verb, args", [
        ("insert", ((1,), 5)),
        ("override", ((1,), 5)),
        ("delete", ((1,),)),
        ("bulk_load", ([((1,), ts(5))],)),
        ("bulk_restore", ([((1,), None)],)),
        ("purge_expired", (5,)),
    ])
    def test_direct_mutation_is_refused(self, verb, args):
        """The inherited mutators would write a snapshot and lose the row."""
        table, rel = self.sharded(["k"], 2)
        table.insert((1,), expires_at=9)
        with pytest.raises(EngineError, match="Table"):
            getattr(rel, verb)(*args)
        assert rel.expiration_of((1,)) == ts(9)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(EngineError):
            ShardedRelation(Schema(["k"]), key_index=0, partitions=0)
        with pytest.raises(EngineError):
            ShardedRelation(Schema(["k"]), key_index=5, partitions=2)

    def test_index_routing_and_pop(self):
        """Each shard keeps its own index; the table reads across them."""
        clock = LogicalClock()
        table = Table("T", Schema(["k"]), clock, partitions=3)
        table.insert((1,), expires_at=5)
        table.insert((2,), expires_at=3)
        assert [len(shard.index) for shard in table._shards] == [0, 1, 1]
        assert table.next_expiration() == ts(3)
        assert table.process_expirations(5) == 2
        assert table.next_expiration() is None


class TestDatabaseIntegration:
    def test_create_table_validation(self):
        db = Database()
        with pytest.raises(CatalogError):
            db.create_table("T", ["k"], partition_key="k")  # key without count
        table = db.create_table("T", ["k", "v"], partitions=2)
        assert table.partition_key == "k"  # defaults to the first column

    def test_sql_ddl_and_describe(self):
        db = Database()
        execute_sql(db, "CREATE TABLE S (sid, uid) PARTITION BY HASH (uid) PARTITIONS 4")
        table = db.table("S")
        assert table.partitions == 4
        assert table.partition_key == "uid"
        execute_sql(db, "INSERT INTO S VALUES (1, 10) EXPIRES AT 30")
        assert execute_sql(db, "SELECT sid FROM S").rows == [(1,)]
        described = execute_sql(db, "DESCRIBE S").message
        assert "partitions=4" in described
        assert "hash(uid)" in described

    def test_explain_analyze_shows_shard_scans(self):
        db = Database()
        execute_sql(db, "CREATE TABLE S (sid, uid) PARTITION BY HASH (uid) PARTITIONS 4")
        for i in range(20):
            execute_sql(db, f"INSERT INTO S VALUES ({i}, {i % 7}) EXPIRES AT 50")
        message = execute_sql(db, "EXPLAIN ANALYZE SELECT sid FROM S WHERE uid = 3").message
        assert "shard_scan" in message
        db.close()

    def test_plan_cache_hits_on_partitioned_scan(self):
        db = Database()
        table = db.create_table("T", ["k", "v"], partitions=4)
        for i in range(30):
            table.insert((i, i % 3), expires_at=40)
        expr = db.table_expr("T").select(col(2) == 1)
        first = db.evaluate(expr)
        before = db.plan_cache.stats.hits
        second = db.evaluate(expr)
        assert db.plan_cache.stats.hits == before + 1
        assert dict(second.relation.items()) == dict(first.relation.items())

    def test_repartition_invalidates_plans(self):
        db = Database()
        table = db.create_table("T", ["k"], partitions=2)
        table.insert((1,), expires_at=40)
        expr = db.table_expr("T")
        assert set(db.evaluate(expr).relation.rows()) == {(1,)}
        db.drop_table("T")
        table = db.create_table("T", ["k"], partitions=4)
        table.insert((2,), expires_at=40)
        assert set(db.evaluate(expr).relation.rows()) == {(2,)}

    def test_persistence_round_trip(self):
        db = Database()
        db.create_table(
            "T",
            ["k", "v"],
            partitions=3,
            partition_key="v",
            removal_policy=RemovalPolicy.LAZY,
        )
        table = db.table("T")
        for i in range(12):
            table.insert((i, i % 5), expires_at=20 + i)
        restored = database_from_dict(database_to_dict(db))
        loaded = restored.table("T")
        assert loaded.partitions == 3
        assert loaded.partition_key == "v"
        assert dict(loaded.read().items()) == dict(table.read().items())
        restored.advance_to(25)
        db.advance_to(25)
        assert dict(loaded.read().items()) == dict(table.read().items())

    def test_close_is_idempotent(self):
        db = Database()
        table = db.create_table("T", ["k"], partitions=2)
        db.close()
        db.close()  # idempotent
        assert db.closed
        table.insert((1,), expires_at=5)
        db.advance_to(5)  # a closed database still sweeps; nothing reopens it
        assert len(table) == 0
        assert db.closed


class TestSingleThreaded:
    """``partitions=N`` is routing plus per-shard storage; nothing starts a thread."""

    @staticmethod
    def swept_and_scanned():
        """A 4-shard table that has swept across shards and served a scan."""
        db = Database()
        table = db.create_table("T", ["k", "v"], partitions=4)
        for i in range(32):
            table.insert((i, i % 3), expires_at=5 if i < 16 else 9)
        db.advance_to(5)
        assert len(db.evaluate(db.table_expr("T")).relation) == 16
        return db, table

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_sweeps_and_scans(self):
        """A copy of a built state keeps working (it hung on the inherited pool)."""
        db, table = self.swept_and_scanned()
        pid = os.fork()
        if pid == 0:
            outcome = 1
            try:
                signal.alarm(5)
                db.advance_to(9)
                rows = db.evaluate(db.table_expr("T"), cached=False).relation
                outcome = 0 if len(table) == 0 and len(rows) == 0 else 2
            finally:
                os._exit(outcome)
        _, status = os.waitpid(pid, 0)
        assert status == 0

    def test_no_thread_is_started(self):
        before = threading.active_count()
        db, table = self.swept_and_scanned()
        scan = db.table_expr("T")
        for expression in (
            scan,
            scan.select(col(2) >= 1),
            scan.join(scan, on=[(1, 1)]),
        ):
            db.evaluate(expression, cached=False)
        db.advance_to(9)
        assert len(table) == 0
        assert threading.active_count() == before
        assert not hasattr(Database(), "executor")

    def test_pool_keywords_are_type_errors(self):
        # No alias, no shim: the pool and the fingerprint it needed are gone.
        db, _ = self.swept_and_scanned()
        scan = db.table_expr("T")
        plan = compile_expression(scan, db.schema_resolver)
        with pytest.raises(TypeError):
            plan.execute(db.catalog, db.now, executor=None)
        with pytest.raises(TypeError):
            db.plan_cache.evaluate(scan, db.catalog, db.now, partitioning=())
        with pytest.raises(TypeError):
            db.plan_cache.evaluate(scan, db.catalog, db.now, executor=None)


LAYOUTS = ["row", "columnar"]
SHARDINGS = [None, 4]


def shaped_database(layout, partitions):
    """The differential suite's random catalog loaded into tables of one shape."""
    db = Database()
    for name, relation in random_catalog(random.Random(21)).items():
        table = db.create_table(
            name, relation.schema, layout=layout, partitions=partitions
        )
        for row, texp in relation.items():
            table.insert(row, expires_at=texp)
    db.advance_to(6)
    return db


@pytest.mark.parametrize("partitions", SHARDINGS)
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("shape", ["scan", "select", "project_select", "join"])
def test_explain_analyze_runs_what_runs(shape, layout, partitions):
    """A traced run executes the operators an untraced run does, on every shape."""
    db = shaped_database(layout, partitions)
    expression = {
        "scan": BaseRef("R"),
        "select": BaseRef("R").select(col(1) >= 2),
        "project_select": BaseRef("R").select(col(1) >= 2).project(2),
        "join": BaseRef("S").join(BaseRef("R"), on=[(1, 1)]),  # R is the build side
    }[shape]
    traced = db.evaluate(expression, trace=True)
    traced_stats = db.last_eval_stats
    span = db.trace_last_query()
    plain = db.evaluate(expression, cached=False)
    plain_stats = db.last_eval_stats
    reference = evaluate(expression, db.catalog, tau=db.now)
    for result in (traced, plain):
        assert result.relation.same_content(reference.relation)
        assert result.expiration == reference.expiration
        assert result.validity == reference.validity
    for counter in ("operators_evaluated", "tuples_scanned", "hash_probes"):
        assert getattr(traced_stats, counter) == getattr(plain_stats, counter)
    assert traced_stats.columnar_kernel_rows == plain_stats.columnar_kernel_rows

    shard_scans = [s for s in span.walk() if s.name == "shard_scan"]
    if partitions is None:
        assert shard_scans == []
    else:
        scanned = sum(
            len(db.table(name)) for name in expression.base_names()
        )
        assert len(shard_scans) == partitions * len(expression.base_names())
        assert sum(s.attrs["rows"] for s in shard_scans) == scanned
    if layout == "columnar" and shape == "project_select":
        project = span.find("Project")
        assert project.attrs["fuses"] == "Select,BaseRef(R)"
        assert project.attrs["live_rows"] == len(db.table("R"))
        assert project.attrs["selected_rows"] == project.attrs["rows"]
        assert [child.attrs["kernel"] for child in project.children
                if child.name == "columnar_batch"] == ["project_gather"]
        assert {"scan_filter", "select_mask", "project_gather"} <= set(
            plain_stats.columnar_kernel_rows
        )
