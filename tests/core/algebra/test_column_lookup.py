"""A compiled selection answered from a column lookup, against the interpreter.

``σ(BaseRef)`` with an indexable conjunct (``col = c``, or both bounds on
one column) probes the stored relation's :class:`ColumnLookup` instead of
scanning it.  A lookup is built at the second probe that finds no row added
since the previous one, so every case here evaluates with ``cached=False``
at least twice and compares each result -- rows and per-row ``texp`` --
with the reference interpreter's, on a flat and a partitioned row table
under both removal policies.  ``db.last_eval_stats.lookup_probes`` says
whether the lookup answered.
"""

import math

import pytest

from repro.core.algebra.evaluator import Evaluator
from repro.core.algebra.predicates import col, val
from repro.core.relation import LOOKUP_FLOOR
from repro.core.timestamps import ts
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.recovery import recover_database
from repro.errors import EvaluationError
from repro.sql.executor import execute_sql

#: Every shard of a three-way partitioned table stays above the floor.
ROWS = 6 * LOOKUP_FLOOR
KEYS = ROWS // 2
SHAPES = {"flat": {}, "partitioned": {"partitions": 3, "partition_key": "k"}}
POLICIES = {"eager": RemovalPolicy.EAGER, "lazy": RemovalPolicy.LAZY}


def make_db(shape: str, policy: str, **kwargs) -> Database:
    db = Database(default_removal_policy=POLICIES[policy], **kwargs)
    table = db.create_table("T", ["k", "v"], lazy_batch_size=8, **SHAPES[shape])
    for i in range(ROWS):
        table.insert((i % KEYS, i), expires_at=5 + i % 20)
    return db


@pytest.fixture(
    params=[(s, p) for s in SHAPES for p in POLICIES],
    ids=lambda param: "-".join(param),
)
def db(request):
    return make_db(*request.param)


def evaluate(db: Database, expression, at=None) -> int:
    """Compiled equals interpreted at ``at``; returns ``lookup_probes``."""
    result = db.evaluate(expression, at=at, cached=False).relation
    expected = Evaluator(db.catalog, db.now if at is None else at)
    assert result.same_content(expected.evaluate(expression).relation)
    return db.last_eval_stats.lookup_probes


def twice(db: Database, expression, at=None) -> int:
    """Probe twice (the second may build the lookup); the second's count."""
    evaluate(db, expression, at)
    return evaluate(db, expression, at)


def select(db: Database, predicate):
    return db.table_expr("T").select(predicate)


def store(db: Database, row, expires_at) -> None:
    """Put ``row`` into T's storage through the core ``Relation`` API.

    The table's door refuses a value outside the attribute domain (a NaN,
    a frozenset); a relation is not a door, and the lookup must still
    answer what the interpreter answers over whatever it stores.
    """
    table = db.table("T")
    relation = table.relation if table.partitions is None else table.relation.shard_of(row)
    relation.insert(row, expires_at=expires_at)


INDEXABLE = [
    col("k") == 3,
    col("k") == 3.0,
    val(3) == col("k"),
    (col("k") >= 10) & (col("k") < 20),
    (col("k") > 10) & (col("k") <= 20),
    (val(10) < col("k")) & (col("k") < 20),
    (col("k") > 2.5) & (col("k") < 6.5),
    (col("k") >= 5) & (col("k") < 5),  # empty
    (col("k") > 20) & (col("k") < 10),  # empty
    (col("k") == 4) & (col("v") > 100),
    (col("v") > 100) & (col("k") >= 3) & (col("k") <= 9),
    (col("k") == KEYS + 7),  # no such key
]

SCANNED = [
    col("k") > 100,  # one-sided
    col("k") != 3,
    (col("k") == 3) | (col("k") == 4),
    col("k") == col("v"),
    col("k") == [3],  # unhashable: only a scan can compare it
]


class TestAgainstTheInterpreter:
    @pytest.mark.parametrize("predicate", INDEXABLE, ids=repr)
    def test_indexable_selections_take_the_lookup(self, db, predicate):
        assert twice(db, select(db, predicate)) == 1

    @pytest.mark.parametrize("predicate", SCANNED, ids=repr)
    def test_other_selections_scan(self, db, predicate):
        assert twice(db, select(db, predicate)) == 0

    def test_a_projection_over_the_selection_probes_too(self, db):
        expression = db.table_expr("T").select(col("k") == 5).project("v")
        assert twice(db, expression) == 1

    def test_past_tau(self, db):
        db.advance_to(12)
        for at in (3, 8, 12, 30):
            assert twice(db, select(db, col("k") == 6), at=at) == 1
            assert twice(db, select(db, (col("k") >= 2) & (col("k") < 9)), at=at) == 1

    def test_one_equals_one_point_oh_equals_true(self, db):
        table = db.table("T")
        table.insert((1.0, "float"), expires_at=40)
        table.insert((True, "bool"), expires_at=40)
        for constant in (1, 1.0, True):
            expression = select(db, col("k") == constant)
            assert twice(db, expression) == 1
            assert len(db.evaluate(expression).relation) == 4

    def test_mixed_type_column(self, db):
        table = db.table("T")
        table.insert(("a", "str"), expires_at=40)
        table.insert(("b", "str"), expires_at=40)
        assert twice(db, select(db, col("k") == "a")) == 1
        assert twice(db, select(db, col("k") == 3)) == 1
        # Ints and strings do not order: the range scans, and the scan
        # raises what the interpreter raises.
        expression = select(db, (col("k") >= 1) & (col("k") < 5))
        for _ in range(3):
            with pytest.raises(EvaluationError, match="cannot compare str >= int"):
                db.evaluate(expression, cached=False)
        with pytest.raises(EvaluationError, match="cannot compare str >= int"):
            Evaluator(db.catalog, db.now).evaluate(expression)

    def test_bounds_that_do_not_order_against_the_keys_scan(self, db):
        expression = select(db, (col("k") > "a") & (col("k") < "z"))
        for _ in range(3):
            with pytest.raises(EvaluationError, match="cannot compare int > str"):
                db.evaluate(expression, cached=False)

    def test_an_unhashable_constant_equal_to_a_stored_key(self, db):
        store(db, (frozenset({1}), "set"), 40)
        expression = select(db, col("k") == {1})  # a set equals a frozenset
        assert twice(db, expression) == 0
        assert len(db.evaluate(expression, cached=False).relation) == 1

    def test_nan_keys_satisfy_no_range(self, db):
        store(db, (math.nan, "nan"), 40)
        assert twice(db, select(db, (col("k") >= 0) & (col("k") < 10))) == 1
        assert twice(db, select(db, col("k") == math.nan)) == 1

    def test_a_nan_key_does_not_disorder_the_range(self):
        # Sorted with the NaN in, these keys stay out of order around it.
        db = Database()
        db.create_table("T", ["k", "v"])
        keys = list(range(2 * LOOKUP_FLOOR, 0, -1))
        keys.insert(LOOKUP_FLOOR, math.nan)
        for key in keys:
            store(db, (key, "v"), 10)
        expression = select(db, (col("k") >= 10) & (col("k") < LOOKUP_FLOOR + 20))
        assert twice(db, expression) == 1
        assert len(db.evaluate(expression).relation) == LOOKUP_FLOOR + 10

    def test_quoted_strings_over_sql(self):
        db = Database()
        execute_sql(db, "CREATE TABLE S (name, n)")
        values = ", ".join(f"('n{i:03d}', {i})" for i in range(2 * LOOKUP_FLOOR))
        execute_sql(db, f"INSERT INTO S VALUES {values} EXPIRES IN 10")
        statements = [
            ("SELECT n FROM S WHERE name = 'n007'", [(7,)]),
            ("SELECT n FROM S WHERE name = 'n011'", [(11,)]),
            ("SELECT n FROM S WHERE name >= 'n020' AND name < 'n023'",
             [(20,), (21,), (22,)]),
            ("SELECT n FROM S WHERE name = 'zzz'", []),
        ]
        probes = []
        for text, expected in statements:
            assert sorted(execute_sql(db, text).rows) == expected
            probes.append(db.last_eval_stats.lookup_probes)
        assert probes == [0, 1, 1, 1]


ADD_PATHS = {
    "insert": lambda db, row: db.table("T").insert(row, expires_at=50),
    "renew": lambda db, row: db.table("T").renew(row, 50),
    "override": lambda db, row: db.table("T").override(row, expires_at=50),
    "bulk_load": lambda db, row: db.table("T").bulk_load([(row, ts(50))]),
    "bulk_restore": lambda db, row: db.table("T").bulk_restore([(row, 50)]),
    "undo_delete": lambda db, row: db.table("T").undo_delete(row, ts(50)),
}


class TestInvalidation:
    @pytest.mark.parametrize("path", ADD_PATHS)
    def test_every_path_that_adds_a_row_is_seen(self, db, path):
        point = select(db, col("k") == 3)
        ranged = select(db, (col("k") >= 2) & (col("k") <= 4))
        for expression in (point, ranged):
            assert twice(db, expression) == 1
        # Added between two probes: the second scans and sees the row.
        evaluate(db, point)
        ADD_PATHS[path](db, (3, "first"))
        assert evaluate(db, point) == 0
        assert twice(db, point) == 1
        # Added after the lookup was built: it is dropped.
        ADD_PATHS[path](db, (3, "second"))
        assert evaluate(db, point) == 0
        assert twice(db, point) == 1
        assert twice(db, ranged) == 1
        rows = db.evaluate(ranged, cached=False).relation
        assert {(3, "first"), (3, "second")} <= set(rows.rows())

    def test_recovery_replay(self, tmp_path):
        db = make_db("flat", "eager", wal_dir=str(tmp_path), wal_fsync="never")
        db.checkpoint()  # the base rows load from the snapshot ...
        db.table("T").insert((3, "logged"), expires_at=50)  # ... this replays
        db.close()
        recovered = recover_database(tmp_path, fsync="never")
        try:
            assert twice(recovered, select(recovered, col("k") == 3)) == 1
            rows = recovered.evaluate(select(recovered, col("k") == 3)).relation
            assert (3, "logged") in set(rows.rows())
        finally:
            recovered.close()

    def test_a_table_that_grows_between_probes_keeps_scanning(self, db):
        expression = select(db, col("k") == 3)
        for i in range(4):
            assert evaluate(db, expression) == 0
            db.table("T").insert((3, f"new{i}"), expires_at=50)

    def test_below_the_floor_a_relation_always_scans(self):
        db = Database()
        table = db.create_table("T", ["k", "v"])
        for i in range(LOOKUP_FLOOR - 1):
            table.insert((i, i), expires_at=10)
        for _ in range(3):
            assert evaluate(db, select(db, col("k") == 3)) == 0


class TestRemovedRowsStayRemoved:
    def test_deleted_row(self, db):
        expression = select(db, col("k") == 3)
        assert twice(db, expression) == 1
        victim = next(iter(db.evaluate(expression).relation.rows()))
        assert db.table("T").delete(victim)
        assert evaluate(db, expression) == 1  # a delete keeps the lookup
        assert victim not in set(db.evaluate(expression, cached=False).relation.rows())

    def test_swept_rows(self, db):
        expression = select(db, (col("k") >= 0) & (col("k") < 40))
        assert twice(db, expression) == 1
        db.advance_to(9)  # a quarter of the rows lapse: a sweep adds none
        assert evaluate(db, expression) == 1
        for now in (9, 15, 30):
            db.advance_to(now)
            evaluate(db, expression)
            db.table("T").vacuum()
            evaluate(db, expression)

    def test_overridden_to_now(self, db):
        expression = select(db, col("k") == 3)
        assert twice(db, expression) == 1
        rows = list(db.evaluate(expression).relation.rows())
        db.table("T").override(rows[0], expires_at=db.now)
        assert evaluate(db, expression) == 1  # present row: no add
        assert rows[0] not in set(db.evaluate(expression, cached=False).relation.rows())


class TestWhereItShows:
    def test_the_leaf_span_notes_the_lookup(self):
        db = make_db("flat", "eager")
        execute_sql(db, "SELECT v FROM T WHERE k = 3")
        message = execute_sql(db, "EXPLAIN ANALYZE SELECT v FROM T WHERE k = 4").message
        lines = [line.strip() for line in message.splitlines()]
        select_at = next(i for i, line in enumerate(lines) if line.startswith("Select"))
        assert lines[select_at + 1].startswith("BaseRef(T) [")
        assert "lookup=col(1)" in lines[select_at + 1]
        assert db.last_eval_stats.tuples_scanned == 2  # the candidates

    @pytest.mark.parametrize("column, shards", [("k", 1), ("v", 3)])
    def test_an_equality_on_the_partition_key_probes_one_shard(self, column, shards):
        db = make_db("partitioned", "eager")
        expression = select(db, col(column) == 7)
        for _ in range(2):
            db.evaluate(expression, trace=True)
        spans = [s for s in db.trace_last_query().walk() if s.name == "shard_scan"]
        assert len(spans) == shards
