"""Which rows a DML statement touches.

An ``INSERT`` stores all of its rows or none: every row passes the
table's door (arity, attribute domain, an expiration after now) before
the first is stored, logged or shown to a view.  ``DELETE``, ``RENEW``
and ``UPDATE`` act on the live rows their ``WHERE`` selects, filtered by
the compiled predicate in stored order -- the rows, the order and the
error of the interpreted ``Predicate.matches`` they replaced.
"""

from __future__ import annotations

import pytest

from repro.engine import table as table_module
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy
from repro.errors import EvaluationError, RelationError
from repro.sql import execute_sql
from repro.sql.ast import DeleteStatement
from repro.sql.executor import _victims
from repro.sql.parser import parse_sql
from repro.sql.planner import _Environment, _plan_condition

LAYOUTS = {
    "row": {},
    "columnar": {"layout": "columnar"},
    "partitioned": {"partitions": 3},
}
#: ``float()`` makes this decimal literal ``inf``, outside the domain.
HUGE = "9" * 400 + ".5"
#: Two finite floats (1e308 and 1.5e308) whose sum is ``inf``.
LARGE, LARGER = "1" + "0" * 308 + ".0", "15" + "0" * 307 + ".0"


def _database(tmp_path, options):
    db = Database(wal_dir=tmp_path)
    db.create_table("W", ["k", "v"], **options)
    execute_sql(db, "INSERT INTO W VALUES (0, 0) EXPIRES AT 50")
    execute_sql(db, "CREATE MATERIALIZED VIEW w AS SELECT k, v FROM W")
    return db


def _state(db):
    """Rows with their expirations, log records, the view, the counter."""
    return (
        sorted(db.table("W").relation.items()),
        db.wal.records(),
        sorted(db.view("w").read().rows()),
        db.statistics.inserts,
    )


class TestInsertIsAllOrNothing:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("text, error", [
        ("INSERT INTO W VALUES (1, 2), (3) EXPIRES IN 5", "arity mismatch"),
        ("INSERT INTO W VALUES (1, 2), (3, 4, 5)", "arity mismatch"),
        (f"INSERT INTO W VALUES (5, 6), (7, {HUGE})", "outside the attribute domain"),
        (f"INSERT INTO W VALUES (5, {HUGE}), (7)", "outside the attribute domain"),
    ], ids=["short", "long", "inf-last", "inf-first"])
    def test_a_refused_row_stores_none(self, tmp_path, layout, text, error):
        db = _database(tmp_path, LAYOUTS[layout])
        heard = []
        db.table("W").insert_listeners.append(lambda _t, stored: heard.append(stored))
        before = _state(db)
        with pytest.raises(RelationError, match=error):
            execute_sql(db, text)
        assert _state(db) == before
        assert heard == []

    def test_insert_select_stores_none_when_a_row_is_refused(self, tmp_path):
        db = _database(tmp_path, {})
        execute_sql(db, "CREATE TABLE T (g, v)")
        execute_sql(db, f"INSERT INTO T VALUES (1, 2.5), (2, {LARGE}), "
                        f"(2, {LARGER}) EXPIRES AT 40")
        before = _state(db)
        # g = 2 sums to inf; g = 1's row alone would be stored.
        for text in ("INSERT INTO W SELECT g, SUM(v) FROM T GROUP BY g",
                     "INSERT INTO W SELECT g, SUM(v) FROM T GROUP BY g "
                     "EXPIRES IN 3"):
            with pytest.raises(RelationError, match="inf"):
                execute_sql(db, text)
            assert _state(db) == before

    def test_an_expired_pair_stores_none(self, tmp_path):
        db = _database(tmp_path, {})
        execute_sql(db, "ADVANCE TO 4")
        before = _state(db)
        with pytest.raises(RelationError, match="already-expired"):
            db.table("W").insert_many([((1, 1), 9), ((2, 2), 4)])
        assert _state(db) == before

    def test_each_row_is_checked_once(self, tmp_path, monkeypatch):
        db = _database(tmp_path, {})
        checked = []
        real = table_module.check_domain

        def counting(row):
            checked.append(row)
            return real(row)

        monkeypatch.setattr(table_module, "check_domain", counting)
        execute_sql(db, "INSERT INTO W VALUES (1, 2), (3, 4), (1, 2) EXPIRES IN 5")
        assert checked == [(1, 2), (3, 4), (1, 2)]
        assert sorted(db.view("w").read().rows()) == [(0, 0), (1, 2), (3, 4)]

    def test_rows_keep_their_expirations(self, tmp_path):
        db = _database(tmp_path, {})
        execute_sql(db, "INSERT INTO W VALUES (1, 1) EXPIRES AT 9")
        execute_sql(db, "CREATE TABLE U (k, v)")
        execute_sql(db, "INSERT INTO U SELECT k, v FROM W")
        assert sorted(db.table("U").relation.items()) == [((0, 0), 50), ((1, 1), 9)]
        execute_sql(db, "INSERT INTO U SELECT k, v FROM W EXPIRES IN 60")
        assert sorted(db.table("U").relation.items()) == [((0, 0), 60), ((1, 1), 60)]


def _interpreted(db, text):
    """The filter ``_victims`` replaced: ``exp_at`` copy, interpreted
    ``matches`` on every live row."""
    statement = parse_sql(text)
    table = db.table(statement.table)
    rows = table.read().rows()
    if statement.where is None:
        return list(rows)
    env = _Environment()
    env.add(statement.table, table.schema)
    predicate = _plan_condition(statement.where, env)
    return [row for row in rows if predicate.matches(row)]


WHERES = [
    "", " WHERE k = 3", " WHERE k < 4 AND v >= 2", " WHERE k = 1 OR NOT v = 5",
    " WHERE v != 'x'", " WHERE k > 100",
]


class TestVictims:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("where", WHERES)
    def test_the_compiled_filter_selects_what_the_interpreter_selects(
        self, tmp_path, layout, where
    ):
        db = _database(tmp_path, LAYOUTS[layout])
        execute_sql(db, "INSERT INTO W VALUES (3, 1), (1, 5), (2, 2), (3, 4), "
                        "(5, 5) EXPIRES IN 3")
        execute_sql(db, "INSERT INTO W VALUES (4, 2), (2, 7) EXPIRES IN 1")
        execute_sql(db, "ADVANCE BY 1")
        text = f"DELETE FROM W{where}"
        expected = _interpreted(db, text)
        assert _victims(db, parse_sql(text)) == expected
        assert execute_sql(db, text).rowcount == len(expected)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("verb", [
        "DELETE FROM W", "RENEW W EXPIRES IN 9", "UPDATE W EXPIRES IN 0",
    ])
    def test_a_mixed_type_where_raises_the_interpreted_error(
        self, tmp_path, layout, verb
    ):
        db = _database(tmp_path, LAYOUTS[layout])
        execute_sql(db, "INSERT INTO W VALUES (1, 2), (3, 'a') EXPIRES IN 5")
        text = f"{verb} WHERE v < 3"
        with pytest.raises(EvaluationError) as interpreted:
            _interpreted(db, text)
        before = _state(db)
        with pytest.raises(EvaluationError) as compiled:
            execute_sql(db, text)
        assert str(compiled.value) == str(interpreted.value) == (
            "cannot compare str < int")
        assert _state(db) == before

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_due_rows_a_lazy_table_still_stores_are_not_victims(self, layout):
        db = Database()
        db.create_table("W", ["k", "v"], removal_policy=RemovalPolicy.LAZY,
                        **LAYOUTS[layout])
        execute_sql(db, "INSERT INTO W VALUES (1, 1), (2, 2) EXPIRES AT 2")
        execute_sql(db, "INSERT INTO W VALUES (1, 3), (2, 4) EXPIRES AT 9")
        execute_sql(db, "ADVANCE TO 3")
        table = db.table("W")
        assert table.physical_size == 4  # the due rows wait for a vacuum
        statement = parse_sql("DELETE FROM W WHERE k = 1")
        assert isinstance(statement, DeleteStatement)
        assert _victims(db, statement) == [(1, 3)]
        assert execute_sql(db, "RENEW W EXPIRES IN 20 WHERE k >= 1").rowcount == 2
        assert execute_sql(db, "UPDATE W EXPIRES IN 0 WHERE k = 2").rowcount == 1
        assert execute_sql(db, "DELETE FROM W WHERE k = 1").rowcount == 1
        assert list(table.read().rows()) == []
