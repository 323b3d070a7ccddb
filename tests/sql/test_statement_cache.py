"""The statement cache: same answers as parsing and planning every time.

``execute_sql`` / ``execute_script`` / the sessions go from text to an
executable statement through ``Database.statement_cache``; the reference
side of the differential below calls the miss path's own module-level
functions (``parse_statements`` + ``execute_statement``) directly, so it
never sees the cache.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.algebra.compiler import template_of
from repro.engine import statement_cache
from repro.engine.database import Database
from repro.errors import (
    RemoteError,
    ReproError,
    SessionError,
    SqlLexError,
    SqlParseError,
    SqlPlanError,
)
from repro.server.client import AsyncSession, connect
from repro.server.server import ReproServer
from repro.sql import execute_script, execute_sql, parse_statements
from repro.sql.executor import execute_statement

SELECTS = [
    "SELECT uid, deg FROM Pol",
    "SELECT uid FROM Pol WHERE deg = 25",
    "SELECT deg FROM Pol UNION SELECT deg FROM El",
    "SELECT uid FROM Pol EXCEPT SELECT uid FROM El",
    "SELECT deg, COUNT(*) AS n FROM Pol GROUP BY deg",
    "SELECT uid, deg FROM Pol ORDER BY deg DESC, uid LIMIT 2",
    "SELECT * FROM Pol AS P JOIN El AS E ON P.uid = E.uid",
    "SELECT * FROM v",
    "SELECT * FROM Wide",
]

#: Every SELECT above is re-sent after each of these steps.
HISTORY = [
    "CREATE TABLE Pol (uid, deg)",
    "CREATE TABLE El (uid, deg)",
    "CREATE TABLE Wide (a, b)",
    "CREATE MATERIALIZED VIEW v AS SELECT uid FROM Pol WHERE deg = 25",
    "INSERT INTO Pol VALUES (1, 25), (2, 25), (3, 35) EXPIRES AT 10",
    "INSERT INTO Pol VALUES (4, 45) EXPIRES AT 4",
    "INSERT INTO El VALUES (1, 75), (4, 90) EXPIRES AT 6",
    "INSERT INTO Wide VALUES (1, 2) EXPIRES AT 20",
    "ADVANCE TO 3",
    "RENEW Pol EXPIRES AT 12 WHERE uid = 1",
    "UPDATE Pol EXPIRES IN 0 WHERE uid = 2",
    "ADVANCE BY 2",
    "DELETE FROM El WHERE uid = 4",
    # same name, different arity
    "DROP TABLE Wide",
    "CREATE TABLE Wide (a, b, c)",
    "INSERT INTO Wide VALUES (7, 8, 9) EXPIRES AT 30",
    # same name and schema, different layout and partitioning
    "DROP TABLE El",
    "CREATE TABLE El (uid, deg) PARTITION BY HASH (uid) PARTITIONS 3 LAYOUT COLUMNAR",
    "INSERT INTO El VALUES (1, 75), (3, 80) EXPIRES AT 9",
    # same view name, different definition
    "DROP VIEW v",
    "CREATE MATERIALIZED VIEW v AS SELECT deg, uid FROM Pol WHERE deg > 25",
    "ADVANCE TO 8",
]


def _fresh(db: Database, text: str):
    """One statement with nothing cached: the miss path's own functions."""
    (statement,) = parse_statements(text)
    return execute_statement(db, statement)


def _observed(run, db: Database, text: str):
    try:
        result = run(db, text)
    except SqlPlanError as error:  # e.g. SELECT * FROM v before v exists
        return type(error).__name__, str(error)
    items = None if result.relation is None else sorted(
        result.relation.items(), key=repr)
    columns = None if result.relation is None else result.relation.schema.names
    return result.kind, result.rowcount, result.rows, items, columns


class TestDifferential:
    def test_history_through_the_cache_equals_fresh_planning(self):
        cached_db, fresh_db = Database(), Database()
        for step in HISTORY:
            for text in [step] + SELECTS + SELECTS:  # second round: all hits
                assert _observed(execute_sql, cached_db, text) == _observed(
                    _fresh, fresh_db, text), (step, text)
        hits = cached_db.metrics.snapshot()["repro_sql_statement_cache_hits_total"]
        assert hits >= len(HISTORY) * len(SELECTS)  # the cache was exercised
        assert len(fresh_db.statement_cache) == 0

    def test_view_redefinition_replans_the_same_text(self):
        db = Database()
        execute_script(
            db,
            """
            CREATE TABLE Pol (uid, deg);
            INSERT INTO Pol VALUES (1, 25), (3, 35) EXPIRES AT 10;
            CREATE MATERIALIZED VIEW v AS SELECT uid FROM Pol WHERE deg = 25;
            """,
        )
        assert execute_sql(db, "SELECT * FROM v").rows == [(1,)]
        before = db.schema_version
        execute_sql(db, "DROP VIEW v")
        execute_sql(db, "CREATE MATERIALIZED VIEW v AS SELECT deg FROM Pol WHERE deg = 35")
        assert db.schema_version > before  # view DDL is schema DDL
        assert execute_sql(db, "SELECT * FROM v").rows == [(35,)]

    def test_sessions_share_the_one_lookup(self):
        with connect() as session:
            session.execute("CREATE TABLE T (k)")
            session.execute("INSERT INTO T VALUES (1), (2) EXPIRES AT 9")
            text = "SELECT k FROM T ORDER BY k DESC"
            first = session.query(text)
            entries = len(session.db.statement_cache)
            again = session.execute(text)  # either verb, same entry
            assert first.rows == again.rows == [(2,), (1,)]
            assert first.items == again.items
            assert len(session.db.statement_cache) == entries == 1


class TestNeverCached:
    @pytest.fixture
    def db(self):
        database = Database()
        execute_script(
            database,
            """
            CREATE TABLE Pol (uid, deg);
            INSERT INTO Pol VALUES (1, 25), (2, 25) EXPIRES AT 10;
            """,
        )
        execute_sql(database, "SELECT uid FROM Pol")
        assert len(database.statement_cache) == 1
        return database

    @pytest.mark.parametrize("text", [
        "INSERT INTO Pol VALUES (7, 5), (8, 5) EXPIRES IN 3",
        "RENEW Pol EXPIRES AT 20 WHERE uid = 1",
        "UPDATE Pol EXPIRES IN 0 WHERE uid = 2",
        "DELETE FROM Pol WHERE uid = 1",
        "ADVANCE BY 1",
        "EXPLAIN SELECT uid FROM Pol",
        "EXPLAIN ANALYZE SELECT uid FROM Pol",
        "SHOW TABLES",
    ])
    def test_non_queries(self, db, text):
        for _ in range(2):
            execute_sql(db, text)
        assert len(db.statement_cache) == 1

    def test_scripts(self, db):
        for _ in range(2):
            results = execute_script(db, "SELECT deg FROM Pol; SELECT uid FROM Pol")
            assert [r.rows for r in results] == [[(25,)], [(1,), (2,)]]
        assert len(db.statement_cache) == 1
        # ... while a one-statement script is the same lookup as execute_sql
        assert execute_script(db, "SELECT uid FROM Pol")[0].rows == [(1,), (2,)]
        assert len(db.statement_cache) == 1

    @pytest.mark.parametrize("text, error", [
        ("SELECT uid FROM Pol WHERE deg = $", SqlLexError),
        ("SELECT uid FROM", SqlParseError),
        ("SELECT uid FROM Missing", SqlPlanError),
        ("SELECT nope FROM Pol", SqlPlanError),
    ])
    def test_failures(self, db, text, error):
        for _ in range(2):
            with pytest.raises(error):
                execute_sql(db, text)
        assert len(db.statement_cache) == 1

    def test_failed_text_is_cached_once_it_plans(self, db):
        with pytest.raises(SqlPlanError):
            execute_sql(db, "SELECT a FROM Later")
        execute_sql(db, "CREATE TABLE Later (a)")
        assert execute_sql(db, "SELECT a FROM Later").rows == []
        assert len(db.statement_cache) == 1  # the DDL started a new generation


class TestBounds:
    def test_lru_bound(self, monkeypatch):
        monkeypatch.setattr(statement_cache, "CAPACITY", 4)
        db = Database()
        execute_sql(db, "CREATE TABLE T (k)")
        texts = [f"SELECT k FROM T WHERE k = {i}" for i in range(6)]
        for text in texts[:4]:
            execute_sql(db, text)
        execute_sql(db, texts[0])  # touch: now the most recently used
        for text in texts[4:]:
            execute_sql(db, text)
        assert len(db.statement_cache) == 4
        snapshot = db.metrics.snapshot()
        assert snapshot["repro_sql_statement_cache_evictions_total"] == 2
        hits = snapshot["repro_sql_statement_cache_hits_total"]
        execute_sql(db, texts[0])  # survived
        execute_sql(db, texts[1])  # evicted
        snapshot = db.metrics.snapshot()
        assert snapshot["repro_sql_statement_cache_hits_total"] == hits + 1

    def test_text_length_bound(self):
        db = Database()
        execute_sql(db, "CREATE TABLE T (k)")
        text = "SELECT k FROM T"
        long_text = text + " " * (statement_cache.MAX_TEXT_LENGTH - len(text) + 1)
        assert execute_sql(db, long_text).rows == []
        assert len(db.statement_cache) == 0
        assert execute_sql(db, long_text[:-1]).rows == []  # exactly at the bound
        assert len(db.statement_cache) == 1


class TestMetrics:
    def test_families_and_accounting(self):
        db = Database()
        texts = [
            "CREATE TABLE T (k)",
            "INSERT INTO T VALUES (1) EXPIRES AT 5",
            "SELECT k FROM T",
            "SELECT k FROM T",
            "ADVANCE BY 1",
            "SELECT k FROM T",
        ]
        for text in texts:
            execute_sql(db, text)
        snapshot = db.metrics.snapshot()
        hits = snapshot["repro_sql_statement_cache_hits_total"]
        misses = snapshot["repro_sql_statement_cache_misses_total"]
        assert (hits, misses) == (2, 4)
        statements = sum(
            value for key, value in snapshot.items()
            if key.startswith("repro_sql_statements_total"))
        assert hits + misses == statements == len(texts)
        assert snapshot["repro_sql_statement_cache_evictions_total"] == 0
        assert snapshot["repro_sql_statement_cache_entries"] == 1
        assert "repro_sql_statement_cache_entries 1" in db.metrics.to_prom_text()


class TestOverTheWire:
    def test_query_kind_still_refuses_dml_before_it_executes(self):
        async def scenario():
            server = ReproServer()
            session = await AsyncSession.over_loopback(server)
            try:
                await session.execute("CREATE TABLE T (k)")
                insert = "INSERT INTO T VALUES (1) EXPIRES AT 9"
                await session.execute(insert)  # a text the server has seen
                select = "SELECT k FROM T"
                assert (await session.query(select)).rows == [(1,)]
                assert (await session.query(select)).rows == [(1,)]  # a hit
                version = server.db.catalog_version
                for text in (insert, "DELETE FROM T", select + "; " + select):
                    with pytest.raises(RemoteError) as refused:
                        await session.query(text)
                    assert refused.value.remote_type == "SessionError"
                assert server.db.catalog_version == version  # nothing ran
                assert (await session.query(select)).rows == [(1,)]
                assert len(server.db.statement_cache) == 1
            finally:
                await session.close()
                await server.stop()

        asyncio.run(scenario())

    def test_local_query_refuses_the_same_way(self):
        with connect() as session:
            session.execute("CREATE TABLE T (k)")
            with pytest.raises(SessionError, match="row-producing"):
                session.query("INSERT INTO T VALUES (1) EXPIRES AT 9")
            assert session.execute("SELECT k FROM T").rows == []


#: Each shape of ``SELECTS`` that has literals, and a few more, with the
#: literals to re-send it with: ints, floats and strings, values no row
#: has, a mixed-type comparison that raises, ``LIMIT 0/1/2``, ``1 = 1``.
VARIED = [
    ("SELECT uid FROM Pol WHERE deg = {}", [25, 35, 25.0, "'25'", 99, 45]),
    ("SELECT uid FROM Pol WHERE deg < {}", [30, 25.5, "'a'", 0]),
    ("SELECT uid, deg FROM Pol ORDER BY deg DESC, uid LIMIT {}", [2, 0, 1]),
    ("SELECT uid FROM Pol WHERE {} = {}", [(1, 1), (1, 2), ("'a'", "'a'"), (1, 1.0)]),
    ("SELECT uid FROM Pol WHERE deg = {} OR uid = {}", [(25, 25), (35, 1), (1, 1)]),
    ("SELECT deg, COUNT(*) AS n FROM Pol WHERE uid > {} GROUP BY deg "
     "HAVING COUNT(*) >= {}", [(0, 1), (1, 2), (0, "'x'")]),
    ("SELECT * FROM Pol AS P JOIN El AS E ON P.uid = E.uid WHERE E.deg > {}",
     [70, 80, 75.5, "'z'"]),
    ("SELECT deg FROM Pol WHERE uid = {} UNION SELECT deg FROM El WHERE uid = {}",
     [(1, 4), (3, 1), ("'q'", 1)]),
    ("SELECT uid FROM Pol WHERE uid IN (SELECT uid FROM El WHERE deg >= {})",
     [75, 90, 0]),
    ("SELECT uid FROM Pol WHERE uid IN (SELECT uid FROM El LIMIT {})", [0, 1, 0]),
    ("SELECT * FROM v WHERE uid != {}", [1, 2, "'1'"]),
    ("SELECT a, b FROM Wide WHERE a = {} AND b <= {}", [(1, 2), (7, 8), (1, 1)]),
]


def _texts(template: str, values) -> list:
    return [template.format(*(value if isinstance(value, tuple) else (value,)))
            for value in values]


def _outcome(run, db: Database, text: str):
    """What ``run`` made of ``text``: the result, or the error's type and
    message."""
    try:
        result = run(db, text)
    except ReproError as error:
        return type(error).__name__, str(error)
    items = None if result.relation is None else sorted(
        result.relation.items(), key=repr)
    columns = None if result.relation is None else result.relation.schema.names
    return result.kind, result.rowcount, result.rows, items, columns


class TestLiteralsAsSlots:
    def test_history_with_varied_literals_equals_fresh_planning(self):
        cached_db, fresh_db = Database(), Database()
        for step in HISTORY:
            assert _outcome(execute_sql, cached_db, step) == _outcome(
                _fresh, fresh_db, step)
            for template, values in VARIED:
                for text in _texts(template, values):
                    assert _outcome(execute_sql, cached_db, text) == _outcome(
                        _fresh, fresh_db, text), (step, text)
        snapshot = cached_db.metrics.snapshot()
        assert snapshot["repro_sql_statement_cache_shape_hits_total"] >= len(HISTORY)

    def test_varied_literals_over_a_probed_table(self):
        """Tables large enough that ``col = c`` and two bounds probe a
        column lookup: row, partitioned and columnar storage."""
        cached_db, fresh_db = Database(), Database()
        for db in (cached_db, fresh_db):
            execute_script(db, """
                CREATE TABLE R (k, v);
                CREATE TABLE P (k, v) PARTITION BY HASH (k) PARTITIONS 3;
                CREATE TABLE C (k, v) LAYOUT COLUMNAR;
            """)
            rows = ", ".join(f"({i % 25}, {i})" for i in range(150))
            for name in ("R", "P", "C"):
                execute_sql(db, f"INSERT INTO {name} VALUES {rows} EXPIRES IN 9")
                execute_sql(db, f"INSERT INTO {name} VALUES ('k', 1) EXPIRES IN 4")
        for name in ("R", "P", "C"):
            for template, values in [
                (f"SELECT k, v FROM {name} WHERE k = {{}}", [3, 4, 24, 30, 3.0, "'k'"]),
                (f"SELECT v FROM {name} WHERE k >= {{}} AND k < {{}}",
                 [(3, 9), (0, 25), (9, 3), (2.5, 4.5), ("'a'", "'z'")]),
                (f"SELECT k FROM {name} WHERE {{}} > k", [5, 1]),
            ]:
                for text in _texts(template, values) * 2:
                    assert _outcome(execute_sql, cached_db, text) == _outcome(
                        _fresh, fresh_db, text), text
        assert cached_db.metrics.snapshot()[
            "repro_eval_lookup_probes_total{engine=\"compiled\"}"] > 0

    def test_int_and_str_literals_never_share_a_plan(self):
        db = Database()
        execute_sql(db, "CREATE TABLE T (k)")
        execute_sql(db, "INSERT INTO T VALUES (1), ('a'), ('1'), (2) EXPIRES AT 9")
        texts = {"SELECT k FROM T WHERE k = 1": [(1,)],
                 "SELECT k FROM T WHERE k = 'a'": [("a",)],
                 "SELECT k FROM T WHERE k = '1'": [("1",)],
                 "SELECT k FROM T WHERE k = 2": [(2,)]}
        for text, rows in texts.items():
            assert execute_sql(db, text).rows == rows
        snapshot = db.metrics.snapshot()
        assert snapshot["repro_sql_statement_cache_shape_hits_total"] == 2
        assert snapshot["repro_plan_cache_compilations_total"] == 2
        kinds = {}  # template -> the types of the constants bound to it
        for expression, entry in db.plan_cache.entries():
            template = repr(template_of(expression)[0])
            kinds.setdefault(template, set()).update(map(type, entry.plan.constants))
        assert sorted(sorted(kind.__name__ for kind in types)
                      for types in kinds.values()) == [["int"], ["str"]]

    def test_ddl_empties_the_text_and_the_shape_level(self):
        db = Database()
        execute_sql(db, "CREATE TABLE T (k)")
        for text in ("SELECT k FROM T WHERE k = 1", "SELECT k FROM T WHERE k = 2"):
            execute_sql(db, text)
        hits = "repro_sql_statement_cache_shape_hits_total"
        assert db.metrics.snapshot()[hits] == 1
        execute_sql(db, "CREATE TABLE U (k)")
        execute_sql(db, "SELECT k FROM T WHERE k = 3")  # a new generation
        assert db.metrics.snapshot()[hits] == 1
        assert len(db.statement_cache) == 1
        execute_sql(db, "SELECT k FROM T WHERE k = 4")
        assert db.metrics.snapshot()[hits] == 2

    def test_dml_and_scripts_record_no_shape(self):
        db = Database()
        execute_sql(db, "CREATE TABLE T (k)")
        for i in range(3):
            execute_sql(db, f"INSERT INTO T VALUES ({i}) EXPIRES AT 9")
            execute_script(db, f"SELECT k FROM T WHERE k = {i}; SELECT k FROM T")
        assert db.statement_cache._shapes == {}
        assert db.metrics.snapshot()["repro_sql_statement_cache_shape_hits_total"] == 0
