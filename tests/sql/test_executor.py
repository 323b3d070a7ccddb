"""End-to-end SQL tests, including the paper's figures driven via SQL."""

import asyncio

import pytest

from repro.core.timestamps import ts
from repro.engine.database import Database
from repro.engine.views import MaintenancePolicy
from repro.errors import SqlPlanError
from repro.sql import execute_script, execute_sql


@pytest.fixture
def db():
    database = Database()
    execute_script(
        database,
        """
        CREATE TABLE Pol (uid, deg);
        CREATE TABLE El (uid, deg);
        INSERT INTO Pol VALUES (1, 25) EXPIRES AT 10;
        INSERT INTO Pol VALUES (2, 25) EXPIRES AT 15;
        INSERT INTO Pol VALUES (3, 35) EXPIRES AT 10;
        INSERT INTO El VALUES (1, 75) EXPIRES AT 5;
        INSERT INTO El VALUES (2, 85) EXPIRES AT 3;
        INSERT INTO El VALUES (4, 90) EXPIRES AT 2;
        """,
    )
    return database


class TestDdlDml:
    def test_create_show(self, db):
        assert execute_sql(db, "SHOW TABLES").names == ("El", "Pol")

    def test_insert_rowcount(self, db):
        result = execute_sql(db, "INSERT INTO Pol VALUES (7, 5), (8, 5) EXPIRES IN 3")
        assert result.rowcount == 2

    def test_ttl_relative_to_now(self, db):
        execute_sql(db, "ADVANCE TO 4")
        execute_sql(db, "INSERT INTO Pol VALUES (9, 5) EXPIRES IN 3")
        assert db.table("Pol").relation.expiration_of((9, 5)) == 7

    def test_delete_where(self, db):
        result = execute_sql(db, "DELETE FROM Pol WHERE deg = 25")
        assert result.rowcount == 2
        assert db.statistics.explicit_deletes == 2

    def test_delete_all(self, db):
        assert execute_sql(db, "DELETE FROM El").rowcount == 3

    def test_drop_table(self, db):
        execute_sql(db, "DROP TABLE El")
        assert execute_sql(db, "SHOW TABLES").names == ("Pol",)

    def test_vacuum(self, db):
        # Default removal is eager, so vacuum finds nothing extra.
        assert execute_sql(db, "VACUUM").rowcount == 0


class TestQueries:
    def test_projection_figure_2c(self, db):
        rows = sorted(execute_sql(db, "SELECT deg FROM Pol").relation.rows())
        assert rows == [(25,), (35,)]

    def test_selection(self, db):
        rows = sorted(execute_sql(db, "SELECT uid FROM Pol WHERE deg = 25").relation.rows())
        assert rows == [(1,), (2,)]

    def test_comparison_operators(self, db):
        rows = execute_sql(db, "SELECT uid FROM El WHERE deg >= 85").relation
        assert sorted(rows.rows()) == [(2,), (4,)]

    def test_join_figure_2e(self, db):
        result = execute_sql(
            db,
            "SELECT * FROM Pol AS P JOIN El AS E ON P.uid = E.uid"
        ).relation
        assert sorted(result.rows()) == [(1, 25, 1, 75), (2, 25, 2, 85)]

    def test_join_projection_with_qualified_columns(self, db):
        result = execute_sql(
            db,
            "SELECT P.deg, E.deg FROM Pol AS P JOIN El AS E ON P.uid = E.uid"
        ).relation
        assert sorted(result.rows()) == [(25, 75), (25, 85)]

    def test_except_figure_3b(self, db):
        rows = execute_sql(db, "SELECT uid FROM Pol EXCEPT SELECT uid FROM El").relation
        assert sorted(rows.rows()) == [(3,)]

    def test_union(self, db):
        rows = execute_sql(db, "SELECT uid FROM Pol UNION SELECT uid FROM El").relation
        assert sorted(rows.rows()) == [(1,), (2,), (3,), (4,)]

    def test_intersect(self, db):
        rows = execute_sql(db, "SELECT uid FROM Pol INTERSECT SELECT uid FROM El").relation
        assert sorted(rows.rows()) == [(1,), (2,)]

    def test_group_by_count_figure_3a(self, db):
        rows = execute_sql(
            db,
            "SELECT deg, COUNT(*) FROM Pol GROUP BY deg WITH STRATEGY conservative"
        ).relation
        assert sorted(rows.rows()) == [(25, 2), (35, 1)]

    def test_aggregate_without_group_by(self, db):
        rows = execute_sql(db, "SELECT COUNT(*) FROM Pol").relation
        assert list(rows.rows()) == [(3,)]

    def test_min_max_sum(self, db):
        assert list(execute_sql(db, "SELECT MIN(deg) FROM El").relation.rows()) == [(75,)]
        assert list(execute_sql(db, "SELECT MAX(deg) FROM El").relation.rows()) == [(90,)]
        assert list(execute_sql(db, "SELECT SUM(deg) FROM El").relation.rows()) == [(250,)]

    def test_multiple_aggregates(self, db):
        rows = execute_sql(
            db,
            "SELECT deg, COUNT(*), MIN(uid) FROM Pol GROUP BY deg"
        ).relation
        assert sorted(rows.rows()) == [(25, 2, 1), (35, 1, 3)]

    def test_time_advances_affect_queries(self, db):
        execute_sql(db, "ADVANCE TO 10")
        assert sorted(execute_sql(db, "SELECT deg FROM Pol").relation.rows()) == [(25,)]

    def test_expired_tuples_invisible_before_advance(self, db):
        # Evaluation always applies exp_τ at the current time; the clock
        # governs visibility, not physical removal.
        rows = execute_sql(db, "SELECT uid FROM El").relation
        assert sorted(rows.rows()) == [(1,), (2,), (4,)]

    def test_ambiguous_column_rejected(self, db):
        with pytest.raises(SqlPlanError):
            execute_sql(db, "SELECT uid FROM Pol AS P JOIN El AS E ON P.uid = E.uid WHERE deg = 25")

    def test_unknown_column(self, db):
        with pytest.raises(SqlPlanError):
            execute_sql(db, "SELECT nope FROM Pol")

    def test_nongrouped_column_rejected(self, db):
        with pytest.raises(SqlPlanError):
            execute_sql(db, "SELECT uid, COUNT(*) FROM Pol GROUP BY deg")

    @pytest.mark.parametrize("text", [
        "SELECT uid FROM Pol WITH STRATEGY nope",
        "SELECT uid FROM Pol UNION SELECT uid FROM El WITH STRATEGY nope",
        "SELECT deg, COUNT(*) FROM Pol GROUP BY deg WITH STRATEGY nope",
    ])
    def test_unknown_strategy_rejected_with_or_without_group_by(self, db, text):
        with pytest.raises(SqlPlanError, match="unknown strategy 'nope'; known: "):
            execute_sql(db, text)

    def test_known_strategy_accepted_without_group_by(self, db):
        rows = execute_sql(db, "SELECT uid FROM Pol WITH STRATEGY neutral").relation
        assert sorted(rows.rows()) == [(1,), (2,), (3,)]


class TestClock:
    def test_advance_by_zero_keeps_the_clock_and_logs_nothing(self, tmp_path):
        db = Database(wal_dir=tmp_path, wal_fsync="never")
        execute_sql(db, "ADVANCE TO 3")
        assert execute_sql(db, "ADVANCE BY 0").message == "now = 3"
        assert db.now == ts(3)
        clock = [r for r in db.wal.records() if r["kind"] == "clock"]
        assert [r["now"] for r in clock] == [3]
        execute_sql(db, "TICK")
        assert db.now == ts(4)

    def test_advance_by_zero_over_a_served_session(self):
        from repro.server.client import connect
        from repro.server.server import ReproServer

        async def scenario():
            server = ReproServer()
            host, port = await server.start()

            def sync_part():
                with connect(f"repro://{host}:{port}") as session:
                    session.execute("ADVANCE TO 5")
                    assert session.execute("ADVANCE BY 0").now == ts(5)

            try:
                await asyncio.to_thread(sync_part)
            finally:
                await server.stop()
            assert server.db.now == ts(5)

        asyncio.run(scenario())


class TestViews:
    def test_create_and_query_view(self, db):
        execute_sql(db, "CREATE MATERIALIZED VIEW interests AS SELECT deg FROM Pol")
        assert db.view("interests").is_monotonic
        rows = execute_sql(db, "SELECT * FROM interests").relation
        assert sorted(rows.rows()) == [(25,), (35,)]

    def test_view_policy(self, db):
        execute_sql(
            db,
            "CREATE MATERIALIZED VIEW d AS "
            "SELECT uid FROM Pol EXCEPT SELECT uid FROM El "
            "WITH POLICY PATCH"
        )
        assert db.view("d").policy is MaintenancePolicy.PATCH

    def test_view_inlining_keeps_results_fresh(self, db):
        execute_sql(db, "CREATE MATERIALIZED VIEW interests AS SELECT deg FROM Pol")
        execute_sql(db, "ADVANCE TO 10")
        rows = execute_sql(db, "SELECT * FROM interests").relation
        assert sorted(rows.rows()) == [(25,)]

    def test_drop_view(self, db):
        execute_sql(db, "CREATE MATERIALIZED VIEW v AS SELECT deg FROM Pol")
        execute_sql(db, "DROP VIEW v")
        assert execute_sql(db, "SHOW VIEWS").names == ()


class TestScripts:
    def test_execute_script_results(self, db):
        results = execute_script(db, "SELECT uid FROM Pol; SELECT uid FROM El")
        assert len(results) == 2
        assert results[0].rowcount == 3

    def test_execute_sql_rejects_scripts(self, db):
        with pytest.raises(SqlPlanError):
            execute_sql(db, "TICK; TICK")

    def test_string_literals_roundtrip(self):
        database = Database()
        execute_script(
            database,
            "CREATE TABLE t (name, v); INSERT INTO t VALUES ('it''s', 1)",
        )
        rows = execute_sql(database, "SELECT name FROM t WHERE name = 'it''s'").relation
        assert list(rows.rows()) == [("it's",)]
