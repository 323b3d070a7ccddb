"""Tests for the SQL dialect extensions: HAVING, ORDER BY / LIMIT,
[NOT] IN subqueries, RENEW, DESCRIBE."""

import pytest

from repro.core.intervals import IntervalSet
from repro.core.timestamps import ts
from repro.engine.database import Database
from repro.errors import SqlParseError, SqlPlanError
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
        INSERT INTO Pol VALUES (4, 35) EXPIRES AT 12;
        INSERT INTO Pol VALUES (5, 45) EXPIRES AT 12;
        INSERT INTO El VALUES (1, 75) EXPIRES AT 5;
        INSERT INTO El VALUES (2, 85) EXPIRES AT 3;
        """,
    )
    return database


class TestHaving:
    def test_filters_groups(self, db):
        result = execute_sql(
            db,
            "SELECT deg, COUNT(*) FROM Pol GROUP BY deg HAVING COUNT(*) > 1"
        )
        assert sorted(result.relation.rows()) == [(25, 2), (35, 2)]

    def test_on_group_column(self, db):
        result = execute_sql(
            db,
            "SELECT deg, COUNT(*) FROM Pol GROUP BY deg HAVING deg >= 35"
        )
        assert sorted(result.relation.rows()) == [(35, 2), (45, 1)]

    def test_with_alias(self, db):
        result = execute_sql(
            db,
            "SELECT deg, COUNT(*) AS n FROM Pol GROUP BY deg HAVING n = 1"
        )
        assert sorted(result.relation.rows()) == [(45, 1)]

    def test_combined_conditions(self, db):
        result = execute_sql(
            db,
            "SELECT deg, COUNT(*) FROM Pol GROUP BY deg "
            "HAVING COUNT(*) > 1 AND deg < 30"
        )
        assert sorted(result.relation.rows()) == [(25, 2)]

    def test_requires_grouping(self, db):
        with pytest.raises(SqlPlanError):
            execute_sql(db, "SELECT deg FROM Pol HAVING deg > 1")

    def test_aggregate_must_be_in_select_list(self, db):
        with pytest.raises(SqlPlanError):
            execute_sql(db, "SELECT deg, COUNT(*) FROM Pol GROUP BY deg HAVING MIN(uid) = 1")

    def test_aggregate_outside_having_rejected(self, db):
        with pytest.raises(SqlPlanError):
            execute_sql(db, "SELECT deg FROM Pol WHERE COUNT(*) > 1")


class TestOrderByLimit:
    def test_order_desc(self, db):
        result = execute_sql(db, "SELECT uid, deg FROM Pol ORDER BY deg DESC, uid ASC")
        assert result.rows == [(5, 45), (3, 35), (4, 35), (1, 25), (2, 25)]

    def test_limit(self, db):
        result = execute_sql(db, "SELECT uid FROM Pol ORDER BY uid LIMIT 2")
        assert result.rows == [(1,), (2,)]
        # The underlying relation is the full set-semantics result.
        assert len(result.relation) == 5

    def test_limit_without_order(self, db):
        result = execute_sql(db, "SELECT uid FROM Pol LIMIT 3")
        assert len(result.rows) == 3

    def test_default_presentation_is_deterministic(self, db):
        first = execute_sql(db, "SELECT uid FROM Pol").rows
        second = execute_sql(db, "SELECT uid FROM Pol").rows
        assert first == second

    def test_order_by_unknown_column(self, db):
        with pytest.raises(SqlPlanError):
            execute_sql(db, "SELECT uid FROM Pol ORDER BY deg")

    def test_rejected_in_set_operations(self, db):
        with pytest.raises(SqlPlanError):
            execute_sql(
                db,
                "SELECT uid FROM Pol ORDER BY uid "
                "EXCEPT SELECT uid FROM El"
            )


class TestInSubqueries:
    def test_in_plans_to_semijoin(self, db):
        result = execute_sql(
            db,
            "SELECT uid, deg FROM Pol WHERE uid IN (SELECT uid FROM El)"
        )
        assert sorted(result.relation.rows()) == [(1, 25), (2, 25)]

    def test_not_in_plans_to_antijoin(self, db):
        result = execute_sql(
            db,
            "SELECT uid, deg FROM Pol WHERE uid NOT IN (SELECT uid FROM El)"
        )
        assert sorted(result.relation.rows()) == [(3, 35), (4, 35), (5, 45)]

    def test_not_in_reappearance_over_time(self, db):
        sql = "SELECT uid FROM Pol WHERE uid NOT IN (SELECT uid FROM El)"
        execute_sql(db, "ADVANCE TO 5")  # both El matches expired
        assert sorted(execute_sql(db, sql).relation.rows()) == [(1,), (2,), (3,), (4,), (5,)]

    def test_combined_with_plain_predicate(self, db):
        result = execute_sql(
            db,
            "SELECT uid FROM Pol WHERE deg = 35 AND uid NOT IN (SELECT uid FROM El)"
        )
        assert sorted(result.relation.rows()) == [(3,), (4,)]

    def test_subquery_with_where(self, db):
        result = execute_sql(
            db,
            "SELECT uid FROM Pol WHERE uid IN (SELECT uid FROM El WHERE deg > 80)"
        )
        assert sorted(result.relation.rows()) == [(2,)]

    def test_in_under_or_rejected(self, db):
        with pytest.raises(SqlPlanError):
            execute_sql(
                db,
                "SELECT uid FROM Pol WHERE deg = 25 OR uid IN (SELECT uid FROM El)"
            )

    def test_multicolumn_subquery_rejected(self, db):
        with pytest.raises(SqlPlanError):
            execute_sql(db, "SELECT uid FROM Pol WHERE uid IN (SELECT uid, deg FROM El)")


class TestInsertSelect:
    def test_carries_derived_expirations(self, db):
        execute_sql(db, "CREATE TABLE Hot (deg)")
        execute_sql(db, "INSERT INTO Hot SELECT deg FROM Pol")
        # The <25> tuple merged duplicates @10 and @15 -> derived texp 15.
        assert db.table("Hot").relation.expiration_of((25,)) == ts(15)
        assert db.table("Hot").relation.expiration_of((45,)) == ts(12)

    def test_explicit_expires_overrides(self, db):
        execute_sql(db, "CREATE TABLE Hot (deg)")
        execute_sql(db, "INSERT INTO Hot SELECT deg FROM Pol EXPIRES AT 99")
        assert db.table("Hot").relation.expiration_of((25,)) == ts(99)

    def test_join_min_expirations_carried(self, db):
        execute_sql(db, "CREATE TABLE Pairs (p_uid, p_deg, e_uid, e_deg)")
        execute_sql(db, "INSERT INTO Pairs SELECT * FROM Pol AS P JOIN El AS E "
               "ON P.uid = E.uid")
        # Join tuples carry min of their parents: uid1 -> min(10, 5) = 5.
        assert db.table("Pairs").relation.expiration_of((1, 25, 1, 75)) == ts(5)

    def test_arity_mismatch_rejected(self, db):
        execute_sql(db, "CREATE TABLE Hot (deg)")
        with pytest.raises(SqlPlanError):
            execute_sql(db, "INSERT INTO Hot SELECT uid, deg FROM Pol")

    def test_outer_join_rejected_explicitly(self, db):
        from repro.errors import UnsupportedSqlError

        with pytest.raises(UnsupportedSqlError):
            execute_sql(db, "SELECT * FROM Pol LEFT JOIN El ON uid = uid")


class TestCreateTableAsSelect:
    def test_schema_and_rows_derived(self, db):
        execute_sql(db, "CREATE TABLE Hot AS SELECT uid, deg FROM Pol WHERE deg = 25")
        hot = db.table("Hot")
        assert hot.schema.names == ("uid", "deg")
        assert sorted(hot.read().rows()) == [(1, 25), (2, 25)]

    def test_expirations_carried(self, db):
        execute_sql(db, "CREATE TABLE Hot AS SELECT deg FROM Pol")
        assert db.table("Hot").relation.expiration_of((25,)) == ts(15)

    def test_from_set_operation(self, db):
        execute_sql(db, "CREATE TABLE W AS SELECT uid FROM Pol EXCEPT SELECT uid FROM El")
        assert sorted(db.table("W").read().rows()) == [(3,), (4,), (5,)]

    def test_duplicate_name_rejected(self, db):
        with pytest.raises(Exception):
            execute_sql(db, "CREATE TABLE Pol AS SELECT uid FROM El")


class TestRenew:
    def test_renew_extends_lifetimes(self, db):
        result = execute_sql(db, "RENEW Pol EXPIRES IN 50 WHERE deg = 25")
        assert result.rowcount == 2
        assert db.table("Pol").relation.expiration_of((1, 25)) == ts(50)
        assert db.table("Pol").relation.expiration_of((2, 25)) == ts(50)

    def test_renew_never_shortens(self, db):
        execute_sql(db, "RENEW Pol EXPIRES AT 1 WHERE uid = 2")
        # Max-merge: 15 > 1, the old expiration wins.
        assert db.table("Pol").relation.expiration_of((2, 25)) == ts(15)

    def test_renew_all(self, db):
        assert execute_sql(db, "RENEW Pol EXPIRES AT 99").rowcount == 5

    def test_renew_skips_expired(self, db):
        execute_sql(db, "ADVANCE TO 10")
        result = execute_sql(db, "RENEW Pol EXPIRES AT 99")
        assert result.rowcount == 3  # only uids 2, 4, 5 are still alive

    def test_renew_requires_expires(self, db):
        with pytest.raises(SqlParseError):
            execute_sql(db, "RENEW Pol")


class TestExplain:
    def test_explains_difference(self, db):
        message = execute_sql(
            db,
            "EXPLAIN SELECT uid FROM Pol EXCEPT SELECT uid FROM El"
        ).message
        assert "non_monotonic" in message
        assert "texp(e):    3" in message
        assert "valid in:" in message

    def test_explains_monotonic(self, db):
        message = execute_sql(db, "EXPLAIN SELECT deg FROM Pol").message
        assert "class:      monotonic" in message
        assert "texp(e):    inf" in message

    def test_prints_one_plan(self, db):
        message = execute_sql(
            db,
            "EXPLAIN SELECT uid FROM Pol WHERE deg = 25 "
            "EXCEPT SELECT uid FROM El"
        ).message
        assert [line for line in message.splitlines()
                if line.startswith("plan:")] == [
            "plan:       (π[1](σ[(col(2) = val(25))](Pol)) − π[1](El))"]
        assert "rewritten" not in message

    def test_describes_the_plan_the_select_runs(self):
        """``σ_p`` over a difference view: the statement evaluates
        ``σ_p(R − S)``, and EXPLAIN's ``texp(e)`` and ``I(e)`` are that
        plan's, not those of ``σ_p(R) − σ_p(S)`` (20, ``[0, 20) ∪ [50, ∞)``
        here: the critical tuple the selection drops expires first)."""
        db = Database()
        execute_script(db, """
            CREATE TABLE R (k, v);
            CREATE TABLE S (k, v);
            INSERT INTO R VALUES (1, 1), (2, 2) EXPIRES AT 50;
            INSERT INTO S VALUES (1, 1) EXPIRES AT 20;
            INSERT INTO S VALUES (2, 2) EXPIRES AT 10;
            CREATE MATERIALIZED VIEW d AS SELECT * FROM R EXCEPT SELECT * FROM S;
        """)
        query = "SELECT * FROM d WHERE v = 1"
        execute_sql(db, query)
        _, plan = db.statement_cache.get(query, db.schema_version)
        ran = db.evaluate(plan)
        assert (ran.expiration, ran.validity) == (
            ts(10), IntervalSet.from_pairs([(0, 10), (50, None)]))
        message = execute_sql(db, f"EXPLAIN {query}").message
        assert f"plan:       {plan!r}" in message
        assert f"texp(e):    {ran.expiration}" in message
        assert f"valid in:   {ran.validity!r}" in message


class TestDescribe:
    def test_table(self, db):
        result = execute_sql(db, "DESCRIBE Pol")
        assert "uid, deg" in result.message
        assert "5 live" in result.message
        assert result.names == ("uid", "deg")

    def test_view(self, db):
        execute_sql(db, "CREATE MATERIALIZED VIEW v AS SELECT uid FROM Pol EXCEPT "
               "SELECT uid FROM El WITH POLICY PATCH")
        result = execute_sql(db, "DESCRIBE v")
        assert "policy=patch" in result.message
        assert "monotonic=False" in result.message
        assert "texp(e)=inf" in result.message

    def test_unknown(self, db):
        with pytest.raises(SqlPlanError):
            execute_sql(db, "DESCRIBE nothing")
