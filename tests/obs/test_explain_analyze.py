"""EXPLAIN ANALYZE: span trees with per-operator rows.

A database evaluates through the compiled path; the reference interpreter
hangs the same operator spans off a span handed to it directly, and the
two tree shapes are pinned side by side.
"""

import re

import pytest

from repro.core.algebra.evaluator import Evaluator
from repro.core.algebra.predicates import col
from repro.engine.database import Database
from repro.sql import execute_sql


def make_db():
    database = Database()
    execute_sql(database, "CREATE TABLE Pol (uid, deg)")
    execute_sql(database, "CREATE TABLE El (uid)")
    for uid, deg, texp in [(1, 25, 10), (2, 25, 15), (3, 35, 10), (4, 25, 20)]:
        execute_sql(database, f"INSERT INTO Pol VALUES ({uid}, {deg}) EXPIRES AT {texp}")
    execute_sql(database, "INSERT INTO El VALUES (1) EXPIRES AT 8")
    return database


# Single-valued: keeps the ``[compiled]`` ids these cases have always had.
@pytest.fixture(params=["compiled"])
def db(request):
    return make_db()


QUERY = "SELECT uid FROM Pol WHERE deg = 25 EXCEPT SELECT uid FROM El"


@pytest.fixture(params=["compiled", "interpreted"])
def traced(request):
    """``(evaluator, span tree)`` of :data:`QUERY` under either evaluator."""
    database = make_db()
    if request.param == "compiled":
        execute_sql(database, f"EXPLAIN ANALYZE {QUERY}")
        return request.param, database.trace_last_query()
    expression = (
        database.table_expr("Pol").select(col("deg") == 25).project("uid")
        .difference(database.table_expr("El").project("uid"))
    )
    root = database.tracer.root("evaluate").start()
    evaluator = Evaluator(database.catalog, database.now, trace=root)
    result = evaluator.evaluate(expression)
    root.finish().note(
        rows=len(result.relation),
        tuples_scanned=evaluator.stats.tuples_scanned,
    )
    return request.param, root


class TestExplainAnalyze:
    def test_message_contains_span_tree(self, db):
        message = execute_sql(db, f"EXPLAIN ANALYZE {QUERY}").message
        assert "analyze:" in message
        for operator in ("evaluate", "Difference", "Select", "BaseRef(Pol)"):
            assert operator in message, operator
        # Every span line carries a wall time.
        assert re.search(r"evaluate .*\(\d+\.\d{3} ms\)", message)

    def test_golden_tree_shape(self, traced):
        """The structural rendering (timings masked) is stable per engine."""
        engine, tree = traced
        lines = tree.render(timings=False).splitlines()
        # Drop per-run attributes, keep names + nesting.
        shape = [re.sub(r" \[.*\]$", "", line) for line in lines]
        expected = {
            "compiled": [
                "evaluate",
                "  compile",
                "  Difference",
                "    Project",
                "      Select",
                "        BaseRef(Pol)",
                "    Project",
                "      BaseRef(El)",
            ],
            "interpreted": [
                "evaluate",
                "  Difference",
                "    Project",
                "      Select",
                "        BaseRef(Pol)",
                "    Project",
                "      BaseRef(El)",
            ],
        }
        assert shape == expected[engine]

    def test_per_operator_rows_and_tuple_counts(self, traced):
        _, tree = traced
        base = tree.find("BaseRef(Pol)")
        assert base.attrs["rows"] == 4
        select = tree.find("Select")
        assert select.attrs["rows"] == 3
        assert tree.find("Difference").attrs["rows"] == 2
        assert tree.attrs["rows"] == 2
        assert tree.attrs["tuples_scanned"] > 0

    def test_plain_explain_has_no_tree(self, db):
        message = execute_sql(db, f"EXPLAIN {QUERY}").message
        assert "analyze:" not in message
        assert "plan:" in message

    def test_analyze_does_not_pollute_cache_counters(self, db):
        before = db.plan_cache.stats
        execute_sql(db, f"EXPLAIN ANALYZE {QUERY}")
        after = db.plan_cache.stats
        assert after.hits == before.hits
        assert after.misses == before.misses

    def test_analyze_repeats_execute_for_real(self, db):
        """A second ANALYZE still shows real per-operator execution."""
        execute_sql(db, f"EXPLAIN ANALYZE {QUERY}")
        first = db.trace_last_query()
        execute_sql(db, f"EXPLAIN ANALYZE {QUERY}")
        second = db.trace_last_query()
        assert second is not first
        assert second.find("BaseRef(Pol)").attrs["rows"] == 4


class TestTraceApi:
    def test_evaluate_trace_flag(self, db):
        expr = db.table_expr("Pol").project(2)
        result = db.evaluate(expr, trace=True)
        tree = db.trace_last_query()
        assert tree.name == "evaluate"
        assert tree.attrs["engine"] == "compiled"
        assert tree.attrs["rows"] == len(result.relation)
        assert tree.find("BaseRef(Pol)") is not None

    def test_untraced_evaluate_keeps_last(self, db):
        expr = db.table_expr("Pol").project(2)
        db.evaluate(expr, trace=True)
        tree = db.trace_last_query()
        db.evaluate(expr)
        assert db.trace_last_query() is tree

    def test_global_tracer_enable(self, db):
        db.tracer.enable()
        db.evaluate(db.table_expr("Pol").project(1))
        assert db.trace_last_query() is not None
        db.tracer.disable()

    def test_error_during_traced_evaluation_closes_span(self, db):
        from repro.core.algebra.expressions import BaseRef
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            db.evaluate(BaseRef("Missing"), trace=True)
        # The root span was finished despite the error.
        tree = db.trace_last_query()
        assert tree is not None
        assert tree._started is None
