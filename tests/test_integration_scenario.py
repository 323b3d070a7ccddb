"""A full-stack story test: the news service, end to end.

Drives every layer in one scenario -- SQL DDL/DML, triggers, all three
view policies, the Section 3.1 select push-down, offline answering by
moving a query back to a valid time, a snapshot/restore, and shipping a
difference view to a remote client -- asserting cross-layer consistency
at each step.  If a refactor breaks the glue between two subsystems, this
is the test that notices.
"""

import pytest

from repro.core.validity import QueryAnswerer, QueryPolicy
from repro.distributed import (
    DifferenceViewSimulation,
    Link,
    ViewMaintenanceStrategy,
)
from repro.engine.database import Database
from repro.engine.persistence import database_from_dict, database_to_dict
from repro.engine.views import MaintenancePolicy
from repro.core.algebra.predicates import col
from repro.errors import RelationError
from repro.sql import execute_script, execute_sql


@pytest.fixture
def service():
    db = Database()
    execute_script(
        db,
        """
        CREATE TABLE Pol (uid, deg);
        CREATE TABLE El (uid, deg);
        INSERT INTO Pol VALUES (1, 25) EXPIRES AT 40;
        INSERT INTO Pol VALUES (2, 25) EXPIRES AT 60;
        INSERT INTO Pol VALUES (3, 35) EXPIRES AT 40;
        INSERT INTO Pol VALUES (4, 55) EXPIRES AT 80;
        INSERT INTO El VALUES (1, 75) EXPIRES AT 20;
        INSERT INTO El VALUES (2, 85) EXPIRES AT 12;
        INSERT INTO El VALUES (5, 90) EXPIRES AT 8;
        """,
    )
    return db


class TestNewsServiceStory:
    def test_full_lifecycle(self, service):
        db = service

        # Triggers participate from the start; a refused write leaves
        # nothing behind.
        renewals = []
        db.table("Pol").triggers.register(
            "renewal", lambda event: renewals.append(event.tuple.row[0])
        )
        with pytest.raises(RelationError):
            db.table("Pol").insert((9, 25), expires_at=0)
        assert len(db.table("Pol")) == 4

        # Three views over the same data, three policies.
        watch_expr = db.table_expr("Pol").project(1).difference(
            db.table_expr("El").project(1)
        )
        patched = db.materialise("watch_patch", watch_expr,
                                 policy=MaintenancePolicy.PATCH)
        schro = db.materialise("watch_schro", watch_expr,
                               policy=MaintenancePolicy.SCHRODINGER)
        execute_sql(
            db,
            "CREATE MATERIALIZED VIEW hist AS "
            "SELECT deg, COUNT(*) FROM Pol GROUP BY deg WITH POLICY RECOMPUTE"
        )
        hist = db.view("hist")

        # Section 3.1: pushing a selection into a difference keeps the
        # tuples and never brings texp(e) forward.
        from repro.core.algebra.expressions import Difference, Select

        pol, el, p = db.table_expr("Pol"), db.table_expr("El"), col(2) == 25
        before = db.evaluate(Select(Difference(pol, el), p))
        after = db.evaluate(Difference(Select(pol, p), Select(el, p)))
        assert before.relation.same_content(after.relation)
        assert before.expiration <= after.expiration

        # March time forward; every view answers like a recomputation.
        for when in (5, 8, 12, 20, 40, 60, 80):
            db.advance_to(when)
            truth_watch = set(db.evaluate(watch_expr).relation.rows())
            assert set(patched.read().rows()) == truth_watch
            assert set(schro.read().rows()) == truth_watch
            truth_hist = set(
                execute_sql(db, "SELECT deg, COUNT(*) FROM Pol GROUP BY deg").relation.rows()
            )
            assert set(hist.read().rows()) == truth_hist
        assert patched.recomputations == 0
        assert renewals  # the expired profiles asked for renewal

        # Expiration did all deletion work.
        assert db.statistics.explicit_deletes == 0

    def test_snapshot_restore_preserves_behaviour(self, service):
        db = service
        expr = db.table_expr("Pol").project(1).difference(
            db.table_expr("El").project(1)
        )
        db.materialise("watch", expr, policy=MaintenancePolicy.PATCH)
        db.advance_to(10)

        restored = database_from_dict(database_to_dict(db))
        for when in (10, 12, 20, 40, 60):
            db.advance_to(when)
            restored.advance_to(when)
            original_rows = set(db.view("watch").read().rows())
            restored_rows = set(restored.view("watch").read().rows())
            assert original_rows == restored_rows

    def test_remote_client_with_qos(self, service):
        db = service
        left = db.table("Pol").relation.copy()
        right = db.table("El").relation.copy()
        # project both sides to uid for a union-compatible difference
        from repro.core.relation import relation_from_rows

        left1 = relation_from_rows(["uid"], [(r[:1], t) for r, t in left.items()])
        right1 = relation_from_rows(["uid"], [(r[:1], t) for r, t in right.items()])

        # Ship the view with patches: perfect, silent client.
        sim = DifferenceViewSimulation(
            left1.copy(), right1.copy(), list(range(0, 90, 4)),
            ViewMaintenanceStrategy.PATCH, link=Link(latency=3),
        )
        report = sim.run()
        assert report.consistency == 1.0
        assert report.recompute_requests == 0

        # The same materialisation answered locally, offline: a time
        # outside its validity set moves back to the nearest valid one.
        from repro.core.algebra.expressions import Literal

        expr = Literal(left1).difference(Literal(right1))
        from repro.core.algebra.evaluator import evaluate

        materialised = evaluate(expr, {}, tau=0)
        answerer = QueryAnswerer(
            expr, {}, materialised, QueryPolicy.MOVE_BACKWARD
        )
        for when in range(0, 90, 5):
            answer = answerer.answer(when)
            truth = evaluate(expr, {}, tau=answer.effective_time)
            assert set(answer.relation.rows()) == set(truth.relation.rows())
            assert answer.effective_time.value <= when
        assert answerer.recomputations == 0

    def test_incremental_view_with_live_sql_traffic(self, service):
        db = service
        expr = db.table_expr("Pol").difference(db.table_expr("El"))
        view = db.materialise("live_watch", expr, policy=MaintenancePolicy.DELTA)
        execute_sql(db, "INSERT INTO Pol VALUES (7, 45) EXPIRES AT 70")
        execute_sql(db, "INSERT INTO El VALUES (7, 45) EXPIRES AT 30")
        # note: El rows are (uid, deg); the difference matches whole rows,
        # so only identical tuples shadow each other.
        for when in (0, 10, 30, 50, 70):
            db.advance_to(when)
            assert set(view.read().rows()) == set(
                db.evaluate(expr).relation.rows()
            )
