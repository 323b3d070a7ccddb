"""Tests for incremental view maintenance under base inserts (§5 extension)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import ExpirationStrategy
from repro.core.algebra.expressions import BaseRef
from repro.core.algebra.predicates import col
from repro.engine.database import Database
from repro.engine.maintenance import IncrementalView, supports_incremental
from repro.engine.views import MaintenancePolicy
from repro.errors import ViewError


def fresh(db, expression, at=None):
    return set(db.evaluate(expression, at=at).relation.rows())


@pytest.fixture
def db():
    database = Database()
    database.create_table("R", ["k", "v"])
    database.create_table("S", ["k", "v"])
    return database


class TestSupport:
    def test_monotonic_linear(self, db):
        assert supports_incremental(db.table_expr("R").project(1))
        assert supports_incremental(
            db.table_expr("R").join(db.table_expr("S"), on=[(1, 1)])
        )

    def test_nonlinear_rejected(self, db):
        expr = db.table_expr("R").join(db.table_expr("R"), on=[(1, 1)])
        assert not supports_incremental(expr)

    def test_difference_disjoint(self, db):
        assert supports_incremental(
            db.table_expr("R").difference(db.table_expr("S"))
        )

    def test_difference_shared_base_rejected(self, db):
        expr = db.table_expr("R").difference(
            db.table_expr("R").select(col(2) == 1)
        )
        assert not supports_incremental(expr)

    def test_aggregate_over_monotonic(self, db):
        expr = db.table_expr("R").aggregate(group_by=[2], function="count")
        assert supports_incremental(expr)

    def test_unsupported_raises(self, db):
        inner = db.table_expr("R").difference(db.table_expr("S"))
        with pytest.raises(ViewError):
            db.materialise(
                "v", inner.difference(db.table_expr("S")),
                policy=MaintenancePolicy.DELTA,
            )


class TestMonotonicDeltas:
    def test_insert_propagates(self, db):
        expr = db.table_expr("R").project(2)
        view = db.materialise("v", expr)
        db.table("R").insert((1, 10), expires_at=20)
        db.table("R").insert((2, 30), expires_at=10)
        assert set(view.read().rows()) == fresh(db, expr)
        assert view.delta_applications == 2
        assert view.recomputations == 0  # only the initial build

    def test_join_delta_uses_other_side(self, db):
        expr = db.table_expr("R").join(db.table_expr("S"), on=[(1, 1)])
        view = db.materialise("v", expr)
        db.table("S").insert((7, 100), expires_at=50)
        db.table("R").insert((7, 1), expires_at=30)
        assert set(view.read().rows()) == {(7, 1, 7, 100)}
        # Expiration is the min of the parents.
        db.advance_to(30)
        assert set(view.read().rows()) == set()

    def test_duplicate_insert_extends_lifetime(self, db):
        expr = db.table_expr("R").project(2)
        view = db.materialise("v", expr)
        db.table("R").insert((1, 10), expires_at=5)
        db.table("R").insert((2, 10), expires_at=15)  # same projection
        db.advance_to(10)
        assert set(view.read().rows()) == {(10,)}

    def test_expirations_need_no_deltas(self, db):
        expr = db.table_expr("R").select(col(2) > 5)
        view = db.materialise("v", expr)
        db.table("R").insert((1, 10), expires_at=4)
        db.advance_to(4)
        assert set(view.read().rows()) == set()
        assert view.recomputations == 0


class TestDifferenceDeltas:
    def test_left_insert_visible_when_unmatched(self, db):
        expr = db.table_expr("R").difference(db.table_expr("S"))
        view = db.materialise("v", expr, policy=MaintenancePolicy.DELTA)
        db.table("R").insert((1, 1), expires_at=20)
        assert set(view.read().rows()) == {(1, 1)}

    def test_left_insert_hidden_then_patched(self, db):
        expr = db.table_expr("R").difference(db.table_expr("S"))
        view = db.materialise("v", expr, policy=MaintenancePolicy.DELTA)
        db.table("S").insert((1, 1), expires_at=5)
        db.table("R").insert((1, 1), expires_at=20)
        assert set(view.read().rows()) == set()
        db.advance_to(5)  # the S match expires: the tuple re-appears
        assert set(view.read().rows()) == {(1, 1)}
        db.advance_to(20)
        assert set(view.read().rows()) == set()

    def test_right_insert_knocks_out_tuple(self, db):
        expr = db.table_expr("R").difference(db.table_expr("S"))
        view = db.materialise("v", expr, policy=MaintenancePolicy.DELTA)
        db.table("R").insert((1, 1), expires_at=20)
        assert set(view.read().rows()) == {(1, 1)}
        db.table("S").insert((1, 1), expires_at=8)
        assert set(view.read().rows()) == set()
        db.advance_to(8)
        assert set(view.read().rows()) == {(1, 1)}

    def test_right_insert_outliving_left_removes_forever(self, db):
        expr = db.table_expr("R").difference(db.table_expr("S"))
        view = db.materialise("v", expr, policy=MaintenancePolicy.DELTA)
        db.table("R").insert((1, 1), expires_at=8)
        db.table("S").insert((1, 1), expires_at=20)
        for when in (0, 4, 8, 12, 20, 25):
            db.advance_to(when)
            assert set(view.read().rows()) == fresh(db, expr)

    def test_match_extension_requeues_patch(self, db):
        expr = db.table_expr("R").difference(db.table_expr("S"))
        view = db.materialise("v", expr, policy=MaintenancePolicy.DELTA)
        db.table("R").insert((1, 1), expires_at=30)
        db.table("S").insert((1, 1), expires_at=5)
        view.read()
        # Renew the match before the patch comes due.
        db.advance_to(3)
        db.table("S").insert((1, 1), expires_at=12)
        for when in (4, 5, 8, 12, 20, 30):
            db.advance_to(when)
            assert set(view.read().rows()) == fresh(db, expr), when


class TestAggregateDeltas:
    def test_count_updates_affected_partition_only(self, db):
        expr = db.table_expr("R").aggregate(group_by=[2], function="count",
                                            strategy=ExpirationStrategy.EXACT)
        view = db.materialise("v", expr, policy=MaintenancePolicy.DELTA)
        db.table("R").insert((1, 25), expires_at=10)
        db.table("R").insert((2, 25), expires_at=15)
        db.table("R").insert((3, 35), expires_at=10)
        assert set(view.read().rows()) == fresh(db, expr)
        db.table("R").insert((4, 25), expires_at=20)
        assert set(view.read().rows()) == fresh(db, expr)

    def test_expiry_reaggregates(self, db):
        expr = db.table_expr("R").aggregate(group_by=[2], function="count",
                                            strategy=ExpirationStrategy.EXACT)
        view = db.materialise("v", expr, policy=MaintenancePolicy.DELTA)
        db.table("R").insert((1, 25), expires_at=10)
        db.table("R").insert((2, 25), expires_at=15)
        db.advance_to(10)
        # Recomputation would give count 1 for the 25-partition.
        assert set(view.read().rows()) == fresh(db, expr) == {(2, 25, 1)}

    def test_min_aggregate_value_shrinks_on_insert(self, db):
        expr = db.table_expr("R").aggregate(group_by=[2], function="min",
                                            attribute=1)
        view = db.materialise("v", expr, policy=MaintenancePolicy.DELTA)
        db.table("R").insert((5, 1), expires_at=20)
        assert set(view.read().rows()) == {(5, 1, 5)}
        db.table("R").insert((2, 1), expires_at=20)
        assert set(view.read().rows()) == {(5, 1, 2), (2, 1, 2)}


class TestCompositeShapes:
    def test_difference_with_join_left_side(self, db):
        db.create_table("T", ["k", "w"])
        expr = (
            db.table_expr("R")
            .join(db.table_expr("T"), on=[(1, 1)])
            .project(1, 2)
            .difference(db.table_expr("S"))
        )
        view = db.materialise("v", expr, policy=MaintenancePolicy.DELTA)
        db.table("R").insert((1, 10), expires_at=40)
        db.table("T").insert((1, 99), expires_at=25)
        db.table("S").insert((1, 10), expires_at=8)
        for when in (0, 5, 8, 20, 25, 40):
            db.advance_to(when)
            assert set(view.read().rows()) == fresh(db, expr), when

    def test_aggregate_with_conservative_strategy(self, db):
        expr = db.table_expr("R").aggregate(
            group_by=[2], function="sum", attribute=1,
            strategy=ExpirationStrategy.CONSERVATIVE,
        )
        view = db.materialise("v", expr, policy=MaintenancePolicy.DELTA)
        db.table("R").insert((5, 1), expires_at=10)
        db.table("R").insert((7, 1), expires_at=30)
        db.table("R").insert((2, 2), expires_at=20)
        for when in (0, 5, 10, 15, 20, 30):
            db.advance_to(when)
            assert set(view.read().rows()) == fresh(db, expr), when

    def test_aggregate_with_neutral_strategy(self, db):
        expr = db.table_expr("R").aggregate(
            group_by=[2], function="min", attribute=1,
            strategy=ExpirationStrategy.NEUTRAL_SETS,
        )
        view = db.materialise("v", expr, policy=MaintenancePolicy.DELTA)
        db.table("R").insert((9, 1), expires_at=5)   # neutral for min
        db.table("R").insert((1, 1), expires_at=30)
        for when in (0, 4, 5, 10, 30):
            db.advance_to(when)
            assert set(view.read().rows()) == fresh(db, expr), when


class TestExplicitDeletes:
    def test_delete_falls_back_to_refresh(self, db):
        expr = db.table_expr("R").project(1)
        view = db.materialise("v", expr)
        db.table("R").insert((1, 1), expires_at=20)
        db.table("R").delete((1, 1))
        assert set(view.read().rows()) == set()
        assert view.recomputations == 1


class TestRandomisedEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(["R", "S"]),
                st.integers(0, 3),
                st.integers(0, 2),
                st.integers(1, 25),
            ),
            min_size=1,
            max_size=15,
        ),
        read_times=st.lists(st.integers(0, 30), min_size=1, max_size=5),
    )
    def test_difference_view_matches_recompute(self, operations, read_times):
        """The difference, and beside it a selection-projection and a
        grouped count: each folds every insert and never rebuilds."""
        db = Database()
        db.create_table("R", ["k", "v"])
        db.create_table("S", ["k", "v"])
        expressions = {
            "diff": db.table_expr("R").difference(db.table_expr("S")),
            "select_project": db.table_expr("R").select(col(2) > 0).project(1),
            "group_count": db.table_expr("R").aggregate(group_by=[2], function="count"),
        }
        views = {
            name: db.materialise(name, expr, policy=MaintenancePolicy.DELTA)
            for name, expr in expressions.items()
        }
        schedule = sorted(read_times)
        now = 0
        for table, k, v, life in operations:
            db.table(table).insert((k, v), expires_at=now + life)
        for when in schedule:
            if when > db.now.value:
                db.advance_to(when)
            for name, expr in expressions.items():
                assert set(views[name].read().rows()) == set(
                    db.evaluate(expr).relation.rows()
                ), name
        assert [view.recomputations for view in views.values()] == [0, 0, 0]


class TestBoundedState:
    """The folded state holds what is visible, not what was ever inserted."""

    def test_state_drops_expired_rows(self, db):
        view = db.materialise("v", db.table_expr("R").project(2))
        table = db.table("R")
        for i in range(5000):
            if i % 10 == 0:
                db.tick(1)
            table.insert((i, i), ttl=2)
            visible = len(view.read())
            assert view.storage_size <= 2 * visible, i
        assert view.recomputations == 0
        assert view.delta_applications == 5000

    def test_unread_view_holds_a_bounded_batch(self, db):
        table = db.table("R")
        for i in range(50):
            table.insert((-i, -i), ttl=10_000)
        expr = db.table_expr("R").project(2)
        view = db.materialise("v", expr)
        for i in range(5000):
            table.insert((i, i), ttl=10_000)
            held = sum(len(batch) for batch in view._pending.values())
            assert held <= view.storage_size + 1
        # The batch outgrew the stored result and was dropped: one refresh.
        assert set(view.read().rows()) == fresh(db, expr)
        assert view.recomputations == 1

    def test_small_views_still_fold(self, db):
        # An empty view's batch may reach a small fixed size before it
        # counts as outgrowing the result.
        view = db.materialise("v", db.table_expr("R").project(2))
        for i in range(10):
            db.table("R").insert((i, i), ttl=5)
        assert len(view.read()) == 10
        assert (view.delta_applications, view.recomputations) == (10, 0)

    def test_contains_only_use_is_trimmed_too(self, db):
        view = db.materialise("v", db.table_expr("R").project(2))
        table = db.table("R")
        for i in range(2000):
            if i % 10 == 0:
                db.tick(1)
            table.insert((i, i), ttl=2)
            assert view.contains((i,))
        assert view.storage_size <= 100

    def test_drop_view_detaches_every_listener(self, db):
        expr = db.table_expr("R").join(db.table_expr("S"), on=[(1, 1)])
        view = db.materialise("v", expr)
        assert isinstance(view, IncrementalView)
        db.drop_view("v")
        for name in ("R", "S"):
            table = db.table(name)
            for listener in table.insert_listeners + table.delete_listeners:
                assert getattr(listener, "__self__", None) is not view
        db.table("R").insert((1, 1), ttl=5)  # nobody is listening


class TestDeltaIsNotACachedResult:
    """A fold runs the view's plan over a substituted catalog -- the
    answer must never be served as the expression's result."""

    @pytest.mark.parametrize("layout", ["row", "columnar"])
    @pytest.mark.parametrize("partitions", [None, 4])
    def test_evaluate_after_a_fold_is_the_whole_answer(self, layout, partitions):
        from repro.core.algebra.evaluator import Evaluator

        db = Database()
        table = db.create_table(
            "W", ["k", "g", "v"], layout=layout, partitions=partitions
        )
        for i in range(40):
            table.insert((i, i % 4, i * 10), ttl=100)
        expr = db.table_expr("W").select(col(2) == 3).project(1, 3)
        view = db.materialise("w_sel", expr)
        for i in range(40, 60):
            table.insert((i, i % 4, i * 10), ttl=100)
            served = view.read()
            truth = Evaluator(db.catalog, db.now).evaluate(expr).relation
            assert served.same_content(truth)
            assert db.evaluate(expr).relation.same_content(truth)
        assert view.recomputations == 0


class TestOneDoor:
    def test_subclass_of_the_one_view_class(self):
        from repro.engine.views import MaterialisedView

        assert IncrementalView.__mro__[1] is MaterialisedView

    def test_materialise_picks_by_shape(self, db):
        mono = db.table_expr("R").project(1)
        diff = db.table_expr("R").difference(db.table_expr("S"))
        self_join = db.table_expr("R").join(db.table_expr("R"), on=[(1, 1)])
        assert type(db.materialise("a", mono)) is IncrementalView
        assert type(db.materialise("b", self_join)) is not IncrementalView
        for policy in (MaintenancePolicy.RECOMPUTE, MaintenancePolicy.SCHRODINGER,
                       MaintenancePolicy.PATCH):
            view = db.materialise(f"d_{policy.value}", diff, policy=policy)
            assert type(view) is not IncrementalView
        assert type(
            db.materialise("e", diff, policy=MaintenancePolicy.DELTA)
        ) is IncrementalView

    def test_sql_view_folds_single_row_inserts(self):
        import repro

        session = repro.connect()
        session.execute("CREATE TABLE W (k, g, v)")
        session.execute(
            "CREATE MATERIALIZED VIEW v AS SELECT k, v FROM W WHERE g = 3"
        )
        db = session.db
        view = db.view("v")
        for i in range(100):
            session.execute(f"INSERT INTO W VALUES ({i}, {i % 5}, {i}) EXPIRES IN 50")
            assert set(view.read().rows()) == fresh(db, view.expression)
        assert view.recomputations == 0
        assert len(view.read()) == 20

    def test_delta_policy_survives_snapshot_and_recovery(self, tmp_path):
        import repro
        from repro.engine.persistence import load_database, save_database, view_spec
        from repro.engine.recovery import recover_database

        session = repro.connect(str(tmp_path / "wal"))
        session.execute("CREATE TABLE A (k)")
        session.execute("CREATE TABLE B (k)")
        session.execute(
            "CREATE MATERIALIZED VIEW d AS SELECT k FROM A EXCEPT "
            "SELECT k FROM B WITH POLICY DELTA"
        )
        session.execute("INSERT INTO A VALUES (1), (2) EXPIRES IN 50")
        session.execute("INSERT INTO B VALUES (2) EXPIRES IN 5")
        db = session.db
        assert view_spec(db.view("d"))["policy"] == "delta"
        save_database(db, tmp_path / "snap.json")
        session.close()
        for restored in (
            load_database(tmp_path / "snap.json"),
            recover_database(tmp_path / "wal"),
        ):
            view = restored.view("d")
            assert type(view) is IncrementalView
            assert view.policy is MaintenancePolicy.DELTA
            assert set(view.read().rows()) == {(1,)}
            restored.advance_to(5)
            assert set(view.read().rows()) == {(1,), (2,)}
            restored.close()
