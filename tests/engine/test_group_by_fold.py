"""GROUP BY views fold per partition.

Every folded answer must equal a recomputation at the same τ, rows and
``texp`` alike: the reference interpreter over the live catalog is the
oracle, compared with ``same_content`` after every step of a seeded
history of inserts, renewals, deletes, overrides, aborted transactions and
clock advances.
"""

import random

import pytest

from repro.core.algebra.evaluator import Evaluator
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.maintenance import IncrementalView, supports_incremental
from repro.engine.persistence import load_database, save_database, view_spec
from repro.engine.recovery import recover_database
from repro.engine.views import MaintenancePolicy, MaterialisedView
from repro.errors import RelationError, ViewError
from repro.sql.executor import execute_sql

FUNCTIONS = ("COUNT(*)", "SUM(v)", "MIN(v)", "MAX(v)", "AVG(v)")
STRATEGIES = ("exact", "conservative", "neutral_sets")
LAYOUTS = {
    "row": {},
    "columnar": {"layout": "columnar"},
    "partitioned": {"partitions": 3, "partition_key": "k"},
}
REMOVALS = (RemovalPolicy.EAGER, RemovalPolicy.LAZY)


def assert_matches(db, view):
    truth = Evaluator(db.catalog, db.now).evaluate(view.expression).relation
    served = view.read()
    assert served.same_content(truth), (
        sorted(served.items()), sorted(truth.items())
    )


def grouped_db(layout="row", removal=RemovalPolicy.EAGER, query=None):
    db = Database(default_removal_policy=removal)
    db.create_table("T", ["k", "g", "v"], **LAYOUTS[layout])
    for k in range(8):
        db.table("T").insert((k, k % 3, k % 4), ttl=3 + k)
    execute_sql(db, "CREATE MATERIALIZED VIEW v AS " + (
        query or "SELECT g, COUNT(*) FROM T WHERE k < 6 GROUP BY g"
    ))
    return db, db.view("v")


def history(db, view, rng, steps=60, read_every=2):
    """Apply ``steps`` random ops to ``T``, checking the view against the
    oracle after every ``read_every``-th (on average) op."""
    table = db.table("T")
    for _ in range(steps):
        live = sorted(table.read().rows())
        roll = rng.random()
        if roll < 0.35 or not live:
            row = (rng.randrange(9), rng.randrange(3), rng.randrange(5))
            table.insert(row, ttl=rng.randint(1, 10))
        elif roll < 0.45:
            table.renew(rng.choice(live), rng.randint(1, 12))
        elif roll < 0.55:
            table.delete(rng.choice(live))
        elif roll < 0.70:
            # Override to now, shortened or lengthened.
            row = rng.choice(live)
            table.override(row, ttl=rng.choice((0, 1, 2, 15)))
        elif roll < 0.78:
            txn = db.transaction()
            txn.insert("T", (rng.randrange(9), 1, 2), ttl=5)
            txn.delete("T", rng.choice(live))
            txn.insert("T", (99, 0, 0), expires_at=db.now)  # poisons the commit
            with pytest.raises(RelationError):
                txn.commit()
        else:
            db.tick(rng.randint(1, 3))
        if rng.random() < 1 / read_every:
            assert_matches(db, view)
    assert_matches(db, view)


class TestShape:
    def test_projection_keeping_the_groups_folds(self):
        db, view = grouped_db()
        assert type(view) is IncrementalView
        assert view.policy is MaintenancePolicy.DELTA
        assert supports_incremental(view.expression)

    def test_projection_dropping_a_group_does_not(self):
        db, view = grouped_db(
            query="SELECT COUNT(*) FROM T WHERE k < 6 GROUP BY g"
        )
        assert type(view) is MaterialisedView
        assert view.policy is MaintenancePolicy.SCHRODINGER
        with pytest.raises(ViewError):
            db.materialise(
                "d", view.expression, policy=MaintenancePolicy.DELTA
            )

    @pytest.mark.parametrize("policy", ["SCHRODINGER", "RECOMPUTE"])
    def test_explicit_policies_build_as_before(self, policy):
        db, _ = grouped_db()
        execute_sql(
            db,
            "CREATE MATERIALIZED VIEW e AS SELECT g, COUNT(*) FROM T "
            f"WHERE k < 6 GROUP BY g WITH POLICY {policy}",
        )
        view = db.view("e")
        assert type(view) is MaterialisedView
        assert view.policy is MaintenancePolicy(policy.lower())

    def test_describe_prints_the_resolved_policy(self):
        db, _ = grouped_db()
        assert "policy=delta" in execute_sql(db, "DESCRIBE v").message


class TestDifferential:
    @pytest.mark.parametrize("removal", REMOVALS, ids=["eager", "lazy"])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("function", FUNCTIONS)
    def test_grid(self, function, strategy, layout, removal):
        db, view = grouped_db(layout, removal, (
            f"SELECT g, {function} FROM T WHERE k < 6 GROUP BY g "
            f"WITH STRATEGY {strategy}"
        ))
        rng = random.Random(f"{function}{strategy}{layout}{removal}")
        history(db, view, rng)
        # A σ-only child: deletes and overrides fold as well as inserts.
        assert view.recomputations == 0
        assert view.delta_applications > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_aggregate_without_projection(self, seed):
        db, _ = grouped_db()
        expression = db.table_expr("T").aggregate(
            group_by=[2], function="max", attribute=3
        )
        view = db.materialise("a", expression, policy=MaintenancePolicy.DELTA)
        history(db, view, random.Random(seed), read_every=4)
        assert view.recomputations == 0

    def test_sparse_reads_fold_many_partitions_at_once(self):
        db, view = grouped_db(query=(
            "SELECT g, MIN(v) FROM T WHERE k < 8 GROUP BY g"
        ))
        history(db, view, random.Random(7), steps=200, read_every=8)

    def test_a_join_child_still_marks_stale(self):
        db, _ = grouped_db()
        db.create_table("U", ["k", "w"])
        for k in range(8):
            db.table("U").insert((k, k * 10), ttl=20)
        execute_sql(
            db,
            "CREATE MATERIALIZED VIEW j AS SELECT T.g, COUNT(*) FROM T "
            "JOIN U ON T.k = U.k GROUP BY T.g",
        )
        view = db.view("j")
        assert type(view) is IncrementalView
        db.table("T").insert((3, 2, 1), ttl=9)
        assert_matches(db, view)
        assert view.recomputations == 0
        db.table("U").delete((3, 30))
        assert view.cause == "stale"
        assert_matches(db, view)
        assert view.recomputations == 1
        history(db, view, random.Random(3), steps=30)


class TestPartitionSchedule:
    def test_a_change_point_redoes_only_its_partition(self):
        db = Database()
        db.create_table("T", ["k", "g", "v"])
        execute_sql(
            db, "CREATE MATERIALIZED VIEW v AS "
                "SELECT g, COUNT(*) FROM T GROUP BY g",
        )
        view = db.view("v")
        db.table("T").insert((1, 0, 0), expires_at=5)
        db.table("T").insert((2, 0, 0), expires_at=9)
        db.table("T").insert((3, 1, 0), expires_at=9)
        assert sorted(view.read().rows()) == [(0, 2), (1, 1)]
        held = view._groups[1]
        db.advance_to(5)  # partition 0's count changes; partition 1's not
        assert sorted(view.read().rows()) == [(0, 1), (1, 1)]
        assert view._groups[1] is held
        db.advance_to(9)
        assert list(view.read().rows()) == [] and view._groups == {}
        assert view.recomputations == 0

    def test_the_schedule_holds_one_entry_per_partition(self):
        # A long-lived minimum: every insert redoes the partition and
        # schedules it again, far ahead of the clock.
        db, view = grouped_db(query="SELECT g, MIN(v) FROM T GROUP BY g")
        db.table("T").insert((0, 0, -1), ttl=10_000)
        for i in range(500):
            db.table("T").insert((100 + i, 0, i), ttl=5_000 + i)
            view.read()
        assert len(view._due) <= 2 * len(view._groups) + 16
        assert_matches(db, view)
        db.advance_to(5_100)
        assert_matches(db, view)

    def test_a_read_before_the_held_time_is_refused(self):
        db, view = grouped_db()
        db.advance_to(4)
        view.read()
        with pytest.raises(ViewError):
            view.read(at=2)
        with pytest.raises(ViewError):
            view.contains((0, 1), at=2)


class TestRoundTrips:
    def test_omitted_policy_survives_snapshot_and_recovery(self, tmp_path):
        import repro

        session = repro.connect(str(tmp_path / "wal"))
        session.execute("CREATE TABLE T (k, g, v)")
        session.execute(
            "CREATE MATERIALIZED VIEW v AS "
            "SELECT g, SUM(v) FROM T WHERE k < 6 GROUP BY g"
        )
        session.execute(
            "INSERT INTO T VALUES (1, 0, 4), (2, 0, 5), (3, 1, 6) EXPIRES IN 20"
        )
        session.execute("INSERT INTO T VALUES (4, 1, 1) EXPIRES IN 5")
        session.execute("DELETE FROM T WHERE k = 2")
        db = session.db
        assert view_spec(db.view("v"))["policy"] == "delta"
        save_database(db, tmp_path / "snap.json")
        session.close()
        for restored in (
            load_database(tmp_path / "snap.json"),
            recover_database(tmp_path / "wal"),
        ):
            view = restored.view("v")
            assert type(view) is IncrementalView
            assert view.policy is MaintenancePolicy.DELTA
            assert sorted(view.read().rows()) == [(0, 4), (1, 7)]
            restored.advance_to(5)
            assert_matches(restored, view)
            assert sorted(view.read().rows()) == [(0, 4), (1, 6)]
            restored.close()
