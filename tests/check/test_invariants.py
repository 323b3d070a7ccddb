"""Tests for the invariant catalogue and ``Database.verify``.

Each corruption test desyncs exactly one structure *behind the engine's
back* (the way a bug would) and asserts the matching invariant names it.
"""

import pytest

from repro.check.invariants import Violation, invariant_names, run_invariants
from repro.core.timestamps import INFINITY, ts
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.views import MaintenancePolicy
from repro.errors import InvariantViolation


def build_db(policy=RemovalPolicy.EAGER, **kwargs):
    """A database exercising every audited structure."""
    db = Database(default_removal_policy=policy, **kwargs)
    flat = db.create_table("flat", ["k", "v"])
    part = db.create_table("part", ["k", "v"], partitions=3)
    for key in range(6):
        flat.insert((key, 0), expires_at=10 + key)
        part.insert((key, 0), expires_at=20 + key)
    flat.insert((99, 1))  # immortal
    db.materialise("v_mono", db.table_expr("flat").project(1))
    db.materialise(
        "v_diff",
        db.table_expr("flat").difference(db.table_expr("part")),
        policy=MaintenancePolicy.SCHRODINGER,
    )
    db.evaluate(db.table_expr("flat"))  # populate the plan cache
    return db


def names_of(violations):
    return {violation.invariant for violation in violations}


class TestCleanDatabases:
    @pytest.mark.parametrize(
        "policy", [RemovalPolicy.EAGER, RemovalPolicy.LAZY]
    )
    def test_verify_passes(self, policy):
        db = build_db(policy)
        assert db.verify() == []
        db.advance_to(12)  # partial expiry; lazy tables now buffer entries
        assert db.verify() == []
        db.vacuum_all()
        assert db.verify() == []
        db.close()

    def test_structural_only(self):
        db = build_db()
        assert db.verify(deep=False) == []

    def test_catalogue_names(self):
        assert invariant_names(deep=False) == [
            "index-schedules-stored",
            "index-entries-stored",
            "due-buffer-consistent",
            "shard-routing",
            "physical-covers-live",
        ]
        assert invariant_names()[-2:] == [
            "view-freshness",
            "plan-cache-consistent",
        ]


class TestCorruptionsAreCaught:
    def test_missing_index_entry(self):
        db = build_db()
        db.table("flat")._shards[0].index.discard((0, 0))
        violations = db.verify(strict=False)
        assert "index-schedules-stored" in names_of(violations)

    def test_phantom_index_entry(self):
        db = build_db()
        db.table("flat")._shards[0].index.put((77, 7), 30)
        violations = db.verify(strict=False)
        assert "index-entries-stored" in names_of(violations)

    def test_index_disagrees_on_time(self):
        db = build_db()
        db.table("flat")._shards[0].index.put((0, 0), 55)  # stored says 10
        violations = db.verify(strict=False)
        assert names_of(violations) >= {
            "index-schedules-stored", "index-entries-stored"
        }

    def test_premature_due_buffer_entry(self):
        db = build_db(RemovalPolicy.LAZY)
        db.table("flat")._shards[0].due.append(((0, 0), 500))
        violations = db.verify(strict=False)
        assert "due-buffer-consistent" in names_of(violations)

    def test_misrouted_shard_row(self):
        db = build_db()
        table = db.table("part")
        row = (0, 0)
        owner = hash(row[0]) % table.partitions
        wrong = (owner + 1) % table.partitions
        table.relation.shards[wrong]._tuples[row] = ts(25)
        violations = db.verify(strict=False, deep=False)
        assert "shard-routing" in names_of(violations)

    def test_corrupted_view_materialisation(self):
        db = build_db()
        view = db.view("v_mono")
        view._result.relation.override((1234,), INFINITY)
        violations = db.verify(strict=False)
        assert "view-freshness" in names_of(violations)

    def test_unversioned_mutation_breaks_the_cache(self):
        # The bug class this PR fixes: mutate the relation directly,
        # without note_data_change -- the cached result silently drifts.
        db = build_db()
        db.table("flat").relation.override((50, 5), ts(90))
        violations = db.verify(strict=False)
        assert "plan-cache-consistent" in names_of(violations)

    def test_names_filter(self):
        db = build_db()
        db.table("flat")._shards[0].index.discard((0, 0))
        only = run_invariants(db, names=["index-entries-stored"])
        assert only == []  # the corruption is invisible to that check
        found = run_invariants(db, names=["index-schedules-stored"])
        assert found and all(
            v.invariant == "index-schedules-stored" for v in found
        )


class TestStrictMode:
    def test_strict_raises_with_detail(self):
        db = build_db()
        db.table("flat")._shards[0].index.discard((0, 0))
        with pytest.raises(InvariantViolation) as excinfo:
            db.verify()
        assert "index-schedules-stored" in str(excinfo.value)

    def test_violation_str(self):
        violation = Violation("some-check", "T(1,)", "broke")
        assert str(violation) == "[some-check] T(1,): broke"


class TestDebugMode:
    def test_check_invariants_audits_every_mutation(self):
        db = build_db(check_invariants=True)
        db.table("flat")._shards[0].index.discard((3, 0))  # corrupt behind the API
        with pytest.raises(InvariantViolation):
            db.table("flat").insert((8, 0), expires_at=40)

    def test_check_invariants_audits_sweeps(self):
        db = build_db(check_invariants=True)
        table = db.table("flat")
        # Desync that only bites during a sweep-adjacent audit.
        table.relation.override((0, 0), ts(400))
        with pytest.raises(InvariantViolation):
            db.advance_to(11)

    def test_clean_database_is_unbothered(self):
        db = build_db(check_invariants=True)
        db.table("flat").insert((8, 0), expires_at=40)
        db.advance_to(15)
        db.vacuum_all()
        db.view("v_diff").read()
        assert db.verify() == []
        db.close()


LAYOUTS = {
    "row": {},
    "columnar": {"layout": "columnar"},
    "sharded": {"partitions": 3},
}


def layout_table(shape, policy=RemovalPolicy.EAGER):
    """One table of ``shape``: six rows expiring at 10..15, one immortal."""
    db = Database(default_removal_policy=policy)
    table = db.create_table("T", ["k", "v"], **shape)
    for key in range(6):
        table.insert((key, 0), expires_at=10 + key)
    table.insert((99, 1))
    return db, table


def owning_shard(table, row):
    if table.partitions is None:
        return table._shards[0]
    return table._shards[hash(row[0]) % table.partitions]


def found(db):
    return [(v.invariant, v.subject, v.message) for v in db.verify(strict=False)]


@pytest.mark.parametrize("shape", list(LAYOUTS.values()), ids=list(LAYOUTS))
class TestCorruptionsOnEveryLayout:
    """Every storage form the index checks read, with the exact wording."""

    def test_missing_index_entry(self, shape):
        db, table = layout_table(shape)
        owning_shard(table, (0, 0)).index.discard((0, 0))
        assert found(db) == [(
            "index-schedules-stored", "T(0, 0)",
            "stored row expires at 10 but has no index entry",
        )]

    def test_phantom_index_entry(self, shape):
        db, table = layout_table(shape)
        owning_shard(table, (77, 7)).index.put((77, 7), 30)
        assert found(db) == [(
            "index-entries-stored", "T(77, 7)",
            "index entry at 30 refers to a row that is not physically "
            "present (phantom ON-EXPIRE)",
        )]

    def test_index_tick_disagrees_with_storage(self, shape):
        db, table = layout_table(shape)
        owning_shard(table, (0, 0)).index.put((0, 0), 55)
        assert found(db) == [
            ("index-schedules-stored", "T(0, 0)",
             "index schedules 55, stored expiration is 10"),
            ("index-entries-stored", "T(0, 0)",
             "index entry at 55, stored expiration is 10"),
        ]

    def test_index_entry_for_an_immortal_row(self, shape):
        db, table = layout_table(shape)
        owning_shard(table, (99, 1)).index.put((99, 1), 30)
        assert found(db) == [(
            "index-entries-stored", "T(99, 1)",
            "index entry at 30, stored expiration is inf",
        )]

    def test_premature_due_buffer_entry(self, shape):
        db, table = layout_table(shape, RemovalPolicy.LAZY)
        owning_shard(table, (0, 0)).due.append(((0, 0), 500))
        subject = "T(0, 0)" if table.partitions is None else "T[shard 0](0, 0)"
        assert found(db) == [
            ("due-buffer-consistent", subject,
             "buffered entry at 500 is not due yet (now 0)"),
            ("due-buffer-consistent", subject,
             "stored expiration 10 precedes the buffered entry 500 "
             "(max-merge only moves later)"),
        ]

    @pytest.mark.parametrize(
        "policy", [RemovalPolicy.EAGER, RemovalPolicy.LAZY]
    )
    def test_clean_at_a_partial_expiry(self, shape, policy):
        db, _ = layout_table(shape, policy)
        db.advance_to(12)
        assert found(db) == []
