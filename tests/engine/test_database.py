"""Tests for the Database facade: catalog, time, evaluation, statistics."""

import pytest

from repro.core.timestamps import ts
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.triggers import TriggerManager
from repro.errors import CatalogError


class TestCatalog:
    def test_create_and_lookup(self):
        db = Database()
        table = db.create_table("T", ["a"])
        assert db.table("T") is table
        assert db.has_table("T")
        assert db.table_names() == ["T"]

    def test_duplicate_rejected(self):
        db = Database()
        db.create_table("T", ["a"])
        with pytest.raises(CatalogError):
            db.create_table("T", ["b"])

    def test_unknown_rejected(self):
        with pytest.raises(CatalogError):
            Database().table("T")

    def test_drop(self):
        db = Database()
        db.create_table("T", ["a"])
        db.drop_table("T")
        assert not db.has_table("T")
        with pytest.raises(CatalogError):
            db.drop_table("T")

    def test_table_expr_validates(self):
        db = Database()
        with pytest.raises(CatalogError):
            db.table_expr("T")


class TestTime:
    def test_advance_processes_expirations(self):
        db = Database()
        table = db.create_table("T", ["a"])
        table.insert((1,), expires_at=5)
        db.advance_to(5)
        assert db.total_live_tuples() == 0
        assert db.total_physical_tuples() == 0  # eager by default

    def test_lazy_default_policy(self):
        db = Database(default_removal_policy=RemovalPolicy.LAZY)
        table = db.create_table("T", ["a"])
        table.insert((1,), expires_at=5)
        db.advance_to(5)
        assert db.total_live_tuples() == 0
        assert db.total_physical_tuples() == 1
        assert db.vacuum_all() == 1
        assert db.total_physical_tuples() == 0

    def test_now_property(self):
        db = Database(start_time=4)
        assert db.now == ts(4)
        db.tick(3)
        assert db.now == ts(7)


class TestEvaluation:
    def test_evaluate_at_now(self, figure1_db):
        figure1_db.advance_to(10)
        result = figure1_db.evaluate(figure1_db.table_expr("Pol").project(2))
        assert set(result.relation.rows()) == {(25,)}

    def test_evaluate_at_explicit_time(self, figure1_db):
        result = figure1_db.evaluate(
            figure1_db.table_expr("Pol").project(2), at=10
        )
        assert set(result.relation.rows()) == {(25,)}


class TestStatisticsDiffing:
    def test_snapshot_diff(self):
        db = Database()
        table = db.create_table("T", ["a"])
        before = db.statistics.snapshot()
        table.insert((1,), expires_at=5)
        table.insert((2,))
        db.advance_to(5)
        delta = db.statistics.diff(before)
        assert delta["inserts"] == 2
        assert delta["expirations_processed"] == 1
        assert "explicit_deletes" not in delta

    def test_as_dict_stable(self):
        stats = Database().statistics
        assert list(stats.as_dict()) == list(stats.as_dict())


class TestTriggerSystem:
    def test_manager_registration(self):
        manager = TriggerManager("T")
        t = manager.register("a", lambda event: None)
        assert len(manager) == 1
        assert manager.drop("a")
        assert not manager.drop("a")

    def test_duplicate_names(self):
        manager = TriggerManager("T")
        manager.register("a", lambda event: None)
        with pytest.raises(Exception):
            manager.register("a", lambda event: None)

    def test_predicate_guard(self):
        db = Database()
        table = db.create_table("T", ["k", "v"])
        fired = []
        from repro.core.algebra.predicates import col

        table.triggers.register(
            "only_big", lambda event: fired.append(event.tuple.row),
            predicate=(col(2) > 10).resolve(table.schema),
        )
        table.insert((1, 5), expires_at=2)
        table.insert((2, 50), expires_at=2)
        db.advance_to(2)
        assert fired == [(2, 50)]

    def test_trigger_fired_count(self):
        db = Database()
        table = db.create_table("T", ["k"])
        trigger = table.triggers.register("t", lambda event: None)
        table.insert((1,), expires_at=1)
        table.insert((2,), expires_at=1)
        db.advance_to(1)
        assert trigger.fired == 2
        assert db.statistics.triggers_fired == 2

    def test_renewal_pattern_from_paper(self, figure1_db):
        """'After this time, we would either generate a new profile ...
        or ask the user to explicitly renew' -- a trigger that renews."""
        pol = figure1_db.table("Pol")
        renewed = []

        def renew(event):
            uid, deg = event.tuple.row
            # Regenerate the profile from past behaviour: halve the degree.
            renewed.append((uid, deg // 2))

        pol.triggers.register("regenerate", renew)
        figure1_db.advance_to(10)
        assert sorted(renewed) == [(1, 12), (3, 17)]
