"""The redesigned stats API stays backward compatible (one-release shims)."""

import warnings

import pytest

from repro.core.algebra.evaluator import EvalStats
from repro.core.algebra.plan_cache import PlanCache, PlanCacheStats
from repro.engine.database import Database
from repro.engine.statistics import (
    ENGINE_COUNTERS,
    EngineStatistics,
    StatisticsSnapshot,
)
from repro.engine.table import Table
from repro.engine.views import MaintenancePolicy
from repro.obs.registry import MetricsRegistry


class TestEngineStatisticsView:
    def test_attribute_writes_land_in_registry(self):
        registry = MetricsRegistry()
        stats = EngineStatistics(registry=registry)
        stats.inserts += 1
        stats.inserts += 1
        stats.view_recomputations += 1
        snap = registry.snapshot()
        assert snap["repro_engine_inserts_total"] == 2
        assert snap["repro_views_recomputations_total"] == 1

    def test_registry_writes_visible_through_attributes(self):
        registry = MetricsRegistry()
        stats = EngineStatistics(registry=registry)
        registry.counter("repro_engine_inserts_total").inc(5)
        assert stats.inserts == 5

    def test_old_keyword_constructor_still_works(self):
        stats = EngineStatistics(inserts=3, explicit_deletes=1)
        assert stats.inserts == 3
        assert stats.explicit_deletes == 1
        with pytest.raises(TypeError):
            EngineStatistics(not_a_counter=1)

    def test_snapshot_is_frozen(self):
        stats = EngineStatistics()
        stats.inserts += 1
        snap = stats.snapshot()
        assert isinstance(snap, StatisticsSnapshot)
        assert snap.inserts == 1
        stats.inserts += 1
        assert snap.inserts == 1  # detached from the live counters
        with pytest.raises(AttributeError):
            snap.inserts = 99

    def test_diff_reports_deltas(self):
        stats = EngineStatistics()
        before = stats.snapshot()
        stats.inserts += 2
        stats.triggers_fired += 1
        assert stats.diff(before) == {"inserts": 2, "triggers_fired": 1}

    def test_as_dict_order_matches_declaration(self):
        stats = EngineStatistics()
        assert list(stats.as_dict()) == list(ENGINE_COUNTERS)

    def test_standalone_table_gets_private_registry(self):
        from repro.core.schema import Schema
        from repro.engine.clock import LogicalClock

        table = Table("T", Schema(["a"]), clock=LogicalClock())
        table.insert((1,), expires_at=10)
        assert table.statistics.inserts == 1


class TestEvalStatsShim:
    def test_as_dict(self):
        stats = EvalStats(tuples_scanned=2)
        assert stats.as_dict()["tuples_scanned"] == 2


class TestPlanCacheStatsView:
    def test_stats_property_is_frozen_snapshot(self):
        cache = PlanCache()
        snap = cache.stats
        assert isinstance(snap, PlanCacheStats)
        with pytest.raises(Exception):  # frozen dataclass
            snap.hits = 5

    def test_counters_live_in_shared_registry(self):
        registry = MetricsRegistry()
        db = Database(metrics=registry)
        db.create_table("T", ["a"]).insert((1,), expires_at=10)
        expr = db.table_expr("T").project(1)
        db.evaluate(expr)
        db.evaluate(expr)
        snap = registry.snapshot()
        assert snap["repro_plan_cache_misses_total"] == db.plan_cache.stats.misses
        assert snap["repro_plan_cache_hits_total"] == db.plan_cache.stats.hits
        assert db.plan_cache.stats.hits >= 1


class TestDatabaseAccessors:
    def test_database_owns_one_registry(self):
        db = Database()
        assert db.statistics.registry is db.metrics
        assert db.plan_cache.registry is db.metrics

    def test_eval_counters_flushed_per_engine(self):
        db = Database()
        db.create_table("T", ["a", "b"]).insert((1, 2), expires_at=10)
        expr = db.table_expr("T").project(1)
        db.evaluate(expr)
        snap = db.metrics.snapshot()
        # The label survives with the one value a Database emits.
        assert snap['repro_eval_queries_total{engine="compiled"}'] == 1
        assert snap['repro_eval_seconds{engine="compiled"}']["count"] == 1
        assert not any('engine="interpreted"' in series for series in snap)

    def test_prom_text_covers_required_families(self):
        db = Database()
        text = db.metrics.to_prom_text()
        for family in (
            "repro_plan_cache_hits_total",
            "repro_expiration_tuples_expired_total",
            "repro_views_recomputations_total",
        ):
            assert family in text, family

    def test_expiration_metrics_by_policy(self):
        from repro.engine.expiration_index import RemovalPolicy

        db = Database()
        eager = db.create_table("E", ["a"], removal_policy=RemovalPolicy.EAGER)
        lazy = db.create_table("L", ["a"], removal_policy=RemovalPolicy.LAZY,
                               lazy_batch_size=1000)
        eager.insert((1,), expires_at=5)
        lazy.insert((2,), expires_at=5)
        db.advance_to(10)
        lazy.vacuum()
        snap = db.metrics.snapshot()
        assert snap['repro_expiration_tuples_expired_total{policy="eager"}'] == 1
        assert snap['repro_expiration_tuples_expired_total{policy="lazy"}'] == 1
        assert snap['repro_expiration_sweep_seconds{policy="eager"}']["count"] >= 1


class TestSyncReportRows:
    def test_rows_derive_from_one_snapshot(self):
        from repro.distributed.metrics import SyncReport

        report = SyncReport(strategy="expiration", queries=4, correct_answers=3,
                            incorrect_answers=1, messages=10, bytes=40,
                            retransmissions=2, retransmissions_avoided=5,
                            cells_avoided=20)
        summary = report.summary_row()
        fault = report.fault_tolerance_row()
        assert summary["messages"] == fault["messages"] == 10
        assert summary["bytes"] == fault["bytes"] == 40
        assert summary["consistency"] == fault["consistency"] == 0.75
        assert fault["retrans_avoided"] == 5

    def test_publish_into_database_registry(self):
        from repro.distributed.metrics import SyncReport

        db = Database()
        report = SyncReport(strategy="expiration", queries=2, correct_answers=2,
                            messages=7, retransmissions_avoided=3)
        report.publish(db.metrics)
        text = db.metrics.to_prom_text()
        assert 'repro_replication_messages_total{strategy="expiration"} 7' in text
        assert ('repro_replication_retransmissions_avoided_total'
                '{strategy="expiration"} 3') in text
        assert 'repro_replication_consistency_ratio{strategy="expiration"} 1' in text


class TestCounterMonotonicity:
    """No registry counter may ever decrease during a workload.

    Historically the view layer decremented the recomputation counter after
    the initial materialisation; this drives a representative workload --
    DDL, inserts, view creation under every policy, reads, refreshes,
    expiration sweeps on flat and partitioned tables -- and checks every
    integer-valued snapshot entry after each step.
    """

    def test_counters_never_decrease(self):
        db = Database()
        previous = {}

        def check(step):
            snap = db.metrics.snapshot()
            for key, value in snap.items():
                if not isinstance(value, (int, float)):
                    continue  # histogram summaries are dicts
                if key in previous:
                    assert value >= previous[key], (
                        f"counter {key} decreased after {step}: "
                        f"{previous[key]} -> {value}"
                    )
                previous[key] = value

        db.create_table("L", ["a"])
        db.create_table("R", ["a"])
        db.create_table("P", ["a"], partitions=4)
        check("create tables")
        for i in range(20):
            db.table("L").insert((i,), expires_at=10 + (i % 5))
            db.table("P").insert((i,), expires_at=6)
        for i in range(0, 20, 3):
            db.table("R").insert((i,), expires_at=8)
        check("inserts")
        expr = db.table_expr("L").difference(db.table_expr("R"))
        db.materialise("mono", db.table_expr("L"))
        db.materialise("schro", expr)
        db.materialise("patched", expr, policy=MaintenancePolicy.PATCH)
        check("materialise views")
        for when in (2, 6, 8, 9, 12):
            db.advance_to(when)
            for name in ("mono", "schro", "patched"):
                db.view(name).read()
            check(f"advance to {when}")
        db.view("schro").refresh()
        db.table("L").insert((99,), expires_at=20)
        db.view("mono").read()
        check("refresh and stale read")
        db.drop_view("patched")
        db.drop_view("schro")
        db.drop_view("mono")
        db.drop_table("P")
        check("teardown")
        db.close()
