"""The validity-aware plan cache: hits only when provably sound.

A cached result may be served at ``τ'`` iff ``τ' ∈ I(e)`` and the catalog
has not been mutated (data version unchanged) and ``τ'`` is not in the
past of the engine clock.  These tests pin down each leg of that guard,
the exp-composition form of served hits, and the interaction with the
engine's version bumping (mutations invalidate; expiration processing
does not).
"""

from repro.core.algebra.evaluator import EvalStats, Evaluator, evaluate
from repro.core.algebra.expressions import BaseRef
from repro.core.algebra.plan_cache import PlanCache
from repro.core.algebra.predicates import col
from repro.core.intervals import IntervalSet
from repro.core.relation import Relation
from repro.engine.database import Database


def difference_catalog():
    """A non-monotonic setup with a gap in I(e): R - S with a critical tuple."""
    left = Relation(1)
    left.insert((1,), expires_at=20)
    left.insert((2,), expires_at=30)
    right = Relation(1)
    right.insert((1,), expires_at=10)  # critical: invalid on [10, 20)
    return {"R": left, "S": right}


DIFFERENCE = BaseRef("R").difference(BaseRef("S"))


class TestPlanCache:
    def test_first_evaluation_misses_then_hits_inside_validity(self):
        cache = PlanCache()
        catalog = difference_catalog()
        first = cache.evaluate(DIFFERENCE, catalog, tau=0)
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        again = cache.evaluate(DIFFERENCE, catalog, tau=5)  # 5 ∈ [0, 10)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        assert again.relation.same_content(
            evaluate(DIFFERENCE, catalog, tau=5).relation
        )
        assert first.expiration == again.expiration

    def test_miss_outside_validity_gap(self):
        cache = PlanCache()
        catalog = difference_catalog()
        cache.evaluate(DIFFERENCE, catalog, tau=0)
        # τ' = 12 falls in the invalid gap [10, 20): must recompute.
        result = cache.evaluate(DIFFERENCE, catalog, tau=12)
        assert cache.stats.hits == 0 and cache.stats.misses == 2
        assert result.relation.same_content(
            evaluate(DIFFERENCE, catalog, tau=12).relation
        )
        # The recomputation replaces the cached result; 25 ∈ its validity.
        hit = cache.evaluate(DIFFERENCE, catalog, tau=25)
        assert cache.stats.hits == 1
        assert hit.relation.same_content(
            evaluate(DIFFERENCE, catalog, tau=25).relation
        )

    def test_hit_serves_exp_restricted_relation_and_clipped_validity(self):
        cache = PlanCache()
        catalog = difference_catalog()
        cache.evaluate(DIFFERENCE, catalog, tau=0)
        hit = cache.evaluate(DIFFERENCE, catalog, tau=5)
        fresh = evaluate(DIFFERENCE, catalog, tau=5)
        assert hit.tau.value == 5
        assert hit.relation.same_content(fresh.relation)
        assert hit.validity == fresh.validity
        assert not hit.validity.contains(0)  # clipped to [τ', ∞)

    def test_version_change_invalidates_results_not_plans(self):
        cache = PlanCache()
        catalog = difference_catalog()
        cache.evaluate(DIFFERENCE, catalog, tau=0, version=0)
        catalog["R"].insert((3,), expires_at=40)
        result = cache.evaluate(DIFFERENCE, catalog, tau=1, version=1)
        assert cache.stats.hits == 0 and cache.stats.misses == 2
        assert cache.stats.compilations == 1  # the plan itself was reused
        assert result.relation.contains((3,))

    def test_schema_version_change_recompiles(self):
        cache = PlanCache()
        catalog = difference_catalog()
        cache.evaluate(DIFFERENCE, catalog, tau=0, schema_version=0)
        cache.evaluate(DIFFERENCE, catalog, tau=0, schema_version=1)
        assert cache.stats.compilations == 2

    def test_floor_rejects_past_time_hits(self):
        cache = PlanCache()
        catalog = difference_catalog()
        cache.evaluate(DIFFERENCE, catalog, tau=8)
        # τ' = 3 is within the cached validity's past, but behind the floor.
        cache.evaluate(DIFFERENCE, catalog, tau=3, floor=catalog["R"].earliest_expiration())
        assert cache.stats.hits == 0

    def test_earlier_tau_never_hits(self):
        cache = PlanCache()
        catalog = difference_catalog()
        cache.evaluate(DIFFERENCE, catalog, tau=8)
        cache.evaluate(DIFFERENCE, catalog, tau=3)  # before the cached τ
        assert cache.stats.hits == 0

    def test_lru_evicts_entries_not_the_shared_template(self):
        cache = PlanCache(capacity=2)
        catalog = difference_catalog()
        expressions = [
            BaseRef("R").select(col(1) >= bound) for bound in range(3)
        ]
        for expression in expressions:
            cache.evaluate(expression, catalog, tau=0)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The evicted (oldest) entry misses again, and is bound to the one
        # template all three share, not recompiled; the newest still hits.
        cache.evaluate(expressions[0], catalog, tau=0)
        assert (cache.stats.misses, cache.stats.compilations) == (4, 1)
        cache.evaluate(expressions[2], catalog, tau=1)
        assert cache.stats.hits == 1

    def test_one_template_keeps_each_expression_s_own_held_answer(self):
        cache = PlanCache()
        catalog = difference_catalog()
        catalog["R"].insert((3,), expires_at=8)
        one, two = (BaseRef("R").select(col(1) <= bound) for bound in (1, 2))
        first = {e: cache.evaluate(e, catalog, tau=0) for e in (one, two)}
        assert cache.stats.compilations == 1  # one template, bound twice
        assert sorted(first[one].relation.rows()) == [(1,)]
        assert sorted(first[two].relation.rows()) == [(1,), (2,)]
        for tau in (4, 9):  # τ' inside each I(e): served by validity alone
            for expression in (one, two):
                served = cache.evaluate(expression, catalog, tau=tau)
                assert served.relation.same_content(
                    evaluate(expression, catalog, tau=tau).relation)
                assert served.validity == first[expression].validity & (
                    IntervalSet.from_onwards(tau))
        assert cache.stats.hits == cache.stats.validity_served == 4
        assert (cache.stats.misses, cache.stats.compilations) == (2, 1)
        held = dict(cache.entries())
        assert held[one].result is not held[two].result
        assert held[one].plan.constants == (1,) and held[two].plan.constants == (2,)

    def test_stats_flow_into_eval_stats(self):
        cache = PlanCache()
        catalog = difference_catalog()
        stats = EvalStats()
        cache.evaluate(DIFFERENCE, catalog, tau=0, stats=stats)
        cache.evaluate(DIFFERENCE, catalog, tau=2, stats=stats)
        assert stats.cache_misses == 1 and stats.cache_hits == 1


class TestDatabaseIntegration:
    def build(self):
        db = Database()
        table = db.create_table("Sessions", ["sid", "user"])
        table.insert((1, 7), expires_at=20)
        table.insert((2, 8), expires_at=30)
        banned = db.create_table("Banned", ["user"])
        banned.insert((8,), expires_at=10)
        return db

    def test_repeated_monotonic_query_hits(self):
        db = self.build()
        expr = db.table_expr("Sessions").select(col(2) >= 7)
        db.evaluate(expr)
        db.evaluate(expr)
        assert db.plan_cache.stats.hits == 1
        assert db.last_eval_stats.cache_hits == 1

    def test_expiration_processing_does_not_invalidate(self):
        """The whole point: clock advances (physical expiry) keep hits."""
        db = self.build()
        expr = db.table_expr("Sessions").antijoin(
            db.table_expr("Banned"), on=[(2, 1)]
        )
        first = db.evaluate(expr)
        db.advance_to(22)  # (1, 7) physically removed by the eager policy
        assert db.plan_cache.stats.misses >= 1
        before = db.plan_cache.stats.hits
        result = db.evaluate(expr)
        if first.validity.contains(db.now):
            assert db.plan_cache.stats.hits == before + 1
        # Served content must equal a fresh interpreted evaluation.
        fresh = Evaluator(db.catalog, db.now).evaluate(expr)
        assert result.relation.same_content(fresh.relation)

    def test_insert_invalidates(self):
        db = self.build()
        expr = db.table_expr("Sessions").select(col(2) >= 7)
        db.evaluate(expr)
        db.table("Sessions").insert((3, 9), expires_at=40)
        result = db.evaluate(expr)
        assert db.plan_cache.stats.hits == 0
        assert result.relation.contains((3, 9))

    def test_delete_invalidates(self):
        db = self.build()
        expr = db.table_expr("Sessions").select(col(2) >= 7)
        db.evaluate(expr)
        db.table("Sessions").delete((1, 7))
        result = db.evaluate(expr)
        assert db.plan_cache.stats.hits == 0
        assert not result.relation.contains((1, 7))

    def test_ddl_recompiles(self):
        db = self.build()
        expr = db.table_expr("Sessions").project(1)
        db.evaluate(expr)
        db.create_table("Extra", ["x"])
        db.evaluate(expr)
        assert db.plan_cache.stats.compilations == 2

    def test_past_time_queries_recompute(self):
        """A cached result must not leak pre-purge tuples into past reads."""
        db = self.build()
        expr = db.table_expr("Sessions").project(1)
        db.evaluate(expr)
        db.advance_to(25)
        db.evaluate(expr, at=5)  # behind the clock: floor forbids a hit
        assert db.plan_cache.stats.hits == 0


class TestExpressionHash:
    def test_a_node_builds_its_key_once(self, monkeypatch):
        """A plan-cache lookup hashes one plan more than once; the node
        keeps its hash, so its ``_key`` (for a σ, the predicate's
        ``repr``) is built on the first ``hash`` only."""
        from repro.core.algebra.expressions import Select

        plan = BaseRef("R").select(col(1) == 1)
        built = []
        key = Select._key
        monkeypatch.setattr(Select, "_key",
                            lambda node: built.append(node) or key(node))
        first, second = hash(plan), hash(plan)
        assert first == second
        assert built == [plan]
        twin = BaseRef("R").select(col(1) == 1)
        assert hash(twin) == first and twin == plan
