"""Regression tests for the view-maintenance correctness fixes.

Each test pins one historical bug:

1. materialised views silently served stale rows after base-table inserts
   or explicit deletes (expiration is *not* the only way bases change);
2. the recomputation counter was decremented after the initial
   materialisation, violating counter monotonicity;
3. a PATCH refresh evaluated the difference twice (once for the full
   expression, once inside the patch construction);
4. patched reads past the truncated queue's ``guaranteed_until`` horizon
   returned wrong rows instead of raising :class:`StaleViewError`;
5. a point probe (``contains``) on a folded or patched view before its last
   serving read answered from state already trimmed forward, where
   ``read`` at the same time refuses -- and so did a read before the time
   a deep audit had caught the state up to;
6. a folded difference queued a new patch for a hidden row on every
   renewal of its match, and again when each outdated patch came due, so
   its queue grew without bound and a bounded queue went stale early.
"""

import pytest

from repro.core.timestamps import INFINITY, ts
from repro.engine.database import Database
from repro.engine.views import MaintenancePolicy
from repro.errors import StaleViewError, ViewError


def diff_expr(db):
    return db.table_expr("Pol").project(1).difference(db.table_expr("El").project(1))


def fresh(db, expression, at=None):
    return set(db.evaluate(expression, at=at).relation.rows())


class TestCounterMonotonicity:
    def test_materialise_never_rewinds_recomputations(self, figure1_db):
        registry = figure1_db.metrics
        before = registry.snapshot().get("repro_views_recomputations_total", 0)
        view = figure1_db.materialise(
            "v", figure1_db.table_expr("Pol").project(2)
        )
        after = registry.snapshot().get("repro_views_recomputations_total", 0)
        # The initial materialisation is not a *re*-computation: counted as
        # zero, never counted-then-decremented.
        assert after == before
        assert view.recomputations == 0
        assert figure1_db.statistics.view_recomputations == before

    def test_explicit_refresh_counts_exactly_one(self, figure1_db):
        view = figure1_db.materialise("v", diff_expr(figure1_db))
        before = figure1_db.statistics.view_recomputations
        view.refresh()
        assert figure1_db.statistics.view_recomputations == before + 1
        assert view.recomputations == 1


class TestStalenessAfterMutation:
    def test_monotonic_view_sees_base_insert(self, figure1_db):
        expr = figure1_db.table_expr("Pol").project(2)
        view = figure1_db.materialise("v", expr)
        assert view.is_monotonic
        figure1_db.table("Pol").insert((9, 99), expires_at=50)
        assert (99,) in set(view.read().rows())
        assert set(view.read().rows()) == fresh(figure1_db, expr)

    def test_monotonic_view_sees_explicit_delete(self, figure1_db):
        expr = figure1_db.table_expr("Pol").project(1)
        view = figure1_db.materialise("v", expr)
        figure1_db.table("Pol").delete((3, 35))
        assert (3,) not in set(view.read().rows())
        assert set(view.read().rows()) == fresh(figure1_db, expr)

    def test_nonmonotonic_view_sees_base_insert(self, figure1_db):
        view = figure1_db.materialise("v", diff_expr(figure1_db))
        figure1_db.table("Pol").insert((8, 88), expires_at=50)
        assert (8,) in set(view.read().rows())
        assert set(view.read().rows()) == fresh(figure1_db, diff_expr(figure1_db))

    def test_patch_view_refreshes_after_insert(self, figure1_db):
        view = figure1_db.materialise(
            "v", diff_expr(figure1_db), policy=MaintenancePolicy.PATCH
        )
        figure1_db.table("Pol").insert((8, 88), expires_at=50)
        figure1_db.advance_to(1)
        assert set(view.read().rows()) == fresh(figure1_db, diff_expr(figure1_db))
        # ... and the refreshed patch queue keeps working afterwards.
        figure1_db.advance_to(5)
        assert set(view.read().rows()) == fresh(figure1_db, diff_expr(figure1_db))

    def test_no_mutation_means_no_refresh(self, figure1_db):
        view = figure1_db.materialise(
            "v", figure1_db.table_expr("Pol").project(2)
        )
        for when in (0, 5, 10, 15):
            figure1_db.advance_to(when)
            view.read()
        assert view.recomputations == 0  # Theorem 1 path untouched

    def test_expirations_do_not_mark_stale(self, figure1_db):
        view = figure1_db.materialise(
            "v", figure1_db.table_expr("Pol").project(1)
        )
        figure1_db.advance_to(10)  # eager removal physically deletes tuples
        assert view.cause is None
        assert set(view.read().rows()) == {(2,)}

    def test_drop_view_unsubscribes_listeners(self, figure1_db):
        table = figure1_db.table("Pol")
        view = figure1_db.materialise(
            "v", figure1_db.table_expr("Pol").project(2)
        )
        assert view._on_base_mutation in table.insert_listeners
        assert view._on_base_mutation in table.delete_listeners
        figure1_db.drop_view("v")
        assert view._on_base_mutation not in table.insert_listeners
        assert view._on_base_mutation not in table.delete_listeners


class TestSinglePassPatchRefresh:
    def _eval_queries(self, db):
        snap = db.metrics.snapshot()
        return sum(
            value
            for key, value in snap.items()
            if key.startswith("repro_eval_queries_total{")
        )

    def test_materialise_evaluates_each_side_once(self, figure1_db):
        before = self._eval_queries(figure1_db)
        figure1_db.materialise(
            "v", diff_expr(figure1_db), policy=MaintenancePolicy.PATCH
        )
        # One evaluation per side of the difference -- not a third one for
        # the whole expression (the anti-semijoin output *is* the result).
        assert self._eval_queries(figure1_db) - before == 2

    def test_refresh_evaluates_each_side_once(self, figure1_db):
        view = figure1_db.materialise(
            "v", diff_expr(figure1_db), policy=MaintenancePolicy.PATCH
        )
        before = self._eval_queries(figure1_db)
        view.refresh()
        assert self._eval_queries(figure1_db) - before == 2

    def test_single_pass_result_matches_recompute(self, figure1_db):
        view = figure1_db.materialise(
            "v", diff_expr(figure1_db), policy=MaintenancePolicy.PATCH
        )
        for when in (0, 3, 5, 9, 10, 14):
            figure1_db.advance_to(when)
            assert set(view.read().rows()) == fresh(
                figure1_db, diff_expr(figure1_db)
            )
        assert view.recomputations == 0

    def test_patch_view_expiration_is_infinite_unbounded(self, figure1_db):
        view = figure1_db.materialise(
            "v", diff_expr(figure1_db), policy=MaintenancePolicy.PATCH
        )
        assert view.expiration == INFINITY


class TestTruncatedQueueStaleness:
    def _bounded_view(self, limit):
        db = Database()
        left = db.create_table("L", ["a"])
        right = db.create_table("R", ["a"])
        left.insert((1,), expires_at=20)
        left.insert((2,), expires_at=20)
        right.insert((1,), expires_at=5)
        right.insert((2,), expires_at=8)
        view = db.materialise(
            "v",
            db.table_expr("L").difference(db.table_expr("R")),
            policy=MaintenancePolicy.PATCH,
            patch_limit=limit,
        )
        return db, view

    def test_read_raises_past_guaranteed_horizon(self):
        db, view = self._bounded_view(limit=1)
        # One patch shed: only guaranteed before the shed patch's due time.
        assert view.expiration == ts(8)
        db.advance_to(7)
        assert set(view.read().rows()) == {(1,)}  # the kept patch applied
        db.advance_to(8)
        with pytest.raises(StaleViewError):
            view.read()

    def test_unbounded_queue_never_raises(self):
        db, view = self._bounded_view(limit=None)
        assert view.expiration == INFINITY
        for when in (5, 8, 15, 19, 25):
            db.advance_to(when)
            truth = fresh(db, db.table_expr("L").difference(db.table_expr("R")))
            assert set(view.read().rows()) == truth

    def test_refresh_recovers_from_staleness(self):
        db, view = self._bounded_view(limit=1)
        db.advance_to(8)
        with pytest.raises(StaleViewError):
            view.read()
        view.refresh()
        truth = fresh(db, db.table_expr("L").difference(db.table_expr("R")))
        assert set(view.read().rows()) == truth


class TestProbesDoNotGoBackInTime:
    """``contains`` is a read: the forward-only guard applies to it too,
    and an audit that catches the state up moves the guard like a read."""

    def _probed(self, policy=None):
        """Insert (1,) expiring at 5 and (2,) at 50, then read at 10."""
        db = Database()
        db.create_table("L", ["k"])
        db.create_table("R", ["k"])
        if policy is None:  # monotonic: folded by shape
            view = db.materialise("v", db.table_expr("L"))
        else:
            view = db.materialise(
                "v", db.table_expr("L").difference(db.table_expr("R")),
                policy=policy,
            )
        db.table("L").insert((1,), expires_at=5)
        db.table("L").insert((2,), expires_at=50)
        db.advance_to(10)
        assert set(view.read().rows()) == {(2,)}
        return view

    @pytest.mark.parametrize(
        "policy",
        [None, MaintenancePolicy.PATCH, MaintenancePolicy.DELTA],
        ids=["folded", "patched", "folded-difference"],
    )
    def test_contains_before_the_last_read_is_refused(self, policy):
        view = self._probed(policy)
        with pytest.raises(ViewError):
            view.read(at=3)
        with pytest.raises(ViewError):
            view.contains((1,), at=3)
        assert view.contains((2,), at=10) and not view.contains((1,), at=10)

    def test_a_probe_moves_the_guard_like_a_read(self):
        view = self._probed()
        assert view.contains((2,), at=20)
        with pytest.raises(ViewError):
            view.read(at=15)

    def test_an_audit_moves_the_guard_like_a_read(self):
        db = Database()
        db.create_table("L", ["k"])
        db.create_table("R", ["k"])
        view = db.materialise(
            "v", db.table_expr("L").difference(db.table_expr("R")),
            policy=MaintenancePolicy.DELTA,
        )
        db.table("L").insert((1,), expires_at=5)
        db.table("L").insert((2,), expires_at=50)
        assert set(view.read().rows()) == {(1,), (2,)}
        db.advance_to(10)
        assert db.verify() == []  # catches the state up to 10 (and trims)
        with pytest.raises(ViewError):
            view.read(at=3)


class TestOnePatchPerHiddenRow:
    """A hidden row of a folded difference holds one pending patch, however
    often its match is renewed."""

    @pytest.mark.parametrize("limit", [None, 2], ids=["unbounded", "bounded"])
    def test_renewing_the_match_keeps_one_patch(self, limit):
        db = Database()
        db.create_table("L", ["a"])
        db.create_table("R", ["a"])
        db.table("L").insert((1,), expires_at=1000)
        view = db.materialise(
            "v", db.table_expr("L").difference(db.table_expr("R")),
            policy=MaintenancePolicy.DELTA, patch_limit=limit,
        )
        assert view.storage_size == 1
        for _ in range(18):
            db.table("R").insert((1,), expires_at=db.now.value + 15)
            db.tick(10)
            assert list(view.read().rows()) == []
            assert view.storage_size == 1  # the pending patch, nothing else
        assert view.recomputations == 0
