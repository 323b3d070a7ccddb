"""The revocation path: ``Table.override`` (last-write) vs ``renew``.

Max-merge ``renew`` can only ever lengthen a lifetime (re-insertion under
the paper's duplicate rule), so revocation/lockout semantics need the
explicit ``override`` escape hatch: set the stored expiration exactly,
including to *now* for an immediate revoke.  These tests pin the whole
discipline -- index reschedule, views, WAL replay, the partitioned/lazy
interleavings -- because the original bug was precisely an override-shaped
call silently routed through max-merge.
"""

import pytest

from repro.core.timestamps import FOREVER, ts
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.views import MaintenancePolicy
from repro.engine.recovery import recover_database
from repro.errors import EngineError, RelationError


def make_table(db, **kwargs):
    return db.create_table("T", ["k", "v"], **kwargs)


LAYOUTS = [
    {},  # flat, row layout
    {"layout": "columnar"},
    {"partitions": 4, "partition_key": "k"},
    {"partitions": 4, "partition_key": "k", "layout": "columnar"},
]
POLICIES = [RemovalPolicy.EAGER, RemovalPolicy.LAZY]


class TestOverrideSemantics:
    def test_renew_is_max_merge_but_override_is_last_write(self):
        db = Database()
        table = make_table(db)
        table.insert((1, 1), ttl=100)
        table.renew((1, 1), 10)  # shorter: max-merge keeps 100
        assert table.relation.expiration_of((1, 1)) == ts(100)
        table.override((1, 1), expires_at=10)  # last-write: shortens
        assert table.relation.expiration_of((1, 1)) == ts(10)
        table.override((1, 1), ttl=500)
        assert table.relation.expiration_of((1, 1)) == ts(500)

    @pytest.mark.parametrize("kwargs", LAYOUTS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_revoke_to_now_is_invisible_then_reclaimed(self, kwargs, policy):
        db = Database()
        table = make_table(db, removal_policy=policy, **kwargs)
        for i in range(8):
            table.insert((i, i), ttl=100)
        table.override((3, 3), expires_at=db.now)
        # Invisible to every read the moment the override commits...
        assert (3, 3) not in table.read()
        assert len(table) == 7
        assert db.verify(strict=True, deep=True) == []
        # ...and physically reclaimed once a sweep runs.
        db.tick(1)
        if policy is RemovalPolicy.LAZY:
            table.vacuum()
        assert table.physical_size == 7
        assert db.verify(strict=True, deep=True) == []

    def test_override_into_the_past_is_rejected(self):
        db = Database()
        table = make_table(db)
        db.tick(10)
        table.insert((1, 1), ttl=100)
        with pytest.raises(RelationError, match="past"):
            table.override((1, 1), expires_at=5)

    def test_override_argument_validation(self):
        db = Database()
        table = make_table(db)
        table.insert((1, 1), ttl=5)
        with pytest.raises(EngineError, match="not both"):
            table.override((1, 1), expires_at=10, ttl=10)
        with pytest.raises(EngineError, match="non-negative"):
            table.override((1, 1), ttl=-1)

    def test_override_inserts_when_absent_and_can_pin_forever(self):
        db = Database()
        table = make_table(db)
        table.override((1, 1), ttl=7)  # absent row: an upsert
        assert table.relation.expiration_of((1, 1)) == ts(7)
        table.override((1, 1))  # no deadline: pinned immortal
        assert table.relation.expiration_of((1, 1)) == FOREVER

    def test_override_counts_in_statistics(self):
        db = Database()
        table = make_table(db)
        table.insert((1, 1), ttl=5)
        table.override((1, 1), ttl=3)
        assert table.statistics.overrides == 1
        assert db.statistics.overrides == 1


class TestRenewDueInterleavings:
    def test_renew_after_due_before_sweep_on_partitioned_lazy(self):
        # The row comes due, sits in the lazy due buffer, then is renewed
        # before the batch vacuum runs: the renewal reclaims the lapsed
        # incarnation and admits a fresh one, which the sweep must skip
        # (its buffered entry is stale), and the audit must stay clean.
        db = Database()
        table = make_table(
            db, removal_policy=RemovalPolicy.LAZY, lazy_batch_size=1_000,
            partitions=4, partition_key="k",
        )
        for i in range(16):
            table.insert((i, i), expires_at=10)
        db.advance_to(10)  # all due, buffered, batch threshold not reached
        assert table.physical_size == 16
        table.renew((5, 5), 90)  # re-arm one of the buffered rows
        swept = table.vacuum()
        assert swept == 15  # everything but the renewed row
        assert (5, 5) in table.read()
        assert table.relation.expiration_of((5, 5)) == ts(100)
        assert db.verify(strict=True, deep=True) == []

    def test_override_after_due_before_sweep_extends_life(self):
        db = Database()
        table = make_table(
            db, removal_policy=RemovalPolicy.LAZY, lazy_batch_size=1_000
        )
        table.insert((1, 1), expires_at=5)
        db.advance_to(5)
        table.override((1, 1), ttl=50)  # re-admit the buffered row
        assert table.vacuum() == 0
        assert (1, 1) in table.read()
        assert db.verify(strict=True, deep=True) == []


class TestViewsObserveRevocation:
    def test_materialised_view_drops_revoked_row_without_manual_refresh(self):
        db = Database()
        table = make_table(db)
        for i in range(4):
            table.insert((i, i), ttl=100)
        from repro.core.algebra.expressions import BaseRef

        view = db.materialise("V", BaseRef("T"))
        assert (2, 2) in view.read()
        table.override((2, 2), expires_at=db.now)  # revoke, don't refresh
        assert (2, 2) not in view.read()
        assert view.contains((1, 1))
        assert not view.contains((2, 2))
        assert db.verify(strict=True, deep=True) == []

    def test_incremental_view_observes_override(self):
        db = Database()
        left = db.create_table("L", ["a", "b"])
        right = db.create_table("R", ["c", "d"])
        from repro.core.algebra.expressions import BaseRef

        view = db.materialise(
            "J",
            BaseRef("L").join(BaseRef("R"), on=[("b", "c")]).project("a", "d"),
        )
        left.insert((1, 10), ttl=100)
        right.insert((10, 99), ttl=100)
        assert view.contains((1, 99))
        left.override((1, 10), expires_at=db.now)  # revoke one side
        assert not view.contains((1, 99))
        assert db.verify(strict=True, deep=True) == []


class TestOverrideDurability:
    @pytest.mark.parametrize("partitioned", [False, True])
    def test_revoke_then_crash_replays_the_shortened_expiration(
        self, tmp_path, partitioned
    ):
        db = Database(wal_dir=tmp_path)
        kwargs = {"partitions": 4, "partition_key": "k"} if partitioned else {}
        table = make_table(db, **kwargs)
        for i in range(6):
            table.insert((i, i), expires_at=100)
        db.tick(2)
        table.override((4, 4), expires_at=7)   # shorten
        table.override((5, 5), expires_at=db.now)  # revoke outright
        db.close()

        recovered = recover_database(tmp_path)
        t = recovered.table("T")
        assert t.relation.expiration_of((4, 4)) == ts(7)  # not max-merged back
        assert (5, 5) not in t.read()  # the revocation survived the crash
        assert set(t.read().rows()) == {(i, i) for i in range(5)}
        assert recovered.verify(strict=True, deep=True) == []
        recovered.tick(10)
        assert (4, 4) not in t.read()  # the shortened deadline is live
        recovered.close()

    def test_override_then_checkpoint_then_crash(self, tmp_path):
        db = Database(wal_dir=tmp_path)
        table = make_table(db)
        table.insert((1, 1), expires_at=100)
        table.override((1, 1), expires_at=30)
        db.checkpoint()
        table.override((1, 1), expires_at=9)  # post-snapshot, log-only
        db.close()

        recovered = recover_database(tmp_path)
        assert recovered.table("T").relation.expiration_of((1, 1)) == ts(9)
        assert recovered.verify(strict=True, deep=True) == []
        recovered.close()


class TestPointProbes:
    def test_materialised_contains_tracks_expiration(self):
        db = Database()
        table = make_table(db)
        table.insert((1, 1), expires_at=10)
        from repro.core.algebra.expressions import BaseRef

        view = db.materialise("V", BaseRef("T"))
        assert view.contains((1, 1))
        assert not view.contains((9, 9))
        assert not view.contains((1, 1), at=10)  # texp is exclusive
        db.advance_to(10)
        assert not view.contains((1, 1))

    def test_incremental_contains_tracks_expiration(self):
        db = Database()
        table = make_table(db)
        from repro.core.algebra.expressions import BaseRef

        view = db.materialise("V", BaseRef("T").project("k", "v"))
        table.insert((1, 1), expires_at=10)  # O(delta) propagation
        assert view.contains((1, 1))
        assert not view.contains((1, 1), at=10)
        db.advance_to(10)
        assert not view.contains((1, 1))


class TestViewsObserveShortening:
    """Last-write *shortening* (not just revoke-to-now) reaches deltas.

    An override that moves a lifetime earlier -- but still into the
    future -- invalidates patch schedules the incremental maintenance
    derived from the old ``texp``.  Each view kind (monotonic,
    difference, aggregate) must track a fresh evaluation across the new
    and the old deadline alike.
    """

    @staticmethod
    def _fresh(db, expression):
        return set(db.evaluate(expression).relation.rows())

    def test_monotonic_view_tracks_shortened_row(self):
        from repro.core.algebra.expressions import BaseRef

        db = Database()
        table = make_table(db)
        table.insert((1, 1), ttl=100)
        table.insert((2, 2), ttl=100)
        view = db.materialise("V", BaseRef("T").project("k"))
        assert set(view.read().rows()) == {(1,), (2,)}
        table.override((2, 2), expires_at=5)  # shorten, still alive
        db.advance_to(4)
        assert set(view.read().rows()) == {(1,), (2,)}
        db.advance_to(5)  # the *new* deadline, well before the old one
        assert set(view.read().rows()) == {(1,)}
        assert db.verify(strict=True, deep=True) == []

    def test_difference_view_tracks_shortened_match(self):
        db = Database()
        db.create_table("L", ["a", "b"])
        db.create_table("R2", ["a", "b"])
        expr = db.table_expr("L").difference(db.table_expr("R2"))
        view = db.materialise("V", expr, policy=MaintenancePolicy.DELTA)
        db.table("L").insert((1, 1), ttl=100)
        db.table("R2").insert((1, 1), ttl=50)  # knocks the tuple out
        assert set(view.read().rows()) == set()
        # Shorten the match: the re-appearance patch must move earlier.
        db.table("R2").override((1, 1), expires_at=10)
        for when in (5, 10, 20, 50, 100):
            db.advance_to(when)
            assert set(view.read().rows()) == self._fresh(db, expr), when
        assert db.verify(strict=True, deep=True) == []

    def test_aggregate_view_tracks_shortened_member(self):
        from repro.core.aggregates import ExpirationStrategy

        db = Database()
        db.create_table("G", ["k", "g"])
        expr = db.table_expr("G").aggregate(
            group_by=[2], function="count",
            strategy=ExpirationStrategy.EXACT,
        )
        view = db.materialise("V", expr, policy=MaintenancePolicy.DELTA)
        db.table("G").insert((1, 7), ttl=100)
        db.table("G").insert((2, 7), ttl=100)
        assert set(view.read().rows()) == {(1, 7, 2), (2, 7, 2)}
        db.table("G").override((2, 7), expires_at=6)  # count drops at 6
        for when in (3, 6, 50, 100):
            db.advance_to(when)
            assert set(view.read().rows()) == self._fresh(db, expr), when
        assert db.verify(strict=True, deep=True) == []
