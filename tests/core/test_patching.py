"""Tests for Theorem 3: priority-queue patching of differences."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patching import (
    DifferencePatcher,
    Patch,
    PatchedDifference,
    compute_difference_with_patches,
)
from repro.core.relation import relation_from_rows
from repro.core.timestamps import INFINITY, ts
from repro.errors import RelationError, StaleViewError

values = st.integers(min_value=0, max_value=4)
texps = st.one_of(st.integers(min_value=1, max_value=15), st.none())


def relations(max_size=8):
    row = st.tuples(values, values)
    return st.lists(st.tuples(row, texps), max_size=max_size).map(
        lambda data: relation_from_rows(["a", "b"], data)
    )


class TestPatcher:
    def test_due_in_order(self):
        patcher = DifferencePatcher(
            [Patch((1,), ts(5), ts(10)), Patch((2,), ts(3), ts(9))]
        )
        assert patcher.peek_due() == ts(3)
        due = patcher.due_patches(5)
        assert [p.row for p in due] == [(2,), (1,)]
        assert len(patcher) == 0

    def test_nothing_due(self):
        patcher = DifferencePatcher([Patch((1,), ts(5), ts(10))])
        assert patcher.due_patches(4) == []
        assert len(patcher) == 1

    def test_infinite_due_never_queued(self):
        patcher = DifferencePatcher([Patch((1,), INFINITY, INFINITY)])
        assert len(patcher) == 0

    def test_apply_skips_already_expired(self):
        patcher = DifferencePatcher([Patch((1,), ts(3), ts(5))])
        target = relation_from_rows(["a"], [])
        # At time 6 the patch is due, but the row has also expired in R.
        assert patcher.apply_to(target, 6) == 0
        assert len(target) == 0

    def test_apply_inserts_with_r_expiration(self):
        patcher = DifferencePatcher([Patch((1,), ts(3), ts(9))])
        target = relation_from_rows(["a"], [])
        assert patcher.apply_to(target, 4) == 1
        assert target.expiration_of((1,)) == ts(9)

    def test_queue_limit_sheds_latest(self):
        patcher = DifferencePatcher(limit=2)
        patcher.add(Patch((1,), ts(3), ts(9)))
        patcher.add(Patch((2,), ts(5), ts(9)))
        patcher.add(Patch((3,), ts(4), ts(9)))
        assert len(patcher) == 2
        # The latest-due patch (due=5) was shed; guarantee shrinks to 5.
        assert patcher.guaranteed_until == ts(5)
        kept = sorted(p.row for p in patcher.due_patches(10))
        assert kept == [(1,), (3,)]
        # A larger limit keeps more patches and guarantees no less.
        kept, guarantees = [], []
        for limit in (0, 1, 2, 3, None):
            patcher = DifferencePatcher(limit=limit)
            for row, due in (((1,), 3), ((2,), 5), ((3,), 4)):
                patcher.add(Patch(row, ts(due), ts(9)))
            kept.append(len(patcher))
            guarantees.append(patcher.guaranteed_until)
        assert kept == [0, 1, 2, 3, 3]
        assert guarantees == sorted(guarantees) and guarantees[-1] == INFINITY

    def test_unlimited_guarantee_is_infinite(self):
        patcher = DifferencePatcher([Patch((1,), ts(3), ts(9))])
        assert patcher.guaranteed_until == INFINITY


class TestComputeWithPatches:
    def test_single_pass_matches_figure3(self, pol, el):
        pol1 = relation_from_rows(["uid"], [(r[:1], t) for r, t in pol.items()])
        el1 = relation_from_rows(["uid"], [(r[:1], t) for r, t in el.items()])
        diff, patcher = compute_difference_with_patches(pol1, el1, tau=0)
        assert set(diff.rows()) == {(3,)}
        # Critical tuples 1 and 2 are queued.
        assert len(patcher) == 2

    def test_storage_bound(self, pol, el):
        # |queue| <= |R ∩ S|.
        pol1 = relation_from_rows(["uid"], [(r[:1], t) for r, t in pol.items()])
        el1 = relation_from_rows(["uid"], [(r[:1], t) for r, t in el.items()])
        _, patcher = compute_difference_with_patches(pol1, el1, tau=0)
        intersection = {row for row in pol1.rows() if row in el1}
        assert len(patcher) <= len(intersection)

    def test_respects_tau(self, pol, el):
        pol1 = relation_from_rows(["uid"], [(r[:1], t) for r, t in pol.items()])
        el1 = relation_from_rows(["uid"], [(r[:1], t) for r, t in el.items()])
        diff, patcher = compute_difference_with_patches(pol1, el1, tau=3)
        # At τ=3, El's uid2 has expired: 2 is in the difference already.
        assert set(diff.rows()) == {(2,), (3,)}
        assert len(patcher) == 1  # only uid 1 still pending


class TestPatchedDifference:
    def test_figure3_walkthrough(self, pol, el):
        pol1 = relation_from_rows(["uid"], [(r[:1], t) for r, t in pol.items()])
        el1 = relation_from_rows(["uid"], [(r[:1], t) for r, t in el.items()])
        view = PatchedDifference(pol1, el1, tau=0)
        assert view.expiration == INFINITY
        assert set(view.view_at(0).rows()) == {(3,)}
        assert set(view.view_at(3).rows()) == {(2,), (3,)}
        assert set(view.view_at(5).rows()) == {(1,), (2,), (3,)}
        # uids 1 and 3 expire in Pol at 10; uid 2 lives to 15.
        assert set(view.view_at(10).rows()) == {(2,)}
        assert set(view.view_at(15).rows()) == set()

    def test_no_time_travel(self, pol, el):
        pol1 = relation_from_rows(["uid"], [(r[:1], t) for r, t in pol.items()])
        el1 = relation_from_rows(["uid"], [(r[:1], t) for r, t in el.items()])
        view = PatchedDifference(pol1, el1, tau=0)
        view.view_at(5)
        with pytest.raises(RelationError):
            view.view_at(4)

    def test_truncated_queue_raises_when_stale(self):
        left = relation_from_rows(["a"], [((1,), 20), ((2,), 20)])
        right = relation_from_rows(["a"], [((1,), 5), ((2,), 8)])
        view = PatchedDifference(left, right, tau=0, limit=1)
        assert view.expiration == ts(8)
        view.view_at(7)
        with pytest.raises(StaleViewError):
            view.view_at(8)

    def test_storage_size(self, pol, el):
        pol1 = relation_from_rows(["uid"], [(r[:1], t) for r, t in pol.items()])
        el1 = relation_from_rows(["uid"], [(r[:1], t) for r, t in el.items()])
        view = PatchedDifference(pol1, el1, tau=0)
        assert view.storage_size == 1 + 2  # one result tuple + two patches

    @settings(max_examples=150, deadline=None)
    @given(
        left=relations(),
        right=relations(),
        times=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=8),
    )
    def test_theorem3_patched_view_always_equals_recomputation(
        self, left, right, times
    ):
        """Theorem 3 end to end: the patched view at ANY later time equals
        a fresh difference computed at that time -- zero recomputations."""
        view = PatchedDifference(left, right, tau=0)
        assert view.expiration == INFINITY
        for when in sorted(times):
            visible_left = left.exp_at(when)
            visible_right = right.exp_at(when)
            truth = {
                row: texp
                for row, texp in visible_left.items()
                if visible_right.expiration_or_none(row) is None
            }
            got = view.view_at(when)
            assert set(got.rows()) == set(truth)
            for row, texp in truth.items():
                assert got.expiration_of(row) == texp


class TestBoundedHeap:
    """The shedding path of a size-limited patcher."""

    def test_interleaved_add_pop_and_shed(self):
        patcher = DifferencePatcher(limit=2)
        patcher.add(Patch((1,), ts(2), ts(50)))
        patcher.add(Patch((2,), ts(9), ts(50)))
        patcher.add(Patch((3,), ts(4), ts(50)))  # sheds the due=9 patch
        assert patcher.guaranteed_until == ts(9)
        assert len(patcher) == 2
        assert [p.row for p in patcher.due_patches(2)] == [(1,)]
        assert len(patcher) == 1
        patcher.add(Patch((4,), ts(6), ts(50)))
        assert len(patcher) == 2
        patcher.add(Patch((5,), ts(3), ts(50)))  # sheds the due=6 patch
        assert patcher.guaranteed_until == ts(6)
        assert patcher.peek_due() == ts(3)
        assert [p.row for p in patcher.due_patches(10)] == [(5,), (3,)]
        assert len(patcher) == 0

    def test_applied_patches_are_never_shed(self):
        # A patch already popped as due must not be selected for shedding:
        # that would silently drop a live patch and wrongly lower the
        # guarantee horizon to a time that has already passed.
        patcher = DifferencePatcher(limit=2)
        patcher.add(Patch((1,), ts(10), ts(50)))
        patcher.add(Patch((2,), ts(11), ts(50)))
        assert [p.row for p in patcher.due_patches(11)] == [(1,), (2,)]
        patcher.add(Patch((3,), ts(3), ts(50)))
        patcher.add(Patch((4,), ts(4), ts(50)))
        # Queue is exactly at its limit with two live patches; the popped
        # due=10/11 entries are ghosts and must not count or be shed.
        assert len(patcher) == 2
        assert patcher.guaranteed_until == INFINITY
        assert [p.row for p in patcher.due_patches(5)] == [(3,), (4,)]

    def test_peek_skips_shed_entries(self):
        patcher = DifferencePatcher(limit=1)
        patcher.add(Patch((1,), ts(5), ts(50)))
        patcher.add(Patch((2,), ts(3), ts(50)))  # sheds due=5
        assert patcher.peek_due() == ts(3)
        assert len(patcher) == 1
        assert [p.row for p in patcher.due_patches(10)] == [(2,)]
        assert patcher.peek_due() is None

    @given(
        dues=st.lists(st.integers(min_value=1, max_value=30), max_size=40),
        limit=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=200, deadline=None)
    def test_keeps_earliest_patches(self, dues, limit):
        patcher = DifferencePatcher(limit=limit)
        for i, due in enumerate(dues):
            patcher.add(Patch((i,), ts(due), ts(100)))
        shed = sorted(dues)[limit:]
        expected_horizon = ts(min(shed)) if shed else INFINITY
        assert patcher.guaranteed_until == expected_horizon
        # The earliest patches, less any due at the horizon: a whole tick
        # is shed at once, and a read at the horizon is refused anyway.
        kept = sorted(p.due.value for p in patcher.due_patches(1000))
        assert kept == [d for d in sorted(dues)[:limit] if ts(d) < expected_horizon]
        assert len(patcher) == 0

    def test_sheds_the_whole_latest_tick(self):
        patcher = DifferencePatcher(limit=2)
        patcher.add(Patch((1,), ts(5), ts(50)))
        patcher.add(Patch((2,), ts(5), ts(50)))
        patcher.add(Patch((3,), ts(3), ts(50)))  # over the limit: tick 5 goes
        assert len(patcher) == 1
        assert patcher.guaranteed_until == ts(5)
        patcher.add(Patch((4,), ts(7), ts(50)))  # past the horizon: dropped
        assert len(patcher) == 1
        assert [p.row for p in patcher.due_patches(10)] == [(3,)]


class TestOnePatchPerRow:
    def test_requeued_row_replaces_its_patch(self):
        patcher = DifferencePatcher()
        patcher.add(Patch((1,), ts(3), ts(50)))
        patcher.add(Patch((1,), ts(8), ts(60)))  # its match was renewed
        assert len(patcher) == 1
        assert patcher.peek_due() == ts(8)
        assert patcher.due_patches(5) == []
        assert patcher.due_patches(8) == [Patch((1,), ts(8), ts(60))]

    def test_infinite_due_drops_the_pending_patch(self):
        patcher = DifferencePatcher()
        patcher.add(Patch((1,), ts(3), ts(50)))
        patcher.add(Patch((1,), INFINITY, ts(50)))  # its match became immortal
        assert len(patcher) == 0
        assert patcher.peek_due() is None
