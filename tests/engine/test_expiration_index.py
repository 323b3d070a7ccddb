"""Tests for the engine's expiration index: a Schedule of rows on raw ticks."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import Schedule
from repro.core.timestamps import RAW_INFINITY
from repro.engine.expiration_index import RemovalPolicy


class TestScheduling:
    def test_schedule_and_pop(self):
        index = Schedule()
        index.put((1,), 5)
        index.put((2,), 3)
        assert len(index) == 2
        assert index.pop_due(4) == [((2,), 3)]
        assert len(index) == 1

    def test_pop_order(self):
        index = Schedule()
        for i, texp in enumerate([9, 2, 5]):
            index.put((i,), texp)
        due = index.pop_due(10)
        assert [texp for _, texp in due] == [2, 5, 9]

    def test_infinite_never_scheduled(self):
        index = Schedule()
        index.put((1,), RAW_INFINITY)
        assert len(index) == 0
        assert index.next_due() is None

    def test_next_expiration(self):
        index = Schedule()
        index.put((1,), 7)
        index.put((2,), 3)
        assert index.next_due() == 3

    def test_boundary_inclusive(self):
        # A tuple with texp = τ is expired at τ (exp keeps texp > τ).
        index = Schedule()
        index.put((1,), 5)
        assert index.pop_due(5) == [((1,), 5)]


class TestRescheduling:
    def test_reschedule_replaces(self):
        index = Schedule()
        index.put((1,), 5)
        index.put((1,), 9)  # renewal
        assert index.pop_due(5) == []  # the old bucket entry is stale
        assert index.pop_due(9) == [((1,), 9)]

    def test_reschedule_to_infinity_unschedules(self):
        index = Schedule()
        index.put((1,), 5)
        index.put((1,), RAW_INFINITY)
        assert len(index) == 0
        assert index.pop_due(100) == []

    def test_remove(self):
        index = Schedule()
        index.put((1,), 5)
        index.discard((1,))
        assert len(index) == 0
        assert index.pop_due(10) == []

    def test_next_expiration_skips_tombstones(self):
        index = Schedule()
        index.put((1,), 3)
        index.put((1,), 9)
        assert index.next_due() == 9


class TestPendingAndClear:
    def test_pending(self):
        index = Schedule()
        index.put((1,), 5)
        index.put((2,), 7)
        assert dict(index.items()) == {(1,): 5, (2,): 7}


class TestPolicyEnum:
    def test_values(self):
        assert RemovalPolicy.EAGER.value == "eager"
        assert RemovalPolicy.LAZY.value == "lazy"


class TestMinimumUnderReschedule:
    """``next_due`` after a last-write reschedule (the override path).

    An ``override`` that *shortens* a lifetime reschedules through the same
    entry; a stale minimum here would make the trigger scheduler sleep
    past the new deadline.
    """

    def test_shorten_moves_the_minimum(self):
        index = Schedule()
        index.put((1,), 100)
        index.put((2,), 200)
        assert index.next_due() == 100
        index.put((2,), 40)  # shorten the non-minimum entry
        assert index.next_due() == 40
        index.put((2,), 10)  # shorten the minimum itself
        assert index.next_due() == 10

    def test_lengthen_sole_minimum_recomputes(self):
        index = Schedule()
        index.put((1,), 5)
        index.put((2,), 50)
        assert index.next_due() == 5
        index.put((1,), 500)  # the old minimum moved away
        assert index.next_due() == 50

    def test_to_infinity_and_back(self):
        index = Schedule()
        index.put((1,), 7)
        assert index.next_due() == 7
        index.put((1,), RAW_INFINITY)
        assert index.next_due() is None
        index.put((1,), 3)
        assert index.next_due() == 3


class TestRawPopsAgainstModel:
    """The sweep's pops and the minimum query against a dict model.

    The trace interleaves ``pop_due`` (bounded and unbounded, the sweep
    kernel's path) with ``next_due`` probes after *every* op, so a stale
    minimum cannot hide behind a later pop.
    """

    @settings(max_examples=120, deadline=None)
    @given(
        operations=st.lists(
            st.one_of(
                st.tuples(st.just("schedule"), st.integers(0, 9), st.integers(0, 300)),
                st.tuples(st.just("forever"), st.integers(0, 9), st.just(0)),
                st.tuples(st.just("remove"), st.integers(0, 9), st.just(0)),
                st.tuples(st.just("pop"), st.just(0), st.integers(0, 40)),
                st.tuples(st.just("drain"), st.just(0), st.just(0)),
            ),
            max_size=50,
        ),
    )
    def test_raw_pops_and_minimum_agree(self, operations):
        index = Schedule()
        model = {}
        now = 0
        for op, key, value in operations:
            row = (key,)
            if op == "schedule":
                index.put(row, now + value)
                model[row] = now + value
            elif op == "forever":
                index.put(row, RAW_INFINITY)
                model.pop(row, None)
            elif op == "remove":
                index.discard(row)
                model.pop(row, None)
            else:
                # pop: bounded by the clock; drain: the unbounded sweep
                # path (limit=None).
                if op == "pop":
                    now += value
                limit = now if op == "pop" else None
                due = index.pop_due(limit)
                expected = [
                    (r, t) for r, t in model.items()
                    if limit is None or t <= limit
                ]
                for r, _ in expected:
                    del model[r]
                # Same multiset; ties in texp may order freely, but the
                # pops must come out sorted by texp.
                assert sorted(due) == sorted(expected)
                assert [t for _, t in due] == sorted(t for _, t in due)
            # The trigger scheduler's hot-path query agrees after every op.
            assert index.next_due() == (min(model.values()) if model else None)
            assert len(index) == len(model)
            assert all(r in index for r in model)
        assert dict(index.items()) == model


class TestPropertyBased:
    @settings(max_examples=100, deadline=None)
    @given(
        operations=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=9),  # row key
                st.integers(min_value=1, max_value=30),  # texp
            ),
            max_size=30,
        ),
        checkpoint=st.integers(min_value=0, max_value=35),
    )
    def test_pop_due_matches_model(self, operations, checkpoint):
        """The index agrees with a naive dict model under re-scheduling."""
        index = Schedule()
        model = {}
        for key, texp in operations:
            index.put((key,), texp)
            model[(key,)] = texp  # raw index semantics: last schedule wins
        due = index.pop_due(checkpoint)
        expected = {row for row, texp in model.items() if texp <= checkpoint}
        assert {row for row, _ in due} == expected
        # What remains live matches the model's survivors.
        assert dict(index.items()) == {
            row: texp for row, texp in model.items() if texp > checkpoint
        }
