"""The one expiration schedule against a dict model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import Schedule
from repro.core.timestamps import RAW_INFINITY

KEYS = st.integers(0, 7)
TICKS = st.one_of(st.integers(1, 60), st.just(RAW_INFINITY))
PAIRS = st.lists(st.tuples(KEYS, TICKS), max_size=12)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), KEYS, TICKS),  # raises, lowers, or ∞
        st.tuples(st.just("merge"), KEYS, TICKS),  # caller-side max-merge
        st.tuples(st.just("discard"), KEYS, st.just(0)),
        st.tuples(st.just("pop"), st.just(0), st.integers(0, 60)),
        st.tuples(st.just("drain"), st.just(0), st.just(0)),
        st.tuples(st.just("bulk"), PAIRS, st.just(0)),
        st.tuples(st.just("bulk_sorted"), PAIRS, st.just(0)),
    ),
    max_size=60,
)


def parked(schedule):
    """Bucket entries: held keys plus stale entries of moved keys."""
    return sum(len(bucket) for bucket in schedule.buckets.values())


class TestAgainstADictModel:
    @settings(max_examples=300, deadline=None)
    @given(operations=OPS)
    def test_every_op_agrees_with_the_model(self, operations):
        schedule = Schedule()
        model = {}
        entries = []  # the tick of every bucket entry a put may have left

        def hold(key, tick):
            if tick == RAW_INFINITY:
                model.pop(key, None)
            elif model.get(key) != tick:
                model[key] = tick
                entries.append(tick)

        for op, arg, value in operations:
            if op == "put":
                schedule.put(arg, value)
                hold(arg, value)
            elif op == "merge":
                if (t := schedule.get(arg)) is None or t < value:
                    schedule.put(arg, value)
                    hold(arg, value)
            elif op == "discard":
                schedule.discard(arg)
                model.pop(arg, None)
            elif op == "bulk":  # unordered, into whatever is loaded
                schedule.bulk_put(arg)
                for key, tick in arg:
                    hold(key, tick)
            elif op == "bulk_sorted":  # in order into an empty schedule
                schedule, model, entries = Schedule(), {}, []
                pairs = sorted(arg, key=lambda pair: pair[1])
                schedule.bulk_put(pairs)
                for key, tick in pairs:
                    hold(key, tick)
            else:
                limit = value if op == "pop" else None
                due = schedule.pop_due(limit)
                expected = sorted(
                    (key, tick) for key, tick in model.items()
                    if limit is None or tick <= limit
                )
                assert sorted(due) == expected
                assert [t for _, t in due] == sorted(t for _, t in due)
                for key, _ in due:
                    del model[key]
                # Every entry at a passed tick is reclaimed, stale or not.
                bound = RAW_INFINITY if limit is None else limit
                assert all(tick > bound for tick in schedule.buckets)
                entries = [tick for tick in entries if tick > bound]
            assert schedule.next_due() == (min(model.values()) if model else None)
            assert len(schedule) == len(model)
            assert all(key in schedule for key in model)
            assert all(schedule.get(key) == tick for key, tick in model.items())
            assert sorted(schedule.heap) == sorted(schedule.buckets)
            # One entry per held key, plus at most one per move whose old
            # tick has not come up yet -- and nothing else, ever.
            assert len(model) <= parked(schedule) <= len(entries)
        assert dict(schedule.items()) == model


class TestBulkPut:
    def test_only_new_ticks_join_a_loaded_heap(self):
        schedule = Schedule()
        schedule.bulk_put(((k,), k) for k in range(1, 1001))
        schedule.bulk_put([((0,), 5000), ((1,), 3)])  # tick 3 has a bucket
        assert len(schedule.heap) == 1001
        assert schedule.next_due() == 2  # (1,) moved from 1 to 3
        assert schedule.pop_due(3) == [((2,), 2), ((3,), 3), ((1,), 3)]

    def test_last_write_wins_within_a_batch(self):
        schedule = Schedule()
        schedule.bulk_put([("a", 9), ("a", 4), ("b", 7), ("b", RAW_INFINITY)])
        assert dict(schedule.items()) == {"a": 4}

    def test_same_tick_is_a_no_op(self):
        schedule = Schedule()
        for _ in range(10):
            schedule.put("a", 5)
        assert parked(schedule) == 1
        assert schedule.pop_due(5) == [("a", 5)]
        assert parked(schedule) == 0 and schedule.heap == []
