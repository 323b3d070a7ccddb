"""Tests for approximate aggregates with error bounds (§5 extension)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import (
    AvgAggregate,
    CountAggregate,
    MinAggregate,
    SumAggregate,
    exact_expiration,
    get_aggregate,
)
from repro.core.approximate import (
    EXACT_TOLERANCE,
    AbsoluteTolerance,
    RelativeTolerance,
    approximate_expiration,
    approximate_validity,
)
from repro.core.intervals import IntervalSet
from repro.core.timestamps import INFINITY, ts
from repro.errors import AggregateError


def items(*pairs):
    return [(value, ts(texp)) for value, texp in pairs]


def max_observed_error(partition, function, tau, until):
    """The largest drift of the true value from the value at ``tau`` over
    ``[tau, until)`` while the partition lives, tick by tick: the error
    actually incurred by serving the ``tau`` value that long."""
    last = max((texp.value for _, texp in partition if texp.is_finite),
               default=tau.value + 1)
    reported, worst = None, 0
    for tick in range(tau.value, last):
        if not ts(tick) < until:
            break
        live = [value for value, texp in partition if texp > ts(tick)]
        if not live:
            break
        value = function.apply(live)
        if reported is None:
            reported = value
        worst = max(worst, abs(value - reported))
    return worst


class TestTolerances:
    def test_absolute(self):
        tolerance = AbsoluteTolerance(2)
        assert tolerance.accepts(10, 12)
        assert tolerance.accepts(10, 8)
        assert not tolerance.accepts(10, 13)

    def test_relative(self):
        tolerance = RelativeTolerance(0.1)
        assert tolerance.accepts(100, 109)
        assert not tolerance.accepts(100, 111)

    def test_none_values(self):
        assert AbsoluteTolerance(5).accepts(None, None)
        assert not AbsoluteTolerance(5).accepts(10, None)
        assert not AbsoluteTolerance(5).accepts(None, 10)

    def test_negative_rejected(self):
        with pytest.raises(AggregateError):
            AbsoluteTolerance(-1)
        with pytest.raises(AggregateError):
            RelativeTolerance(-0.5)


class TestApproximateExpiration:
    def test_zero_tolerance_equals_exact(self):
        partition = items((5, 3), (8, 10), (20, 30))
        for function in (MinAggregate(), SumAggregate(), CountAggregate()):
            assert approximate_expiration(
                partition, function, ts(0), EXACT_TOLERANCE
            ) == exact_expiration(partition, function, ts(0))

    def test_tolerance_extends_expiration(self):
        # sum: 10 -> 7 at t=3 -> 5 at t=6; with epsilon=3 the first change
        # (drift 3) is acceptable, the second (drift 5) is not.
        partition = items((3, 3), (2, 6), (5, 30))
        exact = approximate_expiration(partition, SumAggregate(), ts(0), EXACT_TOLERANCE)
        loose = approximate_expiration(
            partition, SumAggregate(), ts(0), AbsoluteTolerance(3)
        )
        assert exact == ts(3)
        assert loose == ts(6)

    def test_wide_tolerance_survives_to_partition_death(self):
        partition = items((3, 3), (2, 6), (5, 30))
        very_loose = approximate_expiration(
            partition, SumAggregate(), ts(0), AbsoluteTolerance(100)
        )
        assert very_loose == ts(30)

    def test_partition_death_always_expires(self):
        # No tolerance keeps a tuple past the data.
        partition = items((1, 5), (2, 5))
        assert approximate_expiration(
            partition, SumAggregate(), ts(0), AbsoluteTolerance(10**9)
        ) == ts(5)

    def test_immortal_partition_with_stable_value(self):
        partition = items((1, None), (9, 5))
        assert approximate_expiration(
            partition, MinAggregate(), ts(0), EXACT_TOLERANCE
        ) == INFINITY

    def test_count_with_tolerance(self):
        # count 3 -> 2 -> 1; epsilon=1 tolerates losing one member.
        partition = items((1, 3), (1, 6), (1, 9))
        assert approximate_expiration(
            partition, CountAggregate(), ts(0), AbsoluteTolerance(1)
        ) == ts(6)

    def test_empty_partition_rejected(self):
        with pytest.raises(AggregateError):
            approximate_expiration([], SumAggregate(), ts(0), EXACT_TOLERANCE)

    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(
            st.tuples(st.integers(-5, 9), st.integers(1, 20)), min_size=1, max_size=8
        ),
        epsilon=st.integers(0, 10),
        function_name=st.sampled_from(["min", "max", "sum", "count", "avg"]),
    )
    def test_monotone_in_tolerance(self, values, epsilon, function_name):
        partition = items(*values)
        function = get_aggregate(function_name)
        tight = approximate_expiration(partition, function, ts(0), AbsoluteTolerance(epsilon))
        loose = approximate_expiration(
            partition, function, ts(0), AbsoluteTolerance(epsilon + 3)
        )
        assert tight <= loose
        exact = approximate_expiration(partition, function, ts(0), EXACT_TOLERANCE)
        assert exact <= tight
        # Zero tolerance is Equation (9); what is served before the
        # approximate expiration strays at most epsilon from the truth.
        assert exact == exact_expiration(partition, function, ts(0))
        assert max_observed_error(partition, function, ts(0), tight) <= epsilon


class TestApproximateValidity:
    def test_band_widens_validity(self):
        partition = items((3, 3), (2, 6), (5, 30))
        exact = approximate_validity(partition, SumAggregate(), ts(0), EXACT_TOLERANCE)
        loose = approximate_validity(
            partition, SumAggregate(), ts(0), AbsoluteTolerance(3)
        )
        assert exact == IntervalSet.from_pairs([(0, 3)])
        assert loose == IntervalSet.from_pairs([(0, 6)])
        assert (exact - loose).is_empty

    def test_value_returning_to_band(self):
        # sum 10 -> 5 -> 10: the out-of-band middle window is excluded.
        partition = items((5, 3), (-5, 7), (10, None))
        validity = approximate_validity(
            partition, SumAggregate(), ts(0), AbsoluteTolerance(1)
        )
        assert validity == IntervalSet.from_pairs([(0, 3), (7, None)])


class TestObservedError:
    def test_bounded_by_tolerance_within_expiration(self):
        partition = items((3, 3), (2, 6), (5, 30))
        tolerance = AbsoluteTolerance(3)
        expiration = approximate_expiration(partition, SumAggregate(), ts(0), tolerance)
        worst = max_observed_error(partition, SumAggregate(), ts(0), expiration)
        assert worst <= 3

    def test_error_grows_past_expiration(self):
        partition = items((3, 3), (2, 6), (5, 30))
        worst = max_observed_error(partition, SumAggregate(), ts(0), ts(30))
        assert worst == 5
