"""Tests for aggregation (Section 2.6.1): Equations (7)-(9) and Table 1."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import (
    AggregateFunction,
    AvgAggregate,
    CountAggregate,
    ExpirationStrategy,
    MaxAggregate,
    MinAggregate,
    SumAggregate,
    change_points,
    conservative_expiration,
    contributing_set,
    exact_expiration,
    get_aggregate,
    known_aggregates,
    neutral_set_expiration,
    partition_head,
    partition_invalidation_time,
    register_aggregate,
    strategy_expiration,
    time_sliced_sets,
    timeline_steps,
    tuple_validity_intervals,
    value_timeline,
)
from repro.core.algebra.evaluator import evaluate
from repro.core.algebra.expressions import BaseRef, Literal
from repro.core.intervals import Interval, IntervalSet
from repro.core.relation import relation_from_rows
from repro.core.timestamps import INFINITY, ts, ts_max
from repro.errors import AggregateError, AlgebraError


def items(*pairs):
    """Build partition items [(value, texp), ...] with int/None texps."""
    return [(value, ts(texp)) for value, texp in pairs]


class TestAggregateFunctions:
    def test_registry(self):
        assert set(known_aggregates()) >= {"min", "max", "sum", "count", "avg"}
        assert get_aggregate("COUNT").name == "count"
        with pytest.raises(AggregateError):
            get_aggregate("median")

    def test_apply(self):
        assert MinAggregate().apply([3, 1, 2]) == 1
        assert MaxAggregate().apply([3, 1, 2]) == 3
        assert SumAggregate().apply([3, 1, 2]) == 6
        assert CountAggregate().apply([3, 1, 2]) == 3
        assert AvgAggregate().apply([1, 2]) == Fraction(3, 2)

    def test_avg_is_exact(self):
        assert AvgAggregate().apply([1, 1, 1]) == 1

    def test_custom_registration(self):
        from repro.core.aggregates import AggregateFunction

        class Product(AggregateFunction):
            name = "product"

            def apply(self, values):
                result = 1
                for value in values:
                    result *= value
                return result

            def is_neutral(self, subset, partition):
                return all(value == 1 for value, _ in subset)

        register_aggregate(Product())
        assert get_aggregate("product").apply([2, 3]) == 6


class TestConservative:
    def test_equation_8(self):
        assert conservative_expiration(items((5, 10), (7, 3))) == ts(3)

    def test_empty_partition_rejected(self):
        with pytest.raises(AggregateError):
            conservative_expiration([])


class TestTimeSlicedSets:
    def test_grouped_by_expiration(self):
        slices = time_sliced_sets(items((1, 5), (2, 5), (3, 9)))
        assert [len(s) for s in slices] == [2, 1]

    def test_ordered_by_time_with_infinite_last(self):
        slices = time_sliced_sets(items((1, 9), (2, None), (3, 5)))
        assert [s[0][1] for s in slices] == [ts(5), ts(9), INFINITY]


class TestNeutralSets:
    def test_min_ignores_larger_values(self):
        # Partition: min is 1@20; the 5@3 tuple is neutral for min.
        partition = items((5, 3), (1, 20))
        assert neutral_set_expiration(partition, MinAggregate()) == ts(20)
        assert conservative_expiration(partition) == ts(3)

    def test_min_duplicate_minimal_values(self):
        # Two minimal tuples: the earlier-expiring one is neutral.
        partition = items((1, 3), (1, 20))
        assert neutral_set_expiration(partition, MinAggregate()) == ts(20)

    def test_min_contributing_blocks_when_value_would_change(self):
        # The earliest slice holds the unique minimum -> not neutral.
        partition = items((1, 3), (5, 20))
        assert neutral_set_expiration(partition, MinAggregate()) == ts(3)

    def test_max_mirror(self):
        partition = items((5, 3), (9, 20))
        assert neutral_set_expiration(partition, MaxAggregate()) == ts(20)
        partition2 = items((9, 3), (5, 20))
        assert neutral_set_expiration(partition2, MaxAggregate()) == ts(3)

    def test_sum_zero_slices_are_neutral(self):
        # The @3 slice sums to zero: neutral for sum.
        partition = items((5, 3), (-5, 3), (7, 20))
        assert neutral_set_expiration(partition, SumAggregate()) == ts(20)
        assert conservative_expiration(partition) == ts(3)

    def test_sum_nonzero_slice_blocks(self):
        partition = items((5, 3), (7, 20))
        assert neutral_set_expiration(partition, SumAggregate()) == ts(3)

    def test_sum_all_zero_holds_until_partition_dies(self):
        # Cf,P = ∅: the value holds until the whole partition expires.
        partition = items((0, 3), (0, 7))
        assert neutral_set_expiration(partition, SumAggregate()) == ts(7)

    def test_count_strictly_follows_equation_8(self):
        partition = items((5, 3), (7, 20))
        assert neutral_set_expiration(partition, CountAggregate()) == ts(3)
        assert conservative_expiration(partition) == ts(3)

    def test_avg_preserving_slice_is_neutral(self):
        # Slice {4@3} has mean 4 == partition mean {4,2,6} -> neutral.
        partition = items((4, 3), (2, 9), (6, 9))
        assert neutral_set_expiration(partition, AvgAggregate()) == ts(9)

    def test_contributing_set_stops_at_first_non_neutral_slice(self):
        # Slice @3 is neutral for sum, slice @5 is not; slice @7 after a
        # non-neutral slice must not be dropped even though it sums to 0.
        partition = items((0, 3), (5, 5), (0, 7), (9, 9))
        contributors = contributing_set(partition, SumAggregate())
        assert sorted(int(t) for _, t in contributors) == [5, 7, 9]


class TestExactChangePoints:
    def test_value_timeline_min(self):
        partition = items((1, 5), (3, 10))
        timeline = value_timeline(partition, MinAggregate(), ts(0))
        assert [(str(iv), v) for iv, v in timeline] == [
            ("[0, 5)", 1),
            ("[5, 10)", 3),
        ]

    def test_value_timeline_merges_no_change(self):
        # The 9@5 expiry does not change the min.
        partition = items((1, 10), (9, 5))
        timeline = value_timeline(partition, MinAggregate(), ts(0))
        assert [(str(iv), v) for iv, v in timeline] == [("[0, 10)", 1)]

    def test_value_timeline_immortal_tail(self):
        partition = items((1, None), (9, 5))
        timeline = value_timeline(partition, MinAggregate(), ts(0))
        assert timeline[-1][0].end == INFINITY

    def test_exact_expiration_is_first_change(self):
        partition = items((1, 5), (3, 10))
        assert exact_expiration(partition, MinAggregate(), ts(0)) == ts(5)

    def test_exact_expiration_partition_death(self):
        partition = items((1, 5), (1, 5))
        assert exact_expiration(partition, MinAggregate(), ts(0)) == ts(5)

    def test_exact_expiration_never_changes(self):
        partition = items((1, None), (9, 5))
        # 9 expiring never changes the min and 1 never expires.
        assert exact_expiration(partition, MinAggregate(), ts(0)) == INFINITY

    def test_sum_value_can_return(self):
        # sum over {5@3, -5@7, 10@∞}: 10 -> 5 -> 10.
        partition = items((5, 3), (-5, 7), (10, None))
        timeline = value_timeline(partition, SumAggregate(), ts(0))
        values = [v for _, v in timeline]
        assert values == [10, 5, 10]

    def test_change_points_bounded_by_partition_size(self):
        partition = items((1, 2), (2, 4), (3, 6), (4, 8))
        points = change_points(partition, SumAggregate(), ts(0))
        assert len(points) <= len(partition)

    def test_tuple_validity_intervals_include_return(self):
        partition = items((5, 3), (-5, 7), (10, None))
        validity = tuple_validity_intervals(partition, SumAggregate(), ts(0))
        assert validity == IntervalSet.from_pairs([(0, 3), (7, None)])

    def test_fully_expired_partition_rejected(self):
        with pytest.raises(AggregateError):
            exact_expiration(items((1, 3)), MinAggregate(), ts(5))


class TestStrategyOrdering:
    def test_conservative_leq_neutral_leq_exact(self):
        partitions = [
            items((5, 3), (1, 20)),
            items((0, 3), (0, 7)),
            items((5, 3), (-5, 3), (7, 20)),
            items((2, 4), (2, 9), (2, 13)),
            items((1, 2), (3, 5), (2, 8)),
        ]
        for function_name in ("min", "max", "sum", "avg", "count"):
            function = get_aggregate(function_name)
            for partition in partitions:
                conservative = conservative_expiration(partition)
                neutral = neutral_set_expiration(partition, function)
                exact = exact_expiration(partition, function, ts(0))
                assert conservative <= neutral <= exact, (
                    function_name,
                    partition,
                )


class TestAggregateOperator:
    def test_figure_3a_shape(self, catalog):
        # π_{2,3}(agg_{2},count(Pol)) at time 0 = {<25,2>, <35,1>}.
        expr = (
            BaseRef("Pol")
            .aggregate(group_by=[2], function="count",
                       strategy=ExpirationStrategy.CONSERVATIVE)
            .project(2, 3)
        )
        result = evaluate(expr, catalog)
        assert set(result.relation.rows()) == {(25, 2), (35, 1)}
        assert result.relation.expiration_of((25, 2)) == ts(10)
        assert result.relation.expiration_of((35, 1)) == ts(10)

    def test_figure_3a_invalid_from_10(self, catalog):
        expr = (
            BaseRef("Pol")
            .aggregate(group_by=[2], function="count",
                       strategy=ExpirationStrategy.CONSERVATIVE)
            .project(2, 3)
        )
        result = evaluate(expr, catalog)
        assert result.expiration == ts(10)
        # From time 10 the correct result would contain <25,1>, which the
        # materialisation cannot produce.
        recomputed = evaluate(expr, catalog, tau=10)
        assert set(recomputed.relation.rows()) == {(25, 1)}
        assert set(result.relation.exp_at(10).rows()) == set()

    def test_keeps_all_attributes_and_appends_value(self, catalog):
        # Equation (8) output shape: <r(1),...,r(α),a>.
        expr = BaseRef("Pol").aggregate(group_by=[2], function="count")
        result = evaluate(expr, catalog)
        assert set(result.relation.rows()) == {
            (1, 25, 2),
            (2, 25, 2),
            (3, 35, 1),
        }
        assert result.relation.schema.names == ("uid", "deg", "count")

    def test_sum_aggregate(self, catalog):
        expr = BaseRef("El").aggregate(group_by=[], function="sum", attribute=2)
        result = evaluate(expr, catalog)
        values = {row[-1] for row in result.relation.rows()}
        assert values == {75 + 85 + 90}

    def test_min_aggregate_per_group(self):
        rel = relation_from_rows(
            ["g", "v"], [((1, 5), 10), ((1, 9), 20), ((2, 3), 30)]
        )
        expr = Literal(rel).aggregate(group_by=[1], function="min", attribute=2)
        result = evaluate(expr, {})
        assert (1, 5, 5) in result.relation
        assert (2, 3, 3) in result.relation

    def test_avg_aggregate(self):
        rel = relation_from_rows(["g", "v"], [((1, 1), 10), ((1, 2), 10)])
        expr = Literal(rel).aggregate(group_by=[1], function="avg", attribute=2)
        result = evaluate(expr, {})
        assert (1, 1, Fraction(3, 2)) in result.relation

    def test_result_tuple_never_outlives_source_row(self):
        # Exact strategy: the value never changes (both rows value 7), but
        # each result row must still die with its source row.
        rel = relation_from_rows(["g", "v"], [((1, 7), 5), ((2, 7), 50)])
        expr = Literal(rel).aggregate(
            group_by=[], function="min", attribute=2,
            strategy=ExpirationStrategy.EXACT,
        )
        result = evaluate(expr, {})
        assert result.relation.expiration_of((1, 7, 7)) == ts(5)
        assert result.relation.expiration_of((2, 7, 7)) == ts(50)

    def test_group_tuple_recovers_strategy_expiration_via_projection(self):
        rel = relation_from_rows(
            ["g", "v"], [((1, 9), 5), ((1, 7), 50)]
        )
        # min = 7@50; the 9@5 tuple is neutral; group tuple should live to 50.
        expr = (
            Literal(rel)
            .aggregate(group_by=[1], function="min", attribute=2,
                       strategy=ExpirationStrategy.NEUTRAL_SETS)
            .project(1, 3)
        )
        result = evaluate(expr, {})
        assert result.relation.expiration_of((1, 7)) == ts(50)

    def test_count_requires_no_attribute(self, catalog):
        expr = BaseRef("Pol").aggregate(group_by=[2], function="count")
        assert evaluate(expr, catalog).relation

    def test_min_requires_attribute(self):
        with pytest.raises(AlgebraError):
            BaseRef("Pol").aggregate(group_by=[2], function="min")

    def test_empty_group_by_single_partition(self, catalog):
        expr = BaseRef("Pol").aggregate(group_by=[], function="count")
        result = evaluate(expr, catalog)
        assert all(row[-1] == 3 for row in result.relation.rows())


class TestPartitionInvalidation:
    def test_value_change_while_alive_invalidates(self):
        partition = items((1, 5), (3, 10))
        t = partition_invalidation_time(
            partition, MinAggregate(), ts(0), ExpirationStrategy.EXACT
        )
        assert t == ts(5)

    def test_partition_death_does_not_invalidate(self):
        partition = items((1, 5), (2, 5))
        t = partition_invalidation_time(
            partition, MinAggregate(), ts(0), ExpirationStrategy.EXACT
        )
        assert t == INFINITY

    def test_conservative_early_row_loss_invalidates(self):
        # Under Equation (8) rows vanish at min(P) although the value holds.
        partition = items((0, 3), (0, 9))
        t = partition_invalidation_time(
            partition, SumAggregate(), ts(0), ExpirationStrategy.CONSERVATIVE
        )
        assert t == ts(3)

    def test_exact_avoids_that_invalidation(self):
        partition = items((0, 3), (0, 9))
        t = partition_invalidation_time(
            partition, SumAggregate(), ts(0), ExpirationStrategy.EXACT
        )
        assert t == INFINITY


# ---------------------------------------------------------------------------
# The suffix-scan kernel against the forward replay it replaced
# ---------------------------------------------------------------------------


def replay_timeline(partition, function, tau):
    """The pre-kernel ``value_timeline``, kept verbatim as the oracle.

    It recomputes ``function.apply`` over the survivors, in partition
    order, at every distinct expiration -- O(n) per boundary, and by
    construction what "the aggregate value of exp_τ'(P)" means.
    """
    alive = [(value, texp) for value, texp in partition if tau < texp]
    if not alive:
        return []
    timeline = []
    cursor = tau
    current_value = function.apply([value for value, _ in alive])
    boundaries = sorted(
        {texp.value for _, texp in alive if texp.is_finite and texp > tau}
    )
    for boundary in boundaries:
        boundary_ts = ts(boundary)
        alive = [(value, texp) for value, texp in alive if boundary_ts < texp]
        new_value = function.apply([value for value, _ in alive]) if alive else None
        if new_value != current_value or not alive:
            timeline.append((Interval(cursor, boundary_ts), current_value))
            cursor = boundary_ts
            current_value = new_value
        if not alive:
            return timeline
    timeline.append((Interval(cursor, INFINITY), current_value))
    return timeline


def replay_invalidation_time(partition, function, tau, strategy):
    """The pre-kernel ``partition_invalidation_time`` over the oracle."""
    expiration = (
        replay_timeline(partition, function, tau)[0][0].end
        if strategy is ExpirationStrategy.EXACT
        else strategy_expiration(partition, function, tau, strategy)
    )
    nu = replay_timeline(partition, function, tau)[0][0].end
    dies_at = ts_max(texp for _, texp in partition)
    outliving = any(expiration < texp for _, texp in partition)
    if outliving and expiration < nu:
        return expiration
    if nu < dies_at:
        return nu
    return INFINITY


class InOrder(AggregateFunction):
    """Defines no ``fold``, and an ``apply`` sensitive to member order: it
    goes through the base-class fold, which must hand ``apply`` the
    survivors in partition order."""

    name = "in_order"

    def apply(self, values):
        return "|".join(str(value) for value in values)

    def is_neutral(self, subset, partition):
        return not subset


KERNEL_FUNCTIONS = [
    MinAggregate(), MaxAggregate(), SumAggregate(), CountAggregate(),
    AvgAggregate(), InOrder(),
]

# Few distinct expirations and values: ties, fully-tied partitions,
# value-preserving expiries and members already dead at τ are all common.
texps = st.one_of(st.none(), st.integers(min_value=1, max_value=8))
int_values = st.integers(min_value=-3, max_value=3)
# 1 and 1.0 compare equal but are not the same answer; the large
# magnitudes make a float total depend on the order of its additions.
mixed_values = st.one_of(
    int_values,
    st.sampled_from([0.1, 0.2, 0.3, 1.0, -1.0, 1e16, -1e16, 2.5]),
)


def partitions(values):
    return st.lists(st.tuples(values, texps), min_size=1, max_size=9).map(
        lambda pairs: items(*pairs)
    )


def exact(value):
    """Bit-identity, not ``==``: ``1`` vs ``1.0`` and float last digits."""
    return (type(value), repr(value))


def assert_kernel_matches_replay(partition, function, tau):
    expected = replay_timeline(partition, function, tau)
    steps, death = timeline_steps(partition, function, tau)
    assert [(start, exact(value)) for start, value in steps] == [
        (interval.start.value, exact(value)) for interval, value in expected
    ]
    assert value_timeline(partition, function, tau) == expected
    if not expected:
        assert death is None
        with pytest.raises(AggregateError):
            partition_head(partition, function, tau)
        return
    assert ts(death) == expected[-1][0].end
    value, nu, dies_at = partition_head(partition, function, tau)
    assert exact(value) == exact(expected[0][1])
    assert nu == expected[0][0].end == exact_expiration(partition, function, tau)
    assert dies_at == expected[-1][0].end
    assert change_points(partition, function, tau) == [
        interval.end for interval, _ in expected if interval.end.is_finite
    ]
    assert tuple_validity_intervals(partition, function, tau) == IntervalSet(
        interval for interval, v in expected if v == expected[0][1]
    )
    for strategy in ExpirationStrategy:
        assert partition_invalidation_time(
            partition, function, tau, strategy
        ) == replay_invalidation_time(partition, function, tau, strategy)


class TestKernelAgainstReplay:
    @pytest.mark.parametrize("function", KERNEL_FUNCTIONS, ids=lambda f: f.name)
    @given(partition=partitions(int_values), tau=st.integers(0, 9))
    @settings(max_examples=120, deadline=None)
    def test_integer_partitions(self, function, partition, tau):
        assert_kernel_matches_replay(partition, function, ts(tau))

    @pytest.mark.parametrize("function", KERNEL_FUNCTIONS, ids=lambda f: f.name)
    @given(partition=partitions(mixed_values), tau=st.integers(0, 9))
    @settings(max_examples=120, deadline=None)
    def test_float_and_mixed_partitions(self, function, partition, tau):
        assert_kernel_matches_replay(partition, function, ts(tau))

    @pytest.mark.parametrize("function", KERNEL_FUNCTIONS, ids=lambda f: f.name)
    @pytest.mark.parametrize(
        "partition",
        [
            items((2, 5)),                                  # single member
            items((2, None)),                               # single immortal
            items((1, 4), (2, 4), (3, 4)),                  # fully tied
            items((1, None), (1, None)),                    # all immortal
            items((3, 2), (1, 6), (2, None), (1, 6)),       # immortal tail
            items((1, 1), (2, 2), (3, 9)),                  # some dead at τ=2
            items((1.0, 9), (1, 9), (1, 3)),                # equal, not same
            items((1e16, 3), (1.0, 5), (-1e16, 7), (1.0, 9)),
        ],
    )
    def test_named_shapes(self, function, partition):
        for tau in (0, 2, 9):
            assert_kernel_matches_replay(partition, function, ts(tau))

    def test_float_sum_follows_partition_order_not_fold_order(self):
        # Joined latest-first the total would be (1.0 + -1e16) + 1e16 = 0.0;
        # apply sums in partition order: (1e16 + -1e16) + 1.0 = 1.0.
        partition = items((1e16, 3), (-1e16, 5), (1.0, 7))
        steps, _ = timeline_steps(partition, SumAggregate(), ts(0))
        assert steps[0] == (0, 1.0)

    def test_min_names_the_member_min_would(self):
        # min([1.0, 1]) is 1.0: the earlier member wins a tie even though
        # the later-expiring 1 joins the fold first.
        partition = items((1.0, 3), (1, 9))
        value, _, _ = partition_head(partition, MinAggregate(), ts(0))
        assert exact(value) == exact(1.0)

    def test_apply_only_aggregate_needs_no_fold(self):
        assert "fold" not in vars(InOrder)
        partition = items(("a", 9), ("b", 3), ("c", 6))
        assert value_timeline(partition, InOrder(), ts(0)) == [
            (Interval(0, 3), "a|b|c"),
            (Interval(3, 6), "a|c"),
            (Interval(6, 9), "a"),
        ]
