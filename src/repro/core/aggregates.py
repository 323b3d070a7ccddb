"""Aggregate functions and their expiration-time semantics (Section 2.6.1).

The paper defines three successively tighter ways to assign an expiration
time to a tuple produced by ``agg``:

1. **Conservative** (Equation 8): the minimum expiration time of the tuples
   in the partition.  Safe but pessimistic -- a tuple that does not even
   contribute to the aggregate value can drag the result's lifetime down.
2. **Neutral sets** (Table 1): ignore the lifetimes of all *time-sliced,
   neutral* subsets -- sets of tuples with identical expiration times whose
   removal changes neither the aggregate value nor its expiration.  The
   remaining *contributing set* ``C`` determines the expiration; if ``C`` is
   empty the value holds until the whole partition expires.
3. **Exact** (Equation 9): the change-point function ``ν(τ, P, f)`` -- the
   first time the aggregate value actually changes.  The paper notes χ/ν
   "are best calculated when the actual aggregate values ... are computed";
   we do exactly that, in one suffix scan over the partition's expiration
   order (:func:`timeline_steps`).

All three are implemented here, both so the evaluator can be configured
with a strategy and so the benchmarks can compare their lifetimes
(experiment T1 / S34a in DESIGN.md).  The suffix scan additionally yields
the full *value timeline* of a partition, which powers the Schrödinger
validity intervals of Section 3.4.1; every exact-change-point helper
below reads the steps it returns.
"""

from __future__ import annotations

import enum
import operator
from fractions import Fraction
from itertools import accumulate, groupby
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from repro.core.intervals import Interval, IntervalSet
from repro.core.timestamps import INFINITY, RAW_INFINITY, Timestamp, ts, ts_max, ts_min
from repro.errors import AggregateError, EvaluationError

__all__ = [
    "AggregateFunction",
    "MinAggregate",
    "MaxAggregate",
    "SumAggregate",
    "CountAggregate",
    "AvgAggregate",
    "get_aggregate",
    "register_aggregate",
    "known_aggregates",
    "mixed_type_error",
    "ExpirationStrategy",
    "PartitionItem",
    "conservative_expiration",
    "time_sliced_sets",
    "contributing_set",
    "neutral_set_expiration",
    "timeline_steps",
    "alive_steps",
    "step_spans",
    "partition_head",
    "strategy_head",
    "value_timeline",
    "change_points",
    "exact_expiration",
    "tuple_validity_intervals",
]

#: One partition member: ``(aggregated attribute value, expiration time)``.
#: For ``count`` the value slot is ignored (may be ``None``).
PartitionItem = Tuple[Any, Timestamp]


class ExpirationStrategy(enum.Enum):
    """How aggregation result tuples get their expiration times."""

    #: Equation (8): minimum expiration time of the partition.
    CONSERVATIVE = "conservative"

    #: Table 1: drop time-sliced neutral sets, use the contributing set.
    NEUTRAL_SETS = "neutral_sets"

    #: Equation (9): the exact first change point ``ν(τ, P, f)``.
    EXACT = "exact"


class AggregateFunction:
    """Base class for the family ``F`` of aggregate functions.

    Subclasses implement :meth:`apply` over the non-empty list of attribute
    values of a partition, and :meth:`is_neutral` -- the Table 1 rule
    deciding whether a candidate subset is *neutral*: removing it changes
    neither the aggregate value nor its expiration time.
    """

    #: Name used in expressions and SQL (lower-case).
    name: str = ""

    #: Whether the function aggregates an attribute (false only for count).
    needs_attribute: bool = True

    def apply(self, values: Sequence[Any]) -> Any:
        """The aggregate value over a non-empty sequence of values."""
        raise NotImplementedError

    def is_neutral(
        self, subset: Sequence[PartitionItem], partition: Sequence[PartitionItem]
    ) -> bool:
        """Table 1: is ``subset ⊆ partition`` neutral with respect to self?"""
        raise NotImplementedError

    def fold(
        self, values: Sequence[Any], slices: Sequence[Sequence[int]]
    ) -> Iterable[Any]:
        """The aggregate after each time slice joins, latest expiration first.

        ``values[p]`` is the value of partition member ``p``; each slice
        lists, in ascending order, the positions of the members that
        expire at one instant.  The ``j``-th value produced must be
        *exactly* what :meth:`apply` returns for the members of
        ``slices[0..j]`` taken in partition order -- this is the hook
        :func:`timeline_steps` drives, and the reason a timeline needs no
        replay.

        The default keeps the joined positions in partition order and
        calls :meth:`apply`, so an aggregate that defines only ``apply``
        is correct by construction (at ``O(n)`` per slice).  The built-ins
        override it with ``O(1)`` per member wherever the running state
        cannot depend on the order members joined in.
        """
        joined: List[int] = []
        for time_slice in slices:
            # Two ascending runs: the sort is a linear merge.
            joined = sorted(joined + list(time_slice))
            yield self.apply([values[p] for p in joined])

    def __repr__(self) -> str:
        return f"<aggregate {self.name}>"


def _values(items: Iterable[PartitionItem]) -> List[Any]:
    return [value for value, _ in items]


def _fold_extreme(
    values: Sequence[Any],
    slices: Sequence[Sequence[int]],
    pick: Callable[..., int],
    beats: Callable[[Any, Any], bool],
) -> Iterator[Any]:
    """Running ``min``/``max`` that names the member ``pick`` would return.

    ``min([1.0, 1])`` is ``1.0``: among equal extremes the builtins return
    the first in sequence order, so the fold tracks the *position* of the
    extreme and lets an equal value at an earlier position take over.
    """
    best: Optional[int] = None
    for time_slice in slices:
        candidate = pick(time_slice, key=values.__getitem__)
        if best is None or beats(values[candidate], values[best]) or (
            candidate < best and not beats(values[best], values[candidate])
        ):
            best = candidate
        yield values[best]


def _exact_totals(
    values: Sequence[Any], slices: Sequence[Sequence[int]]
) -> Optional[Iterator[int]]:
    """Running totals per slice, or ``None`` unless every value is an int.

    Integer addition is exact in any order; a float total depends on the
    order of its additions, so anything else is left to the base fold,
    which sums in partition order exactly as ``apply`` does.
    """
    if not all(type(value) is int for value in values):
        return None
    value_at = values.__getitem__
    return accumulate(sum(map(value_at, time_slice)) for time_slice in slices)


class MinAggregate(AggregateFunction):
    """``min_i``: the minimum of the aggregated attribute."""

    name = "min"

    def apply(self, values: Sequence[Any]) -> Any:
        return min(values)

    def fold(self, values, slices):
        return _fold_extreme(values, slices, min, operator.lt)

    def is_neutral(
        self, subset: Sequence[PartitionItem], partition: Sequence[PartitionItem]
    ) -> bool:
        # Table 1, row min_i: every tuple either has a value strictly above
        # the minimum, or is a duplicate of the minimum whose expiration is
        # dominated by another minimal tuple that lives longer.
        current = self.apply(_values(partition))
        longest_minimal = ts_max(
            texp for value, texp in partition if value == current
        )
        for value, texp in subset:
            if value > current:
                continue
            if texp < longest_minimal:
                continue
            return False
        return True


class MaxAggregate(AggregateFunction):
    """``max_i``: the maximum of the aggregated attribute."""

    name = "max"

    def apply(self, values: Sequence[Any]) -> Any:
        return max(values)

    def fold(self, values, slices):
        return _fold_extreme(values, slices, max, operator.gt)

    def is_neutral(
        self, subset: Sequence[PartitionItem], partition: Sequence[PartitionItem]
    ) -> bool:
        # Table 1, row max_i -- the mirror image of min_i.
        current = self.apply(_values(partition))
        longest_maximal = ts_max(
            texp for value, texp in partition if value == current
        )
        for value, texp in subset:
            if value < current:
                continue
            if texp < longest_maximal:
                continue
            return False
        return True


class SumAggregate(AggregateFunction):
    """``sum_i``: the sum of the aggregated attribute."""

    name = "sum"

    def apply(self, values: Sequence[Any]) -> Any:
        return sum(values)

    def fold(self, values, slices):
        totals = _exact_totals(values, slices)
        return super().fold(values, slices) if totals is None else totals

    def is_neutral(
        self, subset: Sequence[PartitionItem], partition: Sequence[PartitionItem]
    ) -> bool:
        # Table 1, row sum_i: the subset's values add up to zero.
        return sum(_values(subset)) == 0


class CountAggregate(AggregateFunction):
    """``count``: partition cardinality; only the empty set is neutral."""

    name = "count"
    needs_attribute = False

    def apply(self, values: Sequence[Any]) -> Any:
        return len(values)

    def fold(self, values, slices):
        return accumulate(map(len, slices))

    def is_neutral(
        self, subset: Sequence[PartitionItem], partition: Sequence[PartitionItem]
    ) -> bool:
        # Table 1, row count_i: N = ∅ -- count strictly follows Equation (8).
        return len(subset) == 0


class AvgAggregate(AggregateFunction):
    """``avg_i``: the exact mean, computed with rational arithmetic.

    Using :class:`fractions.Fraction` keeps value-change detection exact:
    two states of a partition have equal averages iff the Fractions compare
    equal, with no floating-point noise.
    """

    name = "avg"

    def apply(self, values: Sequence[Any]) -> Any:
        total = sum(values)
        if isinstance(total, float):
            return total / len(values)
        return Fraction(total, len(values))

    def fold(self, values, slices):
        totals = _exact_totals(values, slices)
        if totals is None:
            return super().fold(values, slices)
        return map(Fraction, totals, accumulate(map(len, slices)))

    def is_neutral(
        self, subset: Sequence[PartitionItem], partition: Sequence[PartitionItem]
    ) -> bool:
        # Table 1, row avg_i: Σ_{t∈N} t(i) = (|N| / |P|) · Σ_{r∈P} r(i),
        # checked cross-multiplied to stay in integer arithmetic.
        subset_sum = sum(_values(subset))
        partition_sum = sum(_values(partition))
        return subset_sum * len(partition) == len(subset) * partition_sum


_REGISTRY: Dict[str, AggregateFunction] = {}


def register_aggregate(function: AggregateFunction) -> None:
    """Register a custom aggregate function under ``function.name``."""
    if not function.name:
        raise AggregateError("aggregate functions need a non-empty name")
    _REGISTRY[function.name.lower()] = function


def get_aggregate(name: str) -> AggregateFunction:
    """Look up an aggregate function by (case-insensitive) name."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise AggregateError(
            f"unknown aggregate {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def known_aggregates() -> List[str]:
    """Names of all registered aggregate functions."""
    return sorted(_REGISTRY)


def mixed_type_error(
    function: AggregateFunction, items: Iterable[PartitionItem]
) -> EvaluationError:
    """What aggregating a partition whose values ``function`` cannot combine
    (``max`` over an int and a str) raises, naming it and the types."""
    types = " and ".join(sorted({type(value).__name__ for value, _ in items}))
    return EvaluationError(f"cannot aggregate {function.name} over {types}")


for _function in (
    MinAggregate(),
    MaxAggregate(),
    SumAggregate(),
    CountAggregate(),
    AvgAggregate(),
):
    register_aggregate(_function)


# ---------------------------------------------------------------------------
# Expiration-time computation over a partition
# ---------------------------------------------------------------------------


def conservative_expiration(partition: Sequence[PartitionItem]) -> Timestamp:
    """Equation (8): the minimum expiration time of the partition."""
    if not partition:
        raise AggregateError("partitions are non-empty by construction")
    return ts_min(texp for _, texp in partition)


def time_sliced_sets(
    partition: Sequence[PartitionItem],
) -> List[List[PartitionItem]]:
    """Split a partition into *time-sliced* sets (identical expirations).

    Returned in increasing order of expiration time, so that dropping a
    prefix corresponds to letting time pass.
    """
    by_time: Dict[Timestamp, List[PartitionItem]] = {}
    for item in partition:
        by_time.setdefault(item[1], []).append(item)
    return [by_time[t] for t in sorted(by_time)]


def contributing_set(
    partition: Sequence[PartitionItem], function: AggregateFunction
) -> List[PartitionItem]:
    """Definition 2: the partition minus all time-sliced neutral subsets.

    The paper's validity argument requires every *expired-so-far* time slice
    to be neutral, so slices are examined in expiration order and dropping
    stops at the first non-neutral slice: a later neutral slice cannot
    expire before a surviving earlier one.
    """
    remaining = list(partition)
    for time_slice in time_sliced_sets(partition):
        if not function.is_neutral(time_slice, remaining):
            break
        for item in time_slice:
            remaining.remove(item)
    return remaining


def neutral_set_expiration(
    partition: Sequence[PartitionItem], function: AggregateFunction
) -> Timestamp:
    """Table 1 / Definition 2 expiration for a partition's result tuple.

    ``min`` expiration of the contributing set if non-empty, otherwise the
    ``max`` expiration of the whole partition (the value holds until the
    partition is fully gone).
    """
    if not partition:
        raise AggregateError("partitions are non-empty by construction")
    contributors = contributing_set(partition, function)
    if contributors:
        return ts_min(texp for _, texp in contributors)
    return ts_max(texp for _, texp in partition)


# ---------------------------------------------------------------------------
# Exact change-point machinery (χ / ν, Equation 9) and value timelines
# ---------------------------------------------------------------------------


#: ``[(start tick, value), ...]`` in time order, and the tick at which the
#: last step ends (``None`` = the partition never fully expires).
Steps = Tuple[List[Tuple[int, Any]], Optional[int]]


def timeline_steps(
    partition: Sequence[PartitionItem], function: AggregateFunction, tau: Timestamp
) -> Steps:
    """The aggregate value of ``exp_τ'(P)`` as steps on ticks.

    One suffix scan: the members alive at ``τ`` are sorted by expiration
    once and joined from the latest expiration backwards through
    :meth:`AggregateFunction.fold`; the value after the slice expiring at
    ``b`` has joined is the value on ``[b', b)``, ``b'`` being the next
    earlier expiration (or ``τ``).  ``O(n log n)`` for the built-ins,
    against one pass over the partition *per distinct expiration* for a
    forward replay.

    Returns ``(steps, death)``: ``steps[i] = (start, value)`` holds until
    ``steps[i + 1]`` starts, the last until ``death``.  Equal neighbours
    are merged (keeping the earlier step's value object), so every start
    after the first is a real change point.  ``steps`` is empty when no
    member outlives ``τ``.

    This is the operational form of the paper's remark that χ and ν "are
    best calculated when the actual aggregate values ... are computed".
    """
    now = ts(tau)
    ticks = [texp for _, texp in partition]
    alive = [position for position, tick in enumerate(ticks) if tick > now]
    if not alive:
        return [], None
    # Stable, also under ``reverse``: each slice lists ascending positions.
    alive.sort(key=ticks.__getitem__, reverse=True)
    boundaries: List[Any] = []
    slices: List[List[int]] = []
    for tick, members in groupby(alive, key=ticks.__getitem__):
        boundaries.append(tick)
        slices.append(list(members))
    starts = boundaries[1:] + [now]
    steps: List[Tuple[int, Any]] = []  # built latest-first
    for start, value in zip(starts, function.fold(_values(partition), slices)):
        if steps and not steps[-1][1] != value:
            steps[-1] = (start, value)
        else:
            steps.append((start, value))
    steps.reverse()
    return steps, None if boundaries[0] == RAW_INFINITY else boundaries[0]


def _stamp(tick: Optional[int]) -> Timestamp:
    return INFINITY if tick is None else Timestamp(tick)


def alive_steps(
    partition: Sequence[PartitionItem], function: AggregateFunction, tau: Timestamp
) -> Steps:
    """:func:`timeline_steps`, refusing a partition fully expired at ``τ``."""
    steps, death = timeline_steps(partition, function, tau)
    if not steps:
        raise AggregateError(f"partition fully expired at τ = {tau}")
    return steps, death


def step_spans(steps: List[Tuple[int, Any]], death: Optional[int]):
    """``(start, end, value)`` per step, on ticks (``None`` = ∞)."""
    ends = [start for start, _ in steps[1:]]
    ends.append(death)
    return ((start, end, value) for (start, value), end in zip(steps, ends))


def partition_head(
    partition: Sequence[PartitionItem], function: AggregateFunction, tau: Timestamp
) -> Tuple[Any, Timestamp, Timestamp]:
    """``(f(exp_τ(P)), ν(τ, P, f), death)`` -- the timeline's first step.

    ``ν`` (Equation 9) is when the value first changes, the partition's
    death included; ``death`` is its latest expiration.
    """
    steps, death = alive_steps(partition, function, tau)
    dies_at = _stamp(death)
    nu = Timestamp(steps[1][0]) if len(steps) > 1 else dies_at
    return steps[0][1], nu, dies_at


def value_timeline(
    partition: Sequence[PartitionItem], function: AggregateFunction, tau: Timestamp
) -> List[Tuple[Interval, Any]]:
    """:func:`timeline_steps` as ``[(interval, value), ...]``.

    Covers ``[τ, death)`` where ``death`` is the partition's latest
    expiration (or ``∞``); after ``death`` the partition is empty and
    there is no value.
    """
    return [
        (Interval(_stamp(start), _stamp(end)), value)
        for start, end, value in step_spans(*timeline_steps(partition, function, tau))
    ]


def change_points(
    partition: Sequence[PartitionItem], function: AggregateFunction, tau: Timestamp
) -> List[Timestamp]:
    """All times ``≥ τ`` at which the aggregate value changes.

    Includes the partition's death time if finite.  The length of this list
    is the memory needed to store the future states of the aggregation; the
    paper bounds it by the partition size (Section 3.4.1), which
    :func:`change_points` trivially satisfies since each change consumes at
    least one tuple expiration.
    """
    steps, death = timeline_steps(partition, function, tau)
    points = [Timestamp(start) for start, _ in steps[1:]]
    if death is not None:
        points.append(Timestamp(death))
    return points


def exact_expiration(
    partition: Sequence[PartitionItem], function: AggregateFunction, tau: Timestamp
) -> Timestamp:
    """Equation (9): ``ν(τ, P, f)`` -- expire when the value first changes.

    The result tuple carries value ``f(exp_τ(P))``; it must disappear at the
    first ``τ'`` where ``f(exp_τ'(P))`` differs (including the partition's
    death, where there is no value at all).  Returns ``∞`` when the value
    never changes and the partition never fully expires.
    """
    return partition_head(partition, function, tau)[1]


def strategy_expiration(
    partition: Sequence[PartitionItem],
    function: AggregateFunction,
    tau: Timestamp,
    strategy: ExpirationStrategy,
) -> Timestamp:
    """The partition-level expiration under the chosen strategy.

    Tuples of a partition's aggregation result additionally never outlive
    their own source row (the evaluator caps each result tuple at
    ``min(texp_R(r), strategy_expiration)``), which keeps the refined
    strategies sound for the paper's row-preserving ``agg`` output shape --
    after the canonical projection onto grouping attributes the group tuple
    recovers exactly the strategy expiration via the max-of-duplicates rule.
    """
    if strategy is ExpirationStrategy.CONSERVATIVE:
        return conservative_expiration(partition)
    if strategy is ExpirationStrategy.NEUTRAL_SETS:
        return neutral_set_expiration(partition, function)
    if strategy is ExpirationStrategy.EXACT:
        return exact_expiration(partition, function, tau)
    raise AggregateError(f"unknown expiration strategy {strategy!r}")


def strategy_head(
    partition: Sequence[PartitionItem],
    function: AggregateFunction,
    tau: Timestamp,
    strategy: ExpirationStrategy,
) -> Tuple[Any, Timestamp, Timestamp, Timestamp]:
    """``(value, expiration, invalidation, death)`` off one timeline head.

    ``value`` and ``death`` are :func:`partition_head`'s, ``expiration``
    is :func:`strategy_expiration` and ``invalidation`` is
    :func:`partition_invalidation_time` -- one :func:`timeline_steps` scan
    for all four.
    """
    value, nu, dies_at = partition_head(partition, function, tau)
    if strategy is ExpirationStrategy.EXACT:
        expiration = nu
    else:
        expiration = strategy_expiration(partition, function, tau, strategy)
    # ``expiration < dies_at``: some source row outlives the result rows.
    if expiration < dies_at and expiration < nu:
        invalidation = expiration
    elif nu < dies_at:
        invalidation = nu
    else:
        invalidation = INFINITY
    return value, expiration, invalidation, dies_at


def partition_invalidation_time(
    partition: Sequence[PartitionItem],
    function: AggregateFunction,
    tau: Timestamp,
    strategy: ExpirationStrategy,
) -> Timestamp:
    """This partition's contribution to the expression expiration ``texp(e)``.

    A materialised aggregation over this partition first disagrees with a
    recomputation at the earlier of:

    * the strategy expiration ``s``, if some source row outlives ``s`` while
      the aggregate value is still unchanged (the materialised rows vanish
      although the recomputation keeps them) -- this is how Figure 3(a)'s
      histogram becomes invalid at time 10 under Equation (8); or
    * the first value change ``ν`` that happens while the partition is still
      non-empty (the recomputation then contains rows with a new aggregate
      value that the materialisation cannot know) -- the paper's
      ``texp(agg)`` formula.

    A change that coincides with the partition's death does not invalidate:
    the materialised rows have all expired by then, matching the (empty)
    recomputation.  Returns ``∞`` when the materialisation never disagrees.
    """
    return strategy_head(partition, function, tau, strategy)[2]


def tuple_validity_intervals(
    partition: Sequence[PartitionItem], function: AggregateFunction, tau: Timestamp
) -> IntervalSet:
    """Section 3.4.1's ``I_R(t)``: when the query-time value is the value.

    The union of all maximal no-change intervals over which the aggregate
    equals its value at query time ``τ``.
    """
    steps, death = alive_steps(partition, function, tau)
    query_value = steps[0][1]
    return IntervalSet.from_pairs(
        (start, end)
        for start, end, value in step_spans(steps, death)
        if value == query_value
    )
