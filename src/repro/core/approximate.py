"""Approximate aggregate answers with error bounds (paper §5, future work).

"The introduction of techniques that offer approximate query answers is
reasonable in our setting and may yield performance improvements; if we
are interested in maintaining, e.g., aggregate values with certain error
bounds, we might be able to improve performance."

The idea, made concrete: a materialised aggregate tuple carrying value
``v`` does not need to expire at the first *change* of the aggregate, only
at the first time the true value leaves the tolerance region around ``v``.
Tolerances widen every interval of the value timeline into an *acceptance
band*, which can only push the expiration (and the validity intervals)
later -- Equation (9) is the special case of zero tolerance.

Two tolerance kinds are supported:

* :class:`AbsoluteTolerance` -- ``|true - v| <= epsilon``;
* :class:`RelativeTolerance` -- ``|true - v| <= rho · |v|``.

Non-numeric aggregate values (or the partition's death) always count as a
change -- a tolerance never keeps a tuple alive past its partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

from repro.core.aggregates import (
    AggregateFunction,
    PartitionItem,
    alive_steps,
    step_spans,
)
from repro.core.intervals import IntervalSet
from repro.core.timestamps import Timestamp
from repro.errors import AggregateError

__all__ = [
    "Tolerance",
    "AbsoluteTolerance",
    "RelativeTolerance",
    "EXACT_TOLERANCE",
    "approximate_expiration",
    "approximate_validity",
]


class Tolerance:
    """Base class: decides whether a drifted value is still acceptable."""

    def accepts(self, reported: Any, true_value: Any) -> bool:
        """Whether answering ``reported`` while the truth is ``true_value``
        stays within the bound."""
        raise NotImplementedError


@dataclass(frozen=True)
class AbsoluteTolerance(Tolerance):
    """``|true - reported| <= epsilon``."""

    epsilon: Any

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise AggregateError(f"tolerance must be non-negative, got {self.epsilon}")

    def accepts(self, reported: Any, true_value: Any) -> bool:
        if reported is None or true_value is None:
            return reported is None and true_value is None
        try:
            return abs(true_value - reported) <= self.epsilon
        except TypeError:
            return reported == true_value


@dataclass(frozen=True)
class RelativeTolerance(Tolerance):
    """``|true - reported| <= rho * |reported|``."""

    rho: float

    def __post_init__(self) -> None:
        if self.rho < 0:
            raise AggregateError(f"tolerance must be non-negative, got {self.rho}")

    def accepts(self, reported: Any, true_value: Any) -> bool:
        if reported is None or true_value is None:
            return reported is None and true_value is None
        try:
            return abs(true_value - reported) <= self.rho * abs(reported)
        except TypeError:
            return reported == true_value


#: Zero tolerance: degrades exactly to Equation (9).
EXACT_TOLERANCE = AbsoluteTolerance(0)


def _first_rejected(steps, death, tolerance: Tolerance) -> "int | None":
    """Raw tick at which the true value first leaves the band around the
    query-time value; the partition's death if it never does."""
    reported = steps[0][1]
    for start, value in steps:
        if not tolerance.accepts(reported, value):
            return start
    return death


def approximate_expiration(
    partition: Sequence[PartitionItem],
    function: AggregateFunction,
    tau: Timestamp,
    tolerance: Tolerance,
) -> Timestamp:
    """First time the true value leaves the tolerance band around the
    query-time value -- a generalised ``ν(τ, P, f)``.

    Monotone in the tolerance: a wider band never expires earlier; zero
    tolerance reproduces :func:`repro.core.aggregates.exact_expiration`.
    The partition's death always expires the tuple (there is no value to
    approximate any more).
    """
    steps, death = alive_steps(partition, function, tau)
    return Timestamp(_first_rejected(steps, death, tolerance))


def approximate_validity(
    partition: Sequence[PartitionItem],
    function: AggregateFunction,
    tau: Timestamp,
    tolerance: Tolerance,
) -> IntervalSet:
    """All times at which serving the query-time value stays in band.

    The tolerance-widened analogue of
    :func:`repro.core.aggregates.tuple_validity_intervals`: the union of
    timeline intervals whose value the tolerance accepts.
    """
    steps, death = alive_steps(partition, function, tau)
    reported = steps[0][1]
    return IntervalSet.from_pairs(
        (start, end)
        for start, end, value in step_spans(steps, death)
        if tolerance.accepts(reported, value)
    )

