"""Classification of expressions into monotonic and non-monotonic.

Section 2.5: the operators ``σ, π, ×, ∪`` (and their derived combinations
``⋈, ∩``) are *monotonic* -- growing the inputs can only grow the output --
and expressions built solely from them inherit the property.  Theorem 1
then guarantees that a materialised monotonic expression stays in sync with
its base relations purely through tuple-level expiration, forever.

Aggregation and difference are non-monotonic (Section 2.6); expressions
containing them are valid only until ``texp(e)`` (Theorem 2) and then need
recomputation or patching.

This module provides the classification plus small analysis helpers used
by the view manager to pick maintenance policies.
"""

from __future__ import annotations

import enum
from typing import List

from repro.core.algebra.expressions import (
    Aggregate,
    AntiSemiJoin,
    Difference,
    Expression,
)

__all__ = [
    "ExpressionClass",
    "classify",
    "is_monotonic",
    "nonmonotonic_nodes",
    "nonmonotonic_count",
]


class ExpressionClass(enum.Enum):
    """The two maintenance classes of Section 2.5 / 2.6."""

    #: Never needs recomputation; tuples expire individually (Theorem 1).
    MONOTONIC = "monotonic"

    #: Valid until ``texp(e)``; may need recomputation or patching.
    NON_MONOTONIC = "non_monotonic"


def is_monotonic(expression: Expression) -> bool:
    """Whether ``expression`` uses only monotonic operators."""
    return expression.is_monotonic()


def classify(expression: Expression) -> ExpressionClass:
    """Classify an expression per Section 2.5 / 2.6."""
    if expression.is_monotonic():
        return ExpressionClass.MONOTONIC
    return ExpressionClass.NON_MONOTONIC


def nonmonotonic_nodes(expression: Expression) -> List[Expression]:
    """All aggregation and difference nodes in the tree (pre-order)."""
    return [
        node
        for node in expression.walk()
        if isinstance(node, (Aggregate, Difference, AntiSemiJoin))
    ]


def nonmonotonic_count(expression: Expression) -> int:
    """How many non-monotonic operators the expression contains."""
    return len(nonmonotonic_nodes(expression))
