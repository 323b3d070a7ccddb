"""Tests for the monotonic / non-monotonic classification (Section 2.5)."""

from repro.core.algebra.expressions import (
    Aggregate,
    AggregateSpec,
    BaseRef,
    Difference,
    Intersect,
    Join,
    Product,
    Project,
    Select,
    Union,
)
from repro.core.algebra.predicates import col
from repro.core.monotonicity import (
    ExpressionClass,
    classify,
    is_monotonic,
    nonmonotonic_count,
    nonmonotonic_nodes,
)


def agg(child):
    return Aggregate(child, (1,), AggregateSpec("count"))


class TestClassification:
    def test_base_is_monotonic(self):
        assert is_monotonic(BaseRef("R"))

    def test_monotonic_operators(self):
        r, s = BaseRef("R"), BaseRef("S")
        for expr in (
            Select(r, col(1) == 1),
            Project(r, (1,)),
            Product(r, s),
            Union(r, s),
            Intersect(r, s),
            Join(r, s, on=[(1, 1)]),
        ):
            assert classify(expr) is ExpressionClass.MONOTONIC

    def test_difference_is_not(self):
        expr = Difference(BaseRef("R"), BaseRef("S"))
        assert classify(expr) is ExpressionClass.NON_MONOTONIC

    def test_aggregate_is_not(self):
        assert not is_monotonic(agg(BaseRef("R")))

    def test_composition_inherits(self):
        inner = Difference(BaseRef("R"), BaseRef("S"))
        assert not is_monotonic(Project(Select(inner, col(1) == 1), (1,)))

    def test_monotonic_composition_stays_monotonic(self):
        expr = Project(
            Select(Join(BaseRef("R"), BaseRef("S"), on=[(1, 1)]), col(2) == 3),
            (1, 2),
        )
        assert is_monotonic(expr)


class TestAnalysis:
    def test_counts_nested_nodes(self):
        expr = Difference(agg(BaseRef("R")), BaseRef("S"))
        assert nonmonotonic_count(expr) == 2
        kinds = {type(node).__name__ for node in nonmonotonic_nodes(expr)}
        assert kinds == {"Difference", "Aggregate"}

    def test_walk_and_depth(self):
        expr = Project(Select(BaseRef("R"), col(1) == 1), (1,))
        assert expr.depth() == 3
        assert len(list(expr.walk())) == 3
        assert expr.base_names() == {"R"}
