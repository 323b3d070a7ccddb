"""Tests for the predicate DSL."""

import pytest

from repro.core.algebra.predicates import (
    And,
    Attribute,
    Comparison,
    Constant,
    Not,
    Or,
    TruePredicate,
    col,
    val,
)
from repro.core.algebra.compiler import compile_predicate
from repro.core.schema import Schema
from repro.engine.database import Database
from repro.errors import EvaluationError, PredicateError
from repro.sql.executor import execute_sql


class TestOperands:
    def test_col_positional(self):
        assert col(1).evaluate((7, 8)) == 7

    def test_col_out_of_range(self):
        with pytest.raises(PredicateError):
            col(3).evaluate((7, 8))

    def test_col_zero_rejected(self):
        with pytest.raises(PredicateError):
            col(0)

    def test_named_col_needs_resolution(self):
        with pytest.raises(PredicateError):
            col("deg").evaluate((7, 8))
        resolved = col("deg").resolve(Schema(["uid", "deg"]))
        assert resolved.evaluate((7, 8)) == 8

    def test_val(self):
        assert val(42).evaluate((1,)) == 42

    def test_shifted(self):
        assert col(2).shifted(3).ref == 5
        with pytest.raises(PredicateError):
            col("name").shifted(1)

    def test_immutability(self):
        with pytest.raises(AttributeError):
            col(1).ref = 2


class TestComparison:
    def test_equality_form(self):
        p = col(1) == col(2)
        assert isinstance(p, Comparison)
        assert p.matches((5, 5))
        assert not p.matches((5, 6))

    def test_constant_comparison(self):
        p = col(2) > 50
        assert p.matches((0, 60))
        assert not p.matches((0, 50))

    def test_all_operators(self):
        row = (5,)
        assert (col(1) == 5).matches(row)
        assert (col(1) != 4).matches(row)
        assert (col(1) < 6).matches(row)
        assert (col(1) <= 5).matches(row)
        assert (col(1) > 4).matches(row)
        assert (col(1) >= 5).matches(row)

    def test_correlated_flags(self):
        assert (col(1) == col(2)).is_correlated
        assert (col(1) == val(3)).is_uncorrelated
        assert not (col(1) == val(3)).is_correlated

    def test_paper_form(self):
        assert (col(1) == col(2)).is_paper_form()
        assert not (col(1) < col(2)).is_paper_form()

    def test_negate(self):
        assert (col(1) == 5).negate().matches((6,))
        assert not (col(1) <= 5).negate().matches((5,))

    def test_no_truth_value(self):
        with pytest.raises(PredicateError):
            bool(col(1) == col(2))

    def test_bad_operator_rejected(self):
        with pytest.raises(PredicateError):
            Comparison(col(1), "~", col(2))


class TestConnectives:
    def test_and(self):
        p = (col(1) == 1) & (col(2) == 2)
        assert p.matches((1, 2))
        assert not p.matches((1, 3))

    def test_or(self):
        p = (col(1) == 1) | (col(1) == 2)
        assert p.matches((2,))
        assert not p.matches((3,))

    def test_not(self):
        p = ~(col(1) == 1)
        assert p.matches((2,))
        assert not p.is_paper_form()

    def test_and_flattens(self):
        p = And((col(1) == 1) & (col(2) == 2), col(3) == 3)
        assert len(p.children) == 3

    def test_or_flattens(self):
        p = Or((col(1) == 1) | (col(1) == 2), col(1) == 3)
        assert len(p.children) == 3

    def test_connectives_need_two_children(self):
        with pytest.raises(PredicateError):
            And(col(1) == 1)

    def test_de_morgan_negate(self):
        p = (col(1) == 1) & (col(2) == 2)
        negated = p.negate()
        assert isinstance(negated, Or)
        assert negated.matches((1, 3))
        assert not negated.matches((1, 2))

    def test_paper_form_composition(self):
        good = (col(1) == 1) & ((col(2) == 2) | (col(2) == 3))
        assert good.is_paper_form()
        bad = (col(1) == 1) & (col(2) > 3)
        assert not bad.is_paper_form()

    def test_attributes_iteration(self):
        p = (col(1) == col(2)) & (col("x") == 5)
        refs = sorted(str(a.ref) for a in p.attributes())
        assert refs == ["1", "2", "x"]

    def test_resolution_recursive(self):
        schema = Schema(["a", "b"])
        p = ((col("a") == 1) | (col("b") == 2)).resolve(schema)
        assert p.matches((1, 99))
        assert p.matches((0, 2))


class TestTruePredicate:
    def test_always_true(self):
        assert TruePredicate().matches((1, 2, 3))
        assert TruePredicate().is_paper_form()

    def test_negation_unrepresentable(self):
        with pytest.raises(PredicateError):
            TruePredicate().negate()


class TestMismatchedTypes:
    """A comparison the operator cannot make is an ``EvaluationError``
    naming the operator and both operand types, on every evaluator."""

    MESSAGE = "cannot compare int < str"

    def test_interpreted(self):
        with pytest.raises(EvaluationError, match=self.MESSAGE):
            (col(1) < val("x")).matches((3,))

    @pytest.mark.parametrize("layout", ["row", "columnar"])
    def test_compiled(self, layout):
        db = Database()
        table = db.create_table("R", ["k", "v"], layout=layout)
        table.insert((3, "y"), expires_at=10)
        for predicate in (col("k") < val("x"), (col("v") == "y") & (col("k") < "x")):
            with pytest.raises(EvaluationError, match=self.MESSAGE):
                db.evaluate(db.table_expr("R").select(predicate))
        with pytest.raises(EvaluationError, match=self.MESSAGE):
            execute_sql(db, "SELECT k FROM R WHERE k < 'x'")

    def test_other_type_errors_stay_type_errors(self):
        matches = compile_predicate(col("k") == val(3), Schema(["k"]))
        with pytest.raises(TypeError):
            matches(None)  # not a row: no comparison failed
