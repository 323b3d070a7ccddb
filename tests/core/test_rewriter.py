"""Section 3.1's rewrite ``σ_p(R − S) → σ_p(R) − σ_p(S)``, over hand-built
plans: both hold the same tuples at the same expirations, and the pushed
plan's ``texp(e)`` is never earlier.  The engine's planner already places
a σ at the leaves it can reach; ``benchmarks/paper.py``'s S31 prints the
two plans side by side."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algebra.evaluator import evaluate
from repro.core.algebra.expressions import BaseRef, Difference, Select
from repro.core.algebra.predicates import col
from repro.core.relation import relation_from_rows

values = st.integers(min_value=0, max_value=3)
texps = st.one_of(st.integers(min_value=1, max_value=12), st.none())


def relations(max_size=6):
    row = st.tuples(values, values)
    return st.lists(st.tuples(row, texps), max_size=max_size).map(
        lambda data: relation_from_rows(["a", "b"], data)
    )


def plans(constant):
    """``σ_p(R − S)`` and its rewrite ``σ_p(R) − σ_p(S)``."""
    p = col(2) == constant
    return (Select(Difference(BaseRef("R"), BaseRef("S")), p),
            Difference(Select(BaseRef("R"), p), Select(BaseRef("S"), p)))


class TestSemanticPreservation:
    @settings(max_examples=100, deadline=None)
    @given(
        r=relations(),
        s=relations(),
        constant=values,
        tau=st.integers(min_value=0, max_value=10),
    )
    def test_difference_pushdown_preserves_content(self, r, s, constant, tau):
        catalog = {"R": r, "S": s}
        original, pushed = plans(constant)
        assert evaluate(original, catalog, tau=tau).relation.same_content(
            evaluate(pushed, catalog, tau=tau).relation)

    @settings(max_examples=60, deadline=None)
    @given(r=relations(), s=relations(), constant=values)
    def test_rewrite_never_hurts_expiration(self, r, s, constant):
        """The paper's Section 3.1 claim: rewriting postpones texp(e)."""
        catalog = {"R": r, "S": s}
        before, after = (evaluate(plan, catalog) for plan in plans(constant))
        assert before.expiration <= after.expiration
        # And the validity set only grows.
        assert (before.validity - after.validity).is_empty

    def test_rewrite_strictly_helps_on_example(self):
        # R and S share tuples; only some satisfy the selection.  The
        # unpushed plan is invalidated by a critical tuple the selection
        # would have filtered out.
        r = relation_from_rows(["a", "b"], [((1, 0), 20), ((2, 9), 30)])
        s = relation_from_rows(["a", "b"], [((1, 0), 5), ((2, 9), 6)])
        catalog = {"R": r, "S": s}
        before, after = (evaluate(plan, catalog) for plan in plans(9))
        # Unpushed: texp(e) = 5 (tuple (1,0) is critical inside the diff).
        # Pushed: only (2,9) remains critical -> texp(e) = 6.
        assert int(before.expiration) == 5
        assert int(after.expiration) == 6
