"""Property-based algebraic laws, including expiration-time behaviour.

The textbook SPCU identities must continue to hold in the expiration-time
algebra -- sometimes at full content level (rows *and* expiration times),
sometimes only at row level where the operators' expiration rules
legitimately differ (noted per law).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algebra.evaluator import evaluate
from repro.core.algebra.expressions import (
    AntiSemiJoin,
    BaseRef,
    Difference,
    Intersect,
    Product,
    Select,
    SemiJoin,
    Union,
)
from repro.core.algebra.predicates import Not, col
from repro.core.relation import relation_from_rows

values = st.integers(min_value=0, max_value=3)
texps = st.one_of(st.integers(min_value=1, max_value=12), st.none())


def relations(max_size=6):
    row = st.tuples(values, values)
    return st.lists(st.tuples(row, texps), max_size=max_size).map(
        lambda data: relation_from_rows(["a", "b"], data)
    )


def content(expression, catalog, tau=0):
    return evaluate(expression, catalog, tau=tau).relation


settings_kwargs = dict(max_examples=60, deadline=None)


class TestUnionLaws:
    @settings(**settings_kwargs)
    @given(r=relations(), s=relations())
    def test_commutative_with_texps(self, r, s):
        catalog = {"R": r, "S": s}
        a = content(Union(BaseRef("R"), BaseRef("S")), catalog)
        b = content(Union(BaseRef("S"), BaseRef("R")), catalog)
        assert a.same_content(b)

    @settings(**settings_kwargs)
    @given(r=relations(), s=relations(), t=relations())
    def test_associative_with_texps(self, r, s, t):
        catalog = {"R": r, "S": s, "T": t}
        a = content(Union(Union(BaseRef("R"), BaseRef("S")), BaseRef("T")), catalog)
        b = content(Union(BaseRef("R"), Union(BaseRef("S"), BaseRef("T"))), catalog)
        assert a.same_content(b)

    @settings(**settings_kwargs)
    @given(r=relations())
    def test_idempotent_with_texps(self, r):
        catalog = {"R": r}
        a = content(Union(BaseRef("R"), BaseRef("R")), catalog)
        assert a.same_content(r.exp_at(0))


class TestIntersectLaws:
    @settings(**settings_kwargs)
    @given(r=relations(), s=relations())
    def test_commutative_with_texps(self, r, s):
        # min(texp_R, texp_S) is symmetric, so full content equality holds.
        catalog = {"R": r, "S": s}
        a = content(Intersect(BaseRef("R"), BaseRef("S")), catalog)
        b = content(Intersect(BaseRef("S"), BaseRef("R")), catalog)
        assert a.same_content(b)

    @settings(**settings_kwargs)
    @given(r=relations())
    def test_self_intersection(self, r):
        catalog = {"R": r}
        a = content(Intersect(BaseRef("R"), BaseRef("R")), catalog)
        assert a.same_content(r.exp_at(0))


class TestSelectLaws:
    @settings(**settings_kwargs)
    @given(r=relations(), c1=values, c2=values)
    def test_selects_commute(self, r, c1, c2):
        catalog = {"R": r}
        p, q = col(1) == c1, col(2) == c2
        a = content(Select(Select(BaseRef("R"), p), q), catalog)
        b = content(Select(Select(BaseRef("R"), q), p), catalog)
        c = content(Select(BaseRef("R"), p & q), catalog)
        assert a.same_content(b)
        assert a.same_content(c)

    @settings(**settings_kwargs)
    @given(r=relations(), c1=values)
    def test_excluded_middle(self, r, c1):
        # σ_p(R) ∪ σ_¬p(R) = R, with texps intact (rows are disjoint).
        catalog = {"R": r}
        p = col(1) == c1
        both = content(
            Union(Select(BaseRef("R"), p), Select(BaseRef("R"), Not(p))), catalog
        )
        assert both.same_content(r.exp_at(0))

    @settings(**settings_kwargs)
    @given(r=relations(), s=relations(), c1=values)
    def test_select_distributes_over_difference(self, r, s, c1):
        catalog = {"R": r, "S": s}
        p = col(1) == c1
        a = evaluate(Select(Difference(BaseRef("R"), BaseRef("S")), p), catalog)
        b = evaluate(Difference(Select(BaseRef("R"), p), Select(BaseRef("S"), p)), catalog)
        assert a.relation.same_content(b.relation)
        # Section 3.1: the pushed-down form never expires earlier.
        assert a.expiration <= b.expiration


class TestDifferenceLaws:
    @settings(**settings_kwargs)
    @given(r=relations(), s=relations())
    def test_difference_plus_intersection_covers_r(self, r, s):
        # Rows(R−S) ⊎ Rows(R∩S) = Rows(R); texps differ on the ∩ part
        # (difference keeps texp_R, intersection takes the min), so this
        # is a row-level law.
        catalog = {"R": r, "S": s}
        diff = content(Difference(BaseRef("R"), BaseRef("S")), catalog)
        inter = content(Intersect(BaseRef("R"), BaseRef("S")), catalog)
        visible_r = r.exp_at(0)
        assert set(diff.rows()) | set(inter.rows()) == set(visible_r.rows())
        assert not set(diff.rows()) & set(inter.rows())

    @settings(**settings_kwargs)
    @given(r=relations(), s=relations())
    def test_double_difference(self, r, s):
        # Rows(R − (R − S)) = Rows(R ∩ S) (texps differ by design).
        catalog = {"R": r, "S": s}
        double = content(
            Difference(BaseRef("R"), Difference(BaseRef("R"), BaseRef("S"))), catalog
        )
        inter = content(Intersect(BaseRef("R"), BaseRef("S")), catalog)
        assert set(double.rows()) == set(inter.rows())

    @settings(**settings_kwargs)
    @given(r=relations(), s=relations())
    def test_difference_from_empty_s(self, r, s):
        catalog = {"R": r, "S": relation_from_rows(["a", "b"], [])}
        diff = evaluate(Difference(BaseRef("R"), BaseRef("S")), catalog)
        assert diff.relation.same_content(r.exp_at(0))
        from repro.core.timestamps import INFINITY

        assert diff.expiration == INFINITY


class TestSemijoinLaws:
    @settings(**settings_kwargs)
    @given(r=relations(), s=relations())
    def test_antijoin_equals_difference_with_semijoin(self, r, s):
        # R ▷ S == R − (R ⋉ S): full content equality *and* identical
        # expression expiration and validity.
        catalog = {"R": r, "S": s}
        anti = evaluate(AntiSemiJoin(BaseRef("R"), BaseRef("S"), on=[(1, 1)]), catalog)
        via_diff = evaluate(
            Difference(BaseRef("R"), SemiJoin(BaseRef("R"), BaseRef("S"), on=[(1, 1)])),
            catalog,
        )
        assert anti.relation.same_content(via_diff.relation)
        assert anti.expiration == via_diff.expiration
        assert anti.validity == via_diff.validity

    @settings(**settings_kwargs)
    @given(r=relations(), s=relations())
    def test_semijoin_antijoin_partition_r(self, r, s):
        catalog = {"R": r, "S": s}
        semi = content(SemiJoin(BaseRef("R"), BaseRef("S"), on=[(1, 1)]), catalog)
        anti = content(AntiSemiJoin(BaseRef("R"), BaseRef("S"), on=[(1, 1)]), catalog)
        visible_r = r.exp_at(0)
        assert set(semi.rows()) | set(anti.rows()) == set(visible_r.rows())
        assert not set(semi.rows()) & set(anti.rows())


class TestProductLaws:
    @settings(**settings_kwargs)
    @given(r=relations(max_size=4), s=relations(max_size=4))
    def test_product_cardinality(self, r, s):
        catalog = {"R": r, "S": s}
        product = content(Product(BaseRef("R"), BaseRef("S")), catalog)
        assert len(product) == len(r.exp_at(0)) * len(s.exp_at(0))

    @settings(**settings_kwargs)
    @given(r=relations(max_size=4), s=relations(max_size=4))
    def test_product_commutes_up_to_column_order(self, r, s):
        catalog = {"R": r, "S": s}
        ab = content(Product(BaseRef("R"), BaseRef("S")), catalog)
        ba = content(Product(BaseRef("S"), BaseRef("R")), catalog)
        swapped = {(row[2:] + row[:2]) for row in ba.rows()}
        assert set(ab.rows()) == swapped