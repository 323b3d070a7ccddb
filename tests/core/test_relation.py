"""Tests for relations: exp_τ, max-merge duplicates, purging."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.relation import Relation, relation_from_rows
from repro.core.schema import Schema
from repro.core.timestamps import INFINITY, RAW_INFINITY, Timestamp, from_raw, ts
from repro.errors import RelationError

rows_with_texps = st.lists(
    st.tuples(
        st.tuples(st.integers(0, 20), st.integers(0, 20)),
        st.one_of(st.integers(1, 50), st.none()),
    ),
    max_size=20,
)


class TestConstruction:
    def test_from_names(self):
        assert Relation(["a", "b"]).arity == 2

    def test_from_arity(self):
        assert Relation(3).schema.names == ("a1", "a2", "a3")

    def test_from_rows(self):
        rel = relation_from_rows(["a"], [((1,), 5), ((2,), None)])
        assert len(rel) == 2
        assert rel.expiration_of((2,)) == INFINITY


class TestInsertion:
    def test_insert_and_lookup(self, pol):
        assert pol.expiration_of((1, 25)) == ts(10)
        assert pol.expiration_of((2, 25)) == ts(15)

    def test_arity_checked(self):
        with pytest.raises(RelationError):
            Relation(["a", "b"]).insert((1,))

    def test_duplicate_keeps_max(self):
        rel = Relation(["a"])
        rel.insert((1,), expires_at=5)
        rel.insert((1,), expires_at=9)
        assert rel.expiration_of((1,)) == ts(9)
        rel.insert((1,), expires_at=3)  # shorter: no effect
        assert rel.expiration_of((1,)) == ts(9)
        assert len(rel) == 1

    def test_duplicate_with_infinity_wins(self):
        rel = Relation(["a"])
        rel.insert((1,), expires_at=5)
        rel.insert((1,))  # no expiration = ∞
        assert rel.expiration_of((1,)) == INFINITY

    def test_override_shortens(self):
        rel = Relation(["a"])
        rel.insert((1,), expires_at=9)
        rel.override((1,), expires_at=2)
        assert rel.expiration_of((1,)) == ts(2)

    def test_insert_returns_effective_tuple(self):
        rel = Relation(["a"])
        rel.insert((1,), expires_at=9)
        stored = rel.insert((1,), expires_at=4)
        assert stored.expires_at == ts(9)

    def test_missing_row_raises(self):
        with pytest.raises(RelationError):
            Relation(["a"]).expiration_of((1,))

    def test_expiration_or_none(self):
        rel = Relation(["a"])
        assert rel.expiration_or_none((1,)) is None



class TestBulkLoad:
    """Every shape of pairs lands, in an empty relation, as the one-by-one
    max-merge would store it: the raw-tick fast path and the loop agree."""

    PAIRS = [((1,), 5), ((2,), 8), ((1,), 9), ((3,), RAW_INFINITY), ((2,), 4)]

    @staticmethod
    def looped(pairs):
        stored = {}
        for row, stamp in pairs:
            stamp = from_raw(stamp) if type(stamp) is int else stamp
            if row not in stored or stored[row] < stamp:
                stored[row] = stamp
        return stored

    @pytest.mark.parametrize("shape", ["timestamps", "raw", "mixed"])
    def test_matches_the_loop(self, shape):
        pairs = [
            (row, from_raw(tick) if shape == "timestamps"
             or (shape == "mixed" and index % 2) else tick)
            for index, (row, tick) in enumerate(self.PAIRS)
        ]
        relation = Relation(["a"])
        assert relation.bulk_load(pairs) == len(pairs)
        assert dict(relation.items()) == self.looped(pairs)
        assert relation.expiration_of((3,)) == INFINITY
        assert relation.expiration_of((1,)) == ts(9)

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 40),
                              st.booleans()), max_size=20))
    def test_any_mix_matches_the_loop(self, draws):
        pairs = [((row,), from_raw(tick) if stamped else tick)
                 for row, tick, stamped in draws]
        relation = Relation(["a"])
        relation.bulk_load(pairs)
        assert dict(relation.items()) == self.looped(pairs)

class TestExpAt:
    def test_paper_semantics_strictly_greater(self, pol):
        # exp_τ(R) = {r | texp(r) > τ}: at τ=10 the two @10 tuples are gone.
        visible = pol.exp_at(10)
        assert set(visible.rows()) == {(2, 25)}

    def test_at_time_zero_all_visible(self, pol):
        assert len(pol.exp_at(0)) == 3

    def test_does_not_mutate(self, pol):
        pol.exp_at(100)
        assert len(pol) == 3

    def test_idempotent_composition(self, pol):
        # exp_τ'(exp_τ(R)) == exp_τ'(R) for τ <= τ'.
        assert pol.exp_at(5).exp_at(12).same_content(pol.exp_at(12))

    @given(data=rows_with_texps, tau=st.integers(0, 60))
    def test_exp_at_membership(self, data, tau):
        rel = relation_from_rows(["a", "b"], data)
        visible = rel.exp_at(tau)
        for row, texp in rel.items():
            assert (row in visible) == (texp > ts(tau))


class TestDeletionAndPurge:
    def test_delete(self, pol):
        assert pol.delete((1, 25))
        assert not pol.delete((1, 25))
        assert len(pol) == 2

    def test_purge_expired(self, pol):
        removed = pol.purge_expired(10)
        assert removed == 2
        assert set(pol.rows()) == {(2, 25)}

    def test_purge_nothing(self, pol):
        assert pol.purge_expired(0) == 0


class TestStatistics:
    def test_earliest_latest(self, pol):
        assert pol.earliest_expiration() == ts(10)
        assert pol.latest_expiration() == ts(15)

    def test_empty_bounds(self):
        rel = Relation(["a"])
        assert rel.earliest_expiration() == INFINITY
        assert rel.latest_expiration() == ts(0)


class TestEqualityAndCopy:
    def test_same_content_ignores_names(self):
        a = relation_from_rows(["x"], [((1,), 5)])
        b = relation_from_rows(["y"], [((1,), 5)])
        assert a.same_content(b)
        assert a != b  # full equality includes schema

    def test_copy_is_independent(self, pol):
        clone = pol.copy()
        clone.delete((1, 25))
        assert len(pol) == 3

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Relation(["a"]))


class TestPretty:
    def test_contains_rows_and_header(self, pol):
        text = pol.pretty("Pol")
        assert "Pol" in text
        assert "texp(.)" in text
        assert "25" in text

    def test_empty_marker(self):
        assert "(empty)" in Relation(["a"]).pretty()
