"""Tests for the columnar relation layout (core/columnar.py).

:class:`ColumnarRelation` must be a drop-in twin of the row engine's
:class:`Relation` -- same max-merge duplicate policy, same ``exp_at``,
same sweep semantics -- stored as parallel attribute arrays plus a raw
``int64`` expiration column.  These tests pin the raw-tick encoding, the
swap-remove density invariant, the trusted bulk paths recovery uses, and
the :class:`ColumnBatch` bridge the compiled kernels consume.
"""

import pytest

from repro.core.columnar import RAW_INFINITY, ColumnarRelation
from repro.core.relation import Relation
from repro.core.timestamps import INFINITY, Timestamp, from_raw, ts
from repro.errors import RelationError, TimeError


# The layout has one backend; the single-valued parameter stays so these
# cases keep the ``[python]`` ids that committed test baselines name.
@pytest.fixture(params=["python"])
def backend(request):
    return request.param


class TestRawEncoding:
    def test_round_trip_finite(self):
        for value in (0, 1, 17, 10**12):
            assert int(ts(value)) == value
            assert from_raw(int(ts(value))).value == value

    def test_infinity_sentinel(self):
        assert int(INFINITY) == RAW_INFINITY
        assert from_raw(RAW_INFINITY) is INFINITY

    def test_overflow_rejected(self):
        with pytest.raises(TimeError):
            ts(RAW_INFINITY)


class TestMutation:
    def test_insert_max_merge(self, backend):
        relation = ColumnarRelation(2)
        relation.insert((1, 2), expires_at=5)
        stored = relation.insert((1, 2), expires_at=3)
        # A duplicate keeps the *later* expiration (paper Eq. 3).
        assert stored.expires_at.value == 5
        relation.insert((1, 2), expires_at=9)
        assert relation.expiration_of((1, 2)).value == 9
        assert len(relation) == 1

    def test_override_is_unconditional(self, backend):
        relation = ColumnarRelation(1)
        relation.insert((1,), expires_at=9)
        relation.override((1,), 3)
        assert relation.expiration_of((1,)).value == 3

    def test_delete_keeps_arrays_dense(self, backend):
        relation = ColumnarRelation(2)
        for i in range(6):
            relation.insert((i, i * 10), expires_at=i + 1)
        assert relation.delete((2, 20))
        assert not relation.delete((2, 20))
        # Swap-remove: no holes, every surviving row still addressable.
        assert len(relation._texp) == 5
        assert all(len(col) == 5 for col in relation._cols)
        for i in (0, 1, 3, 4, 5):
            assert relation.expiration_of((i, i * 10)).value == i + 1

    def test_contains_and_expiration_or_none(self, backend):
        relation = ColumnarRelation(1)
        relation.insert((7,))
        assert relation.contains((7,))
        assert relation.expiration_or_none((7,)) is INFINITY
        assert relation.expiration_or_none((8,)) is None
        with pytest.raises(RelationError):
            relation.expiration_of((8,))

    def test_arity_checked(self, backend):
        with pytest.raises(RelationError):
            ColumnarRelation(2).insert((1,))


class TestBulkPaths:
    def test_bulk_load_max_merges(self, backend):
        relation = ColumnarRelation(1)
        relation.bulk_load([((1,), ts(5)), ((2,), ts(8)), ((1,), ts(3))])
        assert relation.expiration_of((1,)).value == 5
        assert relation.expiration_of((2,)).value == 8

    def test_bulk_restore_overrides_and_deletes(self, backend):
        relation = ColumnarRelation(1)
        relation.insert((1,), expires_at=9)
        relation.bulk_restore(
            [((1,), ts(2)), ((2,), INFINITY), ((3,), None), ((2,), None)]
        )
        # Override (no max-merge), insert, absent delete tolerated, delete.
        assert relation.expiration_of((1,)).value == 2
        assert not relation.contains((2,))
        assert len(relation) == 1


class TestModelPrimitives:
    def test_exp_at_filters_by_raw_compare(self, backend):
        relation = ColumnarRelation(1)
        relation.insert((1,), expires_at=5)
        relation.insert((2,), expires_at=10)
        relation.insert((3,))
        visible = relation.exp_at(5)
        assert sorted(visible.rows()) == [(2,), (3,)]
        assert isinstance(visible, ColumnarRelation)
        # All-live fast path returns a copy, never an alias.
        all_live = relation.exp_at(0)
        assert all_live is not relation
        assert all_live.same_content(relation)

    def test_purge_expired(self, backend):
        relation = ColumnarRelation(1)
        relation.insert((1,), expires_at=5)
        relation.insert((2,), expires_at=10)
        assert relation.purge_expired(5) == 1
        assert sorted(relation.rows()) == [(2,)]

    def test_sweep_due_skips_renewed_and_absent(self, backend):
        relation = ColumnarRelation(1)
        relation.insert((1,), expires_at=5)
        relation.insert((2,), expires_at=5)
        relation.override((2,), 20)  # renewed after its entry was scheduled
        due = [((1,), ts(5)), ((2,), ts(5)), ((9,), ts(5))]
        processed, expired = relation._sweep_due(due, ts(5), collect=True)
        assert processed == 1
        assert expired == [((1,), ts(5))]
        assert sorted(relation.rows()) == [(2,)]

    def test_earliest_and_latest(self, backend):
        relation = ColumnarRelation(1)
        assert relation.earliest_expiration() is INFINITY
        assert relation.latest_expiration().value == 0
        relation.insert((1,), expires_at=5)
        relation.insert((2,))
        assert relation.earliest_expiration().value == 5
        assert relation.latest_expiration() is INFINITY


class TestRelationParity:
    def test_same_content_and_equality_with_row_layout(self, backend):
        row = Relation(2)
        col = ColumnarRelation(2)
        for target in (row, col):
            target.insert((1, 2), expires_at=5)
            target.insert((3, 4))
        assert col.same_content(row)
        assert col == row

    def test_from_relation_copies(self, backend):
        row = Relation(["a"])
        row.insert((1,), expires_at=5)
        col = ColumnarRelation.from_relation(row)
        assert col.same_content(row)
        col.insert((2,))
        assert not row.contains((2,))

    def test_copy_is_independent(self, backend):
        relation = ColumnarRelation(1)
        relation.insert((1,), expires_at=5)
        clone = relation.copy()
        clone.delete((1,))
        assert relation.contains((1,))


    @pytest.mark.parametrize("layout", [Relation, ColumnarRelation])
    def test_alive_at_agrees_with_exp_at(self, layout):
        relation = layout(2)
        relation.insert((1, "a"), expires_at=5)
        relation.insert((2, "b"))
        for tau in (4, 5, 6):
            visible = set(relation.exp_at(tau).rows())
            for row in ((1, "a"), (2, "b"), (3, "c")):
                assert relation.alive_at(row, tau) == (row in visible)
                assert relation.alive_at(row, ts(tau)) == (row in visible)
        with pytest.raises(RelationError, match="hashable"):
            relation.alive_at((1, ["a"]), 4)


class TestColumnBatch:
    def test_unfiltered_batch_aliases_live_storage(self):
        relation = ColumnarRelation(2)
        relation.insert((1, 2), expires_at=5)
        batch = relation.batch()
        assert batch.columns[0] is relation._cols[0]
        assert batch.texp is relation._texp

    def test_filtered_batch(self, backend):
        relation = ColumnarRelation(1)
        relation.insert((1,), expires_at=5)
        relation.insert((2,), expires_at=10)
        batch = relation.batch(ts(5))
        assert len(batch) == 1
        assert list(batch.iter_rows()) == [(2,)]

    def test_pairs_decode_to_native_types(self, backend):
        relation = ColumnarRelation(1)
        relation.insert((1,), expires_at=5)
        relation.insert((2,))
        pairs = dict(relation.batch().pairs())
        for row, stamp in pairs.items():
            assert type(row[0]) is int
            assert isinstance(stamp, Timestamp)
        assert pairs[(2,)] is INFINITY

    def test_zero_column_batch_yields_empty_rows(self):
        from repro.core.columnar import ColumnBatch

        batch = ColumnBatch([], [5, 7])
        assert len(batch) == 2
        assert list(batch.iter_rows()) == [(), ()]
