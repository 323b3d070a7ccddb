"""Tests for buffered transactions."""

import pytest

from repro.core.timestamps import INFINITY, ts
from repro.engine.database import Database
from repro.engine.recovery import recover_database
from repro.engine.transactions import TransactionState
from repro.errors import RelationError, TransactionError


@pytest.fixture
def db():
    database = Database()
    database.create_table("T", ["k", "v"])
    return database


class TestCommit:
    def test_applies_on_commit(self, db):
        txn = db.transaction()
        txn.insert("T", (1, 2), expires_at=10)
        txn.insert("T", (3, 4))
        assert len(db.table("T")) == 0  # buffered, not applied
        txn.commit()
        assert len(db.table("T")) == 2
        assert txn.state is TransactionState.COMMITTED
        assert db.statistics.transactions_committed == 1

    def test_delete(self, db):
        db.table("T").insert((1, 2))
        with db.transaction() as txn:
            txn.delete("T", (1, 2))
        assert len(db.table("T")) == 0

    def test_context_manager_commits(self, db):
        with db.transaction() as txn:
            txn.insert("T", (1, 2), ttl=5)
        assert len(db.table("T")) == 1

    def test_context_manager_aborts_on_exception(self, db):
        with pytest.raises(RuntimeError):
            with db.transaction() as txn:
                txn.insert("T", (1, 2))
                raise RuntimeError("boom")
        assert len(db.table("T")) == 0
        assert db.statistics.transactions_aborted == 1


class TestAtomicity:
    # Each transaction below fails on its last operation: inserting a row
    # that is already expired (texp <= now) is refused at commit.

    def test_failed_insert_undoes_everything(self, db):
        txn = db.transaction()
        txn.insert("T", (1, 5))
        txn.insert("T", (2, -1), expires_at=0)  # already expired
        with pytest.raises(RelationError):
            txn.commit()
        assert len(db.table("T")) == 0
        assert txn.state is TransactionState.ABORTED

    def test_undo_restores_previous_expiration(self, db):
        db.table("T").insert((1, 5), expires_at=10)
        txn = db.transaction()
        txn.insert("T", (1, 5), expires_at=99)  # lifetime extension
        txn.insert("T", (2, -1), expires_at=0)  # refused -> rollback
        with pytest.raises(RelationError):
            txn.commit()
        assert db.table("T").relation.expiration_of((1, 5)) == ts(10)

    def test_undo_restores_deleted_row(self, db):
        db.table("T").insert((1, 5), expires_at=10)
        txn = db.transaction()
        txn.delete("T", (1, 5))
        txn.insert("T", (2, -1), expires_at=0)
        with pytest.raises(RelationError):
            txn.commit()
        assert (1, 5) in db.table("T").relation
        assert db.table("T").relation.expiration_of((1, 5)) == ts(10)


class TestDomainRefusal:
    """The table's door refuses a value outside the attribute domain at
    commit, and the transaction rolls back what it had applied."""

    @pytest.mark.parametrize("logged", [False, True], ids=["unlogged", "logged"])
    @pytest.mark.parametrize(
        "shape", [{}, {"layout": "columnar"}, {"partitions": 3}],
        ids=["row", "columnar", "partitioned"],
    )
    def test_a_refused_value_rolls_the_first_op_back(self, tmp_path, shape, logged):
        db = Database(wal_dir=tmp_path if logged else None)
        table = db.create_table("T", ["k", "v"], **shape)
        table.insert((0, "kept"), expires_at=20)
        view = db.materialise("w", db.table_expr("T"))
        heard = []
        table.insert_listeners.append(
            lambda _table, stored: heard.append(("insert", stored.row))
        )
        table.delete_listeners.append(
            lambda _table, row: heard.append(("delete", row))
        )
        before = sorted(table.relation.items())
        txn = db.transaction()
        txn.insert("T", (1, "first"), expires_at=10)
        txn.insert("T", (2, float("nan")), expires_at=10)
        with pytest.raises(RelationError, match="nan"):
            txn.commit()
        assert txn.state is TransactionState.ABORTED
        assert sorted(table.relation.items()) == before
        assert table.next_expiration() == ts(20)  # no index entry at 10
        assert sorted(view.read().rows()) == [(0, "kept")]
        # The first op was applied and undone; nobody heard of the second.
        assert heard == [("insert", (1, "first")), ("delete", (1, "first"))]
        db.close()
        if logged:
            recovered = recover_database(tmp_path)
            assert sorted(recovered.table("T").relation.items()) == before
            recovered.close()


class TestLifecycle:
    def test_unknown_table_fails_fast(self, db):
        txn = db.transaction()
        with pytest.raises(Exception):
            txn.insert("Nope", (1,))

    def test_no_ops_after_commit(self, db):
        txn = db.transaction()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.insert("T", (1, 2))
        with pytest.raises(TransactionError):
            txn.commit()

    def test_abort_discards(self, db):
        txn = db.transaction()
        txn.insert("T", (1, 2))
        txn.abort()
        assert len(db.table("T")) == 0
        with pytest.raises(TransactionError):
            txn.commit()
