"""Tests for buffered transactions."""

import pytest

from repro.core.timestamps import INFINITY, ts
from repro.engine.database import Database
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
