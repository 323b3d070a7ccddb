"""Minimal transactions over the expiration-enabled engine.

The paper's motivation includes *lower transaction volume*: where a
traditional system issues one delete transaction per elapsed lifetime, an
expiration-enabled system issues none.  To make that comparison honest the
engine supports grouped atomic modifications: a :class:`Transaction`
buffers inserts and deletes and applies them atomically on commit, undoing
partial work if any of them fails.

This is deliberately lightweight -- single-writer, no concurrency control --
because the paper's setting (loosely-coupled, non-ACID) explicitly
de-emphasises heavyweight transactional machinery.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from repro.core.timestamps import TimeLike, Timestamp, ts
from repro.core.tuples import Row, make_row
from repro.errors import TransactionError

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.engine.database import Database

__all__ = ["Transaction", "TransactionState"]


class TransactionState(enum.Enum):
    """Lifecycle states of a :class:`Transaction`."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class _Op:
    kind: str  # "insert" | "delete"
    table: str
    row: Row
    expires_at: Optional[Timestamp] = None
    ttl: Optional[int] = None


class Transaction:
    """A buffered group of modifications, atomic on commit.

    Usable as a context manager::

        with db.transaction() as txn:
            txn.insert("Pol", (1, 25), expires_at=10)
            txn.delete("El", (4, 90))
        # committed on clean exit, aborted on exception
    """

    def __init__(self, database: "Database") -> None:
        self.database = database
        self.state = TransactionState.ACTIVE
        self._ops: List[_Op] = []

    # -- buffering ----------------------------------------------------------

    def insert(
        self,
        table: str,
        values: Any,
        expires_at: TimeLike = None,
        ttl: Optional[int] = None,
    ) -> None:
        """Buffer an insert (validated against the table's schema now)."""
        self._check_active()
        self.database.table(table)  # fail fast on unknown tables
        stamp = None if expires_at is None else ts(expires_at)
        self._ops.append(_Op("insert", table, make_row(values), stamp, ttl))

    def delete(self, table: str, values: Any) -> None:
        """Buffer an explicit delete."""
        self._check_active()
        self.database.table(table)
        self._ops.append(_Op("delete", table, make_row(values)))

    def _check_active(self) -> None:
        if self.state is not TransactionState.ACTIVE:
            raise TransactionError(f"transaction is {self.state.value}")

    # -- lifecycle -------------------------------------------------------------

    def commit(self) -> None:
        """Apply all buffered operations; undo everything on any failure.

        With a write-ahead log attached, the whole apply is bracketed by
        ``begin``/``commit`` records and every physical record carries the
        transaction id; a crash mid-apply leaves the bracket open, and
        recovery rolls the partial work back through the same
        ``undo_insert``/``undo_delete`` paths :meth:`_undo` uses live.
        The ``commit`` record is the durability point (fsynced under the
        ``"commit"`` policy).
        """
        self._check_active()
        wal = self.database.wal
        txn_id: Optional[int] = None
        if wal is not None:
            txn_id = wal.next_txn_id()
            wal.append("begin", txn=txn_id)
            self.database._wal_txn = txn_id
        undo: List[Tuple[str, str, Row, Optional[Timestamp]]] = []
        try:
            for op in self._ops:
                table = self.database.table(op.table)
                # The state rollback restores is what the verb starts from:
                # a LAZY row that already expired counts as absent.
                previous = table.preimage(op.row)
                if op.kind == "insert":
                    table.insert(op.row, expires_at=op.expires_at, ttl=op.ttl)
                    undo.append(("insert", op.table, op.row, previous))
                else:
                    if table.delete(op.row):
                        undo.append(("delete", op.table, op.row, previous))
        except Exception:
            self._undo(undo)
            if wal is not None:
                self.database._wal_txn = None
                wal.append("abort", txn=txn_id)
            self.state = TransactionState.ABORTED
            self.database.statistics.transactions_aborted += 1
            raise
        if wal is not None:
            self.database._wal_txn = None
            wal.append("commit", txn=txn_id, sync=True)
        self.state = TransactionState.COMMITTED
        self.database.statistics.transactions_committed += 1

    def _undo(self, undo: List[Tuple[str, str, Row, Optional[Timestamp]]]) -> None:
        """Roll back the applied prefix, newest first.

        Rollback goes through :meth:`Table.undo_insert` /
        :meth:`Table.undo_delete` rather than mutating ``table.relation``
        directly: the expiration index, plan-cache data version, and
        view-maintenance listeners (flat and sharded alike) must all see
        the rollback, or an aborted insert stays scheduled for expiry and
        cached/materialised reads keep serving the aborted state.
        """
        for kind, table_name, row, previous in reversed(undo):
            table = self.database.table(table_name)
            if kind == "insert":
                table.undo_insert(row, previous)
            else:  # undone delete: restore the row with its old expiration
                table.undo_delete(row, previous)

    def abort(self) -> None:
        """Discard the buffered operations."""
        self._check_active()
        self._ops.clear()
        self.state = TransactionState.ABORTED
        self.database.statistics.transactions_aborted += 1

    # -- context manager -----------------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        if exc_type is not None:
            if self.state is TransactionState.ACTIVE:
                self.abort()
            return False
        if self.state is TransactionState.ACTIVE:
            self.commit()
        return False
