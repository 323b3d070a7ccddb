"""Crash recovery: snapshot load + expiration-aware log replay.

:func:`recover_database` rebuilds a :class:`~repro.engine.database.Database`
from a WAL directory (see :mod:`repro.engine.wal`):

1. **Snapshot.**  Load ``snapshot.json`` if present (tables only -- views
   wait until the log is replayed).  Snapshots are written atomically, so
   one is either absent or complete; one that fails a frame's checksum
   is refused whole (:func:`~repro.engine.persistence.read_snapshot`).
2. **Torn tail.**  Scan the log; if a crash tore the final record (short
   frame, short payload, CRC mismatch, garbage), truncate the file back
   to the last intact frame boundary with a warning -- never crash.
3. **Replay through the expiration model.**  Records apply in order:
   ``clock`` records advance the engine clock (re-driving expiration
   sweeps exactly as the live run drove them), DDL re-creates tables, and
   physical records restore row state.  This is where the paper's
   asymmetry -- a tuple past its ``texp`` needs no delete -- is enforced
   for durability: an ``upsert`` whose expiration is already ``<=`` the
   *final* recovered clock is **skipped** -- its tuple could only ever be
   dead weight (it is erased instead, in case an older incarnation
   survives from the snapshot).  The log is written in full and bounded
   by one thing only, :meth:`Database.checkpoint
   <repro.engine.database.Database.checkpoint>`, which snapshots the
   stored rows and empties it.
4. **Roll back in-flight transactions.**  A ``begin`` with no ``commit``/
   ``abort`` bracket was applying at the crash; its physical records are
   undone newest-first through :meth:`Table.undo_insert` /
   :meth:`Table.undo_delete` -- the same audited rollback paths live
   aborts use -- restoring each row's logged pre-state.
5. **Re-materialise views.**  View definitions come from the snapshot and
   ``create_view``/``drop_view`` records; their content is always
   recomputed from the recovered base tables (never logged).
6. **Audit.**  ``Database.verify(strict=True, deep=True)`` must pass
   before the database is handed back (disable with ``verify=False``).

The log is decoded **once**: opening it (:class:`WriteAheadLog`) scans
the file, and that one scan seeds the transaction counter, locates the
torn tail and is the record list replay consumes; the list is dropped as
soon as replay is done with it.  Replay works on what the decoder
produced: a record's row is already a tuple, its expiration a bare tick
that is compared with the final clock as an ``int`` and handed to
:meth:`Table.bulk_restore` as it is (``∞`` as :data:`INFINITY`).  Each
phase's wall time lands in :attr:`RecoveryReport.phase_seconds`.

The recovered database adopts the log for subsequent appends, so
``recover_database`` composes: crash, recover, keep writing, crash again.

Replay is idempotent by construction -- ``upsert`` records carry the
*resulting* absolute expiration, not a delta -- which is what makes the
checkpoint race benign: a crash between writing ``snapshot.json`` and
truncating the log replays pre-snapshot records on top of the snapshot
without changing the outcome.
"""

from __future__ import annotations

import time
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.codec import decode_prev
from repro.core.timestamps import INFINITY
from repro.engine.database import Database
from repro.engine.wal import WriteAheadLog, declare_wal_families
from repro.errors import RecoveryError
from repro.obs.registry import MetricsRegistry

__all__ = ["RecoveryReport", "recover_database"]


class RecoveryReport:
    """What one recovery did (attached as ``db.last_recovery``)."""

    def __init__(self) -> None:
        self.snapshot_loaded = False
        self.records_replayed = 0
        self.records_skipped_expired = 0
        self.torn_tail_truncated = False
        self.transactions_rolled_back = 0
        #: Wall time per phase, in order: ``scan`` (open + decode the log,
        #: truncate a torn tail), ``snapshot`` (read + load it),
        #: ``replay`` (log records + rollback of in-flight transactions),
        #: ``views`` (re-materialisation), ``verify`` (the deep audit;
        #: ``0.0`` with ``verify=False``).
        self.phase_seconds: Dict[str, float] = {}
        #: Open to ready: the sum of the phases, the audit included.
        self.seconds = 0.0

    def __repr__(self) -> str:
        return (
            f"RecoveryReport(snapshot={self.snapshot_loaded}, "
            f"replayed={self.records_replayed}, "
            f"skipped_expired={self.records_skipped_expired}, "
            f"torn={self.torn_tail_truncated}, "
            f"rolled_back={self.transactions_rolled_back}, "
            f"seconds={self.seconds:.4f})"
        )


def _final_time(db: Database, records: List[Dict[str, Any]]) -> int:
    """The clock value recovery will end at (snapshot time or last advance)."""
    final = db.now.value
    for record in records:
        if record["kind"] == "clock" and record["now"] > final:
            final = record["now"]
    return final


class _PhysicalBatch:
    """Consecutive physical records buffered per table for bulk apply.

    Replay used to write every ``upsert``/``remove`` through a per-row
    relation/index call; on recovery-heavy logs those per-row paths (dict
    churn, one heap push per row) dominate wall time.  The batch instead
    accumulates ``(row, tick or None)`` ops per table and flushes them
    through the trusted :meth:`Table.bulk_restore` (in-order
    override/delete semantics, one heap repair per shard) before any record
    that *reads* table state (a clock advance's sweep, DDL) and at the
    end of the log.
    """

    def __init__(self, db: Database) -> None:
        self.db = db
        #: Per table name the ops since the last flush; ``None`` for a name
        #: that is not a table (a pre-snapshot record of a table dropped
        #: before the snapshot -- checkpoint-race replay; the drop
        #: supersedes it).  Only DDL changes which names are tables, and
        #: DDL flushes first.
        self.pending: Dict[str, Optional[List[Tuple[tuple, Optional[int]]]]] = {}

    def ops(self, name: str) -> Optional[List[Tuple[tuple, Optional[int]]]]:
        """The op list to append ``name``'s records to (``None``: skip them)."""
        ops = self.pending[name] = [] if self.db.has_table(name) else None
        return ops

    def flush(self) -> None:
        for name, ops in self.pending.items():
            if ops:
                self.db.table(name).bulk_restore(ops)
        self.pending.clear()


def _rollback_open_transactions(
    db: Database,
    open_txns: Dict[int, List[Dict[str, Any]]],
) -> int:
    """Undo every unbracketed transaction's records, newest first."""
    undone = 0
    for txn_id in sorted(open_txns, reverse=True):
        for record in reversed(open_txns[txn_id]):
            if not db.has_table(record["table"]):
                continue
            table = db.table(record["table"])
            row = record["row"]
            previous = decode_prev(record["prev"])
            if record["kind"] == "upsert":
                table.undo_insert(row, previous)
            else:
                # ``remove`` records always have a concrete previous state
                # (a delete of an absent row is never logged).
                table.undo_delete(row, previous)
        undone += 1
    return undone


def recover_database(
    wal_dir: Union[str, Path],
    fsync: str = "commit",
    verify: bool = True,
    **db_kwargs: Any,
) -> Database:
    """Rebuild the database persisted in ``wal_dir`` and re-attach its log.

    ``db_kwargs`` are forwarded to :class:`Database`
    (``check_invariants=``, ``metrics=``, ...).  The returned database has
    the recovered WAL attached (subsequent mutations append to it) and a
    :class:`RecoveryReport` as ``db.last_recovery``.

    Raises :class:`~repro.errors.RecoveryError` if the directory's state
    is unusable (unreadable snapshot) or, with ``verify=True`` (default),
    if the recovered database fails its deep invariant audit.
    """
    wal_dir = Path(wal_dir)
    if "start_time" in db_kwargs:
        raise RecoveryError("start_time comes from the recovered state")
    registry = db_kwargs.get("metrics")
    if registry is None:
        registry = MetricsRegistry()
        db_kwargs["metrics"] = registry
    families = declare_wal_families(registry)
    report = RecoveryReport()
    lap_started = time.perf_counter()

    def lap(phase: str) -> None:
        nonlocal lap_started
        now = time.perf_counter()
        report.phase_seconds[phase] = elapsed = now - lap_started
        families["recovery_phase_seconds"].labels(phase).observe(elapsed)
        lap_started = now

    # Opening the log decodes it; the two calls below read that one scan.
    wal = WriteAheadLog(wal_dir, fsync=fsync, registry=registry)
    # truncate_torn_tail counts into repro_wal_torn_tails_total itself.
    report.torn_tail_truncated = wal.truncate_torn_tail()
    records = wal.records()
    lap("scan")

    from repro.engine.persistence import (
        database_from_dict,
        read_snapshot,
        restore_table,
        restore_views,
    )

    snapshot_data: Optional[Dict[str, Any]] = None
    if wal.snapshot_path.exists():
        try:
            snapshot_data = read_snapshot(wal.snapshot_path)
        except (OSError, ValueError) as error:
            raise RecoveryError(
                f"unreadable snapshot {wal.snapshot_path}: {error}"
            ) from error

    if snapshot_data is not None:
        db = database_from_dict(
            snapshot_data, include_views=False, **db_kwargs
        )
        view_specs: List[Dict[str, Any]] = list(
            snapshot_data.get("views", ())
        )
        report.snapshot_loaded = True
    else:
        db = Database(**db_kwargs)
        view_specs = []
    del snapshot_data  # the decoded segments are dead weight from here on
    lap("snapshot")

    final_time = _final_time(db, records)
    open_txns: Dict[int, List[Dict[str, Any]]] = {}
    batch = _PhysicalBatch(db)
    pending = batch.pending
    skipped = 0
    for record in records:
        kind = record["kind"]
        if kind == "upsert" or kind == "remove":
            # State is written through the table's trusted bulk path (as
            # snapshot restore does): listener and data-version side
            # effects are pointless here -- views materialise after replay
            # and the plan cache of a fresh database is empty.
            name = record["table"]
            ops = pending[name] if name in pending else batch.ops(name)
            if ops is not None:
                texp = None
                if kind == "upsert":
                    texp = record["texp"]
                    if texp is None:
                        texp = INFINITY
                    elif texp <= final_time:
                        # Already past its expiration at recovery time:
                        # never apply it.  Erase instead of ignore -- an
                        # older incarnation of the row may survive from
                        # the snapshot and must not outlive this state.
                        texp = None
                        skipped += 1
                ops.append((record["row"], texp))
            if "txn" in record and record["txn"] in open_txns:
                open_txns[record["txn"]].append(record)
        elif kind == "clock":
            # The advance sweeps expirations, which must see every
            # buffered physical record first.
            batch.flush()
            if record["now"] > db.now.value:
                db.advance_to(record["now"])
        elif kind == "begin":
            open_txns[record["txn"]] = []
        elif kind in ("commit", "abort"):
            open_txns.pop(record["txn"], None)
        elif kind == "create_table":
            batch.flush()
            if not db.has_table(record["spec"]["name"]):
                restore_table(db, record["spec"])
        elif kind == "drop_table":
            batch.flush()
            if db.has_table(record["name"]):
                # Views over the table cannot exist yet (materialisation
                # is deferred), but their pending specs must go too.
                view_specs = [
                    spec for spec in view_specs
                    if record["name"] not in _spec_base_names(spec)
                ]
                db.drop_table(record["name"])
        elif kind == "create_view":
            view_specs = [
                spec for spec in view_specs
                if spec["name"] != record["spec"]["name"]
            ]
            view_specs.append(record["spec"])
        elif kind == "drop_view":
            view_specs = [
                spec for spec in view_specs
                if spec["name"] != record["name"]
            ]
        else:
            warnings.warn(
                f"skipping unknown WAL record kind {kind!r} "
                f"(written by a newer version?)",
                stacklevel=2,
            )
    batch.flush()
    report.records_replayed = len(records)
    report.records_skipped_expired = skipped
    # Replay was the decoded log's only reader: free it before the views
    # and the audit build their own state on top.
    del records
    families["recovery_records"].inc(report.records_replayed)
    families["skipped"].inc(skipped)

    if open_txns:
        report.transactions_rolled_back = _rollback_open_transactions(
            db, open_txns
        )
    lap("replay")

    restore_views(db, view_specs)
    lap("views")
    db.last_recovery = report

    if verify:
        try:
            db.verify(strict=True, deep=True)
        except Exception as error:
            raise RecoveryError(
                f"recovered database failed its invariant audit: {error}"
            ) from error
    lap("verify")
    report.seconds = sum(report.phase_seconds.values())
    families["recovery_seconds"].observe(report.seconds)

    db._attach_wal(wal)
    return db


def _spec_base_names(spec: Dict[str, Any]) -> Tuple[str, ...]:
    """Base tables a persisted view definition references."""
    from repro.core.algebra.serde import expression_from_dict

    return tuple(expression_from_dict(spec["expression"]).base_names())
