"""An expiration-aware append-only write-ahead log.

Durability in an expiration-enabled engine has one structural advantage
over a classical WAL: a record whose tuple is already past its ``texp``
when the log is replayed never needs to be applied -- expiration replaces
the explicit deletes a classical log must replay.  The log itself is
written as any redo log is; the advantage is taken where it is enforced,
in recovery's replay (:mod:`repro.engine.recovery` skips every ``upsert``
whose ``texp`` is at or before the final clock), and by the one bound on
the log's size, :meth:`~repro.engine.database.Database.checkpoint`, which
writes the rows the tables still store and empties the log -- so a
short-lived row swept before the checkpoint costs nothing on disk after
it (the argument of "Efficient Management of Short-Lived Data").

Physical format
---------------

The log is a single append-only file of the frames :mod:`repro.codec`
defines (length, CRC32, payload): ``upsert`` and ``remove`` -- one per row
mutation, nearly all of any log -- in the packed binary payload, every
other kind as one compact JSON object.  That module's docstring has both
layouts and says why this reader and the wire's disagree about a bad
frame; a log written before the packed payload existed is all JSON and
reads through the same first-byte rule.  This reader's side: it stops at
the first frame that is incomplete or can never decode.  Everything before
that point is trusted, everything from it on is a *torn tail* left by a
crash mid-append and is truncated away by recovery (warn-and-truncate,
never crash).  :meth:`WriteAheadLog.append` refuses a record it cannot
frame; a row reads back as itself because the table admits only its domain.

Logical records (the ``kind`` field of each payload):

``upsert``   row state after an insert/renewal/undo-restore: table, row,
             resulting (post-max-merge) expiration, and the row's previous
             expiration state (for transaction rollback at recovery);
``remove``   row explicitly deleted (or un-inserted by a rollback);
``clock``    the logical clock advanced -- replay re-drives expiration
             processing through the engine, so expired tuples drop out of
             recovery exactly as they dropped out of the live run;
``begin`` / ``commit`` / ``abort``
             transaction brackets; physical records carry the transaction
             id.  A transaction with no closing bracket at the end of the
             log was in flight at the crash and is rolled back at
             recovery via the ``undo_insert`` / ``undo_delete`` paths;
``create_table`` / ``drop_table`` / ``create_view`` / ``drop_view``
             DDL.  Views are *re-materialised* at recovery -- their
             content is never logged, only their definition.

Fsync policy
------------

``"always"`` fsyncs every append, ``"commit"`` (the default) fsyncs on
transaction commits, checkpoints, and :meth:`WriteAheadLog.sync`,
``"never"`` only flushes to the OS (sufficient against process crashes,
not power loss).  Every append is flushed to the OS regardless, so a
simulated crash -- dropping the Python process's state -- loses nothing
that was acknowledged.

Metrics land in the ``repro_wal_*`` families
(:func:`declare_wal_families`).
"""

from __future__ import annotations

import os
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.codec import FrameError, decode_record, encode_record
from repro.errors import WalError

__all__ = [
    "FSYNC_POLICIES",
    "WriteAheadLog",
    "declare_wal_families",
    "scan_log",
]

#: Sanity bound on a single frame; a length field beyond this is treated
#: as torn-tail garbage rather than an allocation request.
_MAX_FRAME = 64 * 1024 * 1024

FSYNC_POLICIES = ("always", "commit", "never")


def declare_wal_families(registry):
    """Idempotently register the ``repro_wal_*`` metric families.

    Returns a dict of the families; safe to call repeatedly against the
    same registry (families are shared, like every other subsystem's).
    """
    return {
        "bytes": registry.counter(
            "repro_wal_bytes_appended_total",
            "Bytes appended to the write-ahead log (frames incl. headers).",
        ),
        "records": registry.counter(
            "repro_wal_records_total",
            "Records appended to the write-ahead log, by kind.",
            labels=("kind",),
        ),
        "fsyncs": registry.counter(
            "repro_wal_fsyncs_total",
            "fsync() calls issued by the write-ahead log.",
        ),
        "skipped": registry.counter(
            "repro_wal_records_skipped_expired_total",
            "Replayed records skipped because the tuple was already past "
            "its expiration time at recovery.",
        ),
        "torn": registry.counter(
            "repro_wal_torn_tails_total",
            "Torn log tails truncated during recovery.",
        ),
        "recovery_seconds": registry.histogram(
            "repro_wal_recovery_seconds",
            "Wall time of crash recoveries, from opening the log to the "
            "database being handed back (the audit included).",
        ),
        "recovery_phase_seconds": registry.histogram(
            "repro_wal_recovery_phase_seconds",
            "Wall time of each crash-recovery phase "
            "(scan / snapshot / replay / views / verify).",
            labels=("phase",),
        ),
        "recovery_records": registry.counter(
            "repro_wal_recovery_records_replayed_total",
            "Log records replayed by crash recoveries.",
        ),
    }


def scan_log(
    path: Union[str, Path],
) -> Tuple[List[Dict[str, Any]], int, bool]:
    """Decode every trustworthy frame in ``path``.

    Returns ``(records, valid_length, torn)``: the decoded records, the
    byte offset of the last fully-verified frame boundary, and whether
    anything (a torn final record, garbage, a CRC mismatch) follows it.
    Never raises on malformed data -- a crash can tear a frame at any
    byte, and recovery's contract is truncate-and-warn, not crash.
    """
    path = Path(path)
    if not path.exists():
        return [], 0, False
    blob = path.read_bytes()
    records: List[Dict[str, Any]] = []
    offset = 0
    try:
        while decoded := decode_record(blob, offset, _MAX_FRAME):
            record, offset = decoded
            records.append(record)
    except FrameError:
        pass  # garbage is a torn tail too: stop at the last good boundary
    return records, offset, offset != len(blob)


class WriteAheadLog:
    """The append-only log for one database, living in ``directory``.

    Layout: ``directory/wal.log`` (the active segment) next to
    ``directory/snapshot.json`` (the most recent checkpoint, written
    atomically by :func:`~repro.engine.persistence.save_database`).  The
    segment holds everything since the last checkpoint; a checkpoint
    truncates it (:meth:`reset`), and nothing else rewrites it.
    """

    LOG_NAME = "wal.log"
    SNAPSHOT_NAME = "snapshot.json"

    def __init__(
        self,
        directory: Union[str, Path],
        fsync: str = "commit",
        registry=None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise WalError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync
        self._families = (
            declare_wal_families(registry) if registry is not None else None
        )
        self._file = open(self.log_path, "ab")
        #: The one decode of the log as it was found: it seeds the txn
        #: counter below, tells :meth:`truncate_torn_tail` where the tear
        #: is, and is what the first :meth:`records` call hands over.
        #: Anything that changes the records on disk (append, reset) drops
        #: it.
        self._opening_scan: Optional[
            Tuple[List[Dict[str, Any]], int, bool]
        ] = scan_log(self.log_path)
        #: Monotone transaction-id source for this process's appends.
        #: Continues past any txn id already in the log so recovery can
        #: never confuse a pre-crash transaction with a post-recovery one.
        self._txn_counter = max(
            (record.get("txn") or 0 for record in self._opening_scan[0]),
            default=0,
        )

    # -- paths -------------------------------------------------------------

    @property
    def log_path(self) -> Path:
        return self.directory / self.LOG_NAME

    @property
    def snapshot_path(self) -> Path:
        return self.directory / self.SNAPSHOT_NAME

    def _scan(self) -> Tuple[List[Dict[str, Any]], int, bool]:
        """The opening scan while it still describes the file, else a new one."""
        if self._opening_scan is not None:
            return self._opening_scan
        self._file.flush()
        return scan_log(self.log_path)

    def next_txn_id(self) -> int:
        self._txn_counter += 1
        return self._txn_counter

    # -- appending ---------------------------------------------------------

    def append(self, kind: str, sync: bool = False, **fields) -> None:
        """Append one record; flushed to the OS before returning.

        ``sync=True`` forces an fsync regardless of policy (used by
        transaction commits under the ``"commit"`` policy).
        """
        if self._file.closed:
            raise WalError("write-ahead log is closed")
        try:
            frame = encode_record({"kind": kind, **fields}, _MAX_FRAME)
        except (FrameError, TypeError) as error:
            # scan_log would read it back as a torn tail and recovery would
            # truncate it together with every record behind it.
            raise WalError(
                f"refusing to log a {kind!r} record: {error}"
            ) from None
        self._opening_scan = None
        self._file.write(frame)
        self._file.flush()
        if self.fsync_policy == "always" or (
            sync and self.fsync_policy == "commit"
        ):
            os.fsync(self._file.fileno())
            if self._families is not None:
                self._families["fsyncs"].inc()
        if self._families is not None:
            self._families["bytes"].inc(len(frame))
            self._families["records"].labels(kind).inc()

    @property
    def closed(self) -> bool:
        """Whether the log's file handle has been closed."""
        return self._file.closed

    def sync(self) -> None:
        """Flush and (policy permitting) fsync the log."""
        if self._file.closed:
            return
        self._file.flush()
        if self.fsync_policy != "never":
            os.fsync(self._file.fileno())
            if self._families is not None:
                self._families["fsyncs"].inc()

    def close(self) -> None:
        """Flush and close the log file (idempotent)."""
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    # -- reading -----------------------------------------------------------

    def records(self) -> List[Dict[str, Any]]:
        """Every trustworthy record currently in the segment.

        The first call on an unchanged log is handed the opening scan's
        list (and the log lets go of it, so the caller decides how long
        the decoded records live); later calls decode the file again.
        """
        records, _, _ = self._scan()
        self._opening_scan = None
        return records

    def truncate_torn_tail(self) -> bool:
        """Drop any torn tail; returns whether anything was truncated."""
        records, valid, torn = self._scan()
        if not torn:
            return False
        warnings.warn(
            f"write-ahead log {self.log_path} has a torn tail after byte "
            f"{valid} ({len(records)} intact record(s)); truncating",
            stacklevel=2,
        )
        self._file.close()
        with open(self.log_path, "r+b") as fh:
            fh.truncate(valid)
            fh.flush()
            os.fsync(fh.fileno())
        self._file = open(self.log_path, "ab")
        if self._opening_scan is not None:
            # The intact records are exactly the ones already decoded.
            self._opening_scan = (records, valid, False)
        if self._families is not None:
            self._families["torn"].inc()
        return True

    # -- checkpointing -----------------------------------------------------

    def reset(self) -> None:
        """Empty the segment (called after a checkpoint made it redundant)."""
        self._opening_scan = None
        self._file.close()
        with open(self.log_path, "wb") as fh:
            fh.flush()
            os.fsync(fh.fileno())
        self._file = open(self.log_path, "ab")

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({str(self.directory)!r}, "
            f"fsync={self.fsync_policy!r})"
        )
