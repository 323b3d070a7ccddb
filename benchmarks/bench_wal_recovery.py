"""Experiment X10: crash-recovery time and the checkpoint's bound on the log.

Two measurements of the durability layer (`engine/wal.py` + `engine/
recovery.py`):

1. **Recovery time vs. database size** -- wall time of
   ``recover_database`` (snapshot-less worst case: the whole state is
   replayed from the log, including the deep invariant audit) as the
   logged row count grows.

2. **A checkpoint on a churn-heavy workload** -- the paper's asymmetry
   applied to the disk: short-lived rows are born and die entirely
   inside the log, so a checkpoint, which writes only the rows still
   stored and empties the log, leaves nothing of them.  A classical WAL
   must keep a delete record per such row; an expiration-aware one keeps
   nothing.

Asserted (the gate): the checkpoint leaves 0 log records, the bytes on
disk (log plus snapshot) are no more than before, and the recovered
database is identical before and after (tables, expirations, clock).
"""

import shutil
import tempfile
import time
from pathlib import Path

from repro.engine.database import Database
from repro.engine.recovery import recover_database
from repro.engine.wal import WriteAheadLog, scan_log

try:
    from benchmarks._tables import emit
except ImportError:  # direct script execution
    from _tables import emit

#: Inserts between clock advances in the churn workload.
BATCH = 200


def build_churn(n, wal_dir):
    """A WAL directory logging ``n`` short-lived rows, all dead at the end.

    Every key is inserted once with a 1-3 tick lifetime and the clock
    advances past each batch's expirations, so each row's single log
    record is final *and* expired -- the best case the short-lived-data
    analysis promises.
    """
    db = Database(wal_dir=wal_dir, wal_fsync="never")
    table = db.create_table("S", ["k", "v"])
    for i in range(n):
        table.insert((i, i % 7), expires_at=db.now.value + 1 + (i % 3))
        if (i + 1) % BATCH == 0:
            db.tick(4)
    db.tick(4)
    return db


def engine_state(db):
    """Everything recovery must reproduce: rows, expirations, the clock."""
    return (
        db.now.value,
        {
            name: dict(db.table(name).relation.items())
            for name in db.table_names()
        },
    )


def time_recovery(n, reps=3):
    """Best-of-``reps`` wall time to recover ``n`` live rows from the log."""
    best = None
    replayed = 0
    for _ in range(reps):
        wal_dir = tempfile.mkdtemp(prefix="bench-wal-")
        try:
            db = Database(wal_dir=wal_dir, wal_fsync="never")
            table = db.create_table("S", ["k", "v"])
            for i in range(n):
                table.insert((i, i % 7), expires_at=1000 + i)
            db.close()
            started = time.perf_counter()
            recovered = recover_database(wal_dir, fsync="never")
            elapsed = time.perf_counter() - started
            if len(recovered.table("S")) != n:
                raise AssertionError("recovery lost rows")
            replayed = recovered.last_recovery.records_replayed
            recovered.close()
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)
        if best is None or elapsed < best:
            best = elapsed
    return {"n": n, "s": best, "records": replayed}


def _on_disk(wal_dir):
    """``(log records, bytes of the log and the snapshot)`` in ``wal_dir``."""
    directory = Path(wal_dir)
    log_path = directory / WriteAheadLog.LOG_NAME
    snapshot_path = directory / WriteAheadLog.SNAPSHOT_NAME
    size = log_path.stat().st_size
    if snapshot_path.exists():
        size += snapshot_path.stat().st_size
    return len(scan_log(log_path)[0]), size


def churn_checkpoint(n):
    """Checkpoint a recovered churn directory; returns the gate report."""
    wal_dir = tempfile.mkdtemp(prefix="bench-wal-churn-")
    try:
        build_churn(n, wal_dir).close()
        before_records, before_bytes = _on_disk(wal_dir)

        db = recover_database(wal_dir, fsync="never")
        state_before = engine_state(db)
        started = time.perf_counter()
        db.checkpoint()
        elapsed = time.perf_counter() - started
        db.close()

        after_records, after_bytes = _on_disk(wal_dir)
        recovered = recover_database(wal_dir, fsync="never")
        state_after = engine_state(recovered)
        recovered.close()

        return {
            "n": n,
            "records_before": before_records,
            "records_after": after_records,
            "bytes_before": before_bytes,
            "bytes_after": after_bytes,
            "ms": round(elapsed * 1000, 1),
            "state_unchanged": state_before == state_after,
        }
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)


def churn_passed(churn):
    """The gate: nothing left in the log, no more bytes, the same state."""
    return (
        churn["records_after"] == 0
        and churn["bytes_after"] <= churn["bytes_before"]
        and churn["state_unchanged"]
    )


def gate(sizes, churn_n, reps=3):
    rows = [time_recovery(n, reps) for n in sizes]
    for row in rows:
        row["ms"] = round(row["s"] * 1000, 1)
        row["rows_per_s"] = int(row["n"] / row["s"]) if row["s"] else 0
    emit(
        "WAL recovery time vs. database size (log-only, deep verify on)",
        ["rows", "records replayed", "ms", "rows/s"],
        [(f"{r['n']:,}", f"{r['records']:,}", r["ms"],
          f"{r['rows_per_s']:,}") for r in rows],
    )

    churn = churn_checkpoint(churn_n)
    emit(
        f"Checkpoint on churn workload: {churn_n:,} short-lived rows",
        ["metric", "value"],
        [
            ("log records before -> after",
             f"{churn['records_before']:,} -> {churn['records_after']:,}"),
            ("bytes on disk (log + snapshot) before -> after",
             f"{churn['bytes_before']:,} -> {churn['bytes_after']:,}"),
            ("checkpoint ms", churn["ms"]),
            ("recovered state unchanged", str(churn["state_unchanged"])),
        ],
    )
    return {"recovery": rows, "churn": churn, "passed": churn_passed(churn)}


def test_churn_checkpoint_leaves_no_record_and_preserves_state():
    assert churn_passed(churn_checkpoint(1_000))


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        report = gate(sizes=(500, 2_000), churn_n=2_000, reps=2)
    else:
        report = gate(sizes=(1_000, 5_000, 20_000), churn_n=20_000, reps=3)
    churn = report["churn"]
    print(
        f"checkpoint left {churn['records_after']} log records (gate: 0) and "
        f"{churn['bytes_after']:,} of {churn['bytes_before']:,} bytes on disk "
        f"(gate: no more); recovered state unchanged: "
        f"{churn['state_unchanged']}"
    )
    if not report["passed"]:
        print("FAIL: checkpoint left records or bytes, or state changed")
        raise SystemExit(1)
    print("OK: checkpoint within the gate")
