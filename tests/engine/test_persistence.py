"""Tests for snapshots of databases."""

import json
import os
import shutil
from array import array
from pathlib import Path

import pytest

from benchmarks.fixtures import figure1_database

import repro
from repro.codec import HEADER, encode_segment
from repro.core.timestamps import INFINITY, ts
from repro.engine.config import DatabaseConfig
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.persistence import (
    database_from_dict,
    database_to_dict,
    load_database,
    read_snapshot,
    save_database,
)
from repro.engine.views import MaintenancePolicy
from repro.engine.wal import scan_log
from repro.errors import EngineError, RecoveryError, RelationError
from repro.server.protocol import FrameDecoder, encode_frame


class TestRoundtrip:
    def test_tables_and_rows(self, figure1_db):
        restored = database_from_dict(database_to_dict(figure1_db))
        assert restored.table_names() == ["El", "Pol"]
        assert restored.table("Pol").relation.same_content(
            figure1_db.table("Pol").relation
        )
        assert restored.now == figure1_db.now

    def test_clock_preserved(self, figure1_db):
        figure1_db.advance_to(7)
        restored = database_from_dict(database_to_dict(figure1_db))
        assert restored.now == ts(7)
        # Expired tuples were eagerly removed before the snapshot.
        assert set(restored.table("El").read().rows()) == set()

    def test_infinite_expirations(self, figure1_db):
        figure1_db.table("Pol").insert((9, 99))
        restored = database_from_dict(database_to_dict(figure1_db))
        assert restored.table("Pol").relation.expiration_of((9, 99)) == INFINITY

    def test_views_rematerialised(self, figure1_db):
        expr = figure1_db.table_expr("Pol").project(1).difference(
            figure1_db.table_expr("El").project(1)
        )
        figure1_db.materialise("watch", expr, policy=MaintenancePolicy.PATCH)
        restored = database_from_dict(database_to_dict(figure1_db))
        view = restored.view("watch")
        assert view.policy is MaintenancePolicy.PATCH
        assert set(view.read().rows()) == {(3,)}
        restored.advance_to(5)
        assert set(view.read().rows()) == {(1,), (2,), (3,)}

    def test_removal_policy_preserved(self):
        from repro.engine.database import Database

        db = Database(default_removal_policy=RemovalPolicy.LAZY)
        db.create_table("T", ["a"], lazy_batch_size=7)
        restored = database_from_dict(database_to_dict(db))
        assert restored.table("T").removal_policy is RemovalPolicy.LAZY
        assert restored.table("T").lazy_batch_size == 7

    def test_expirations_still_fire_after_restore(self, figure1_db):
        restored = database_from_dict(database_to_dict(figure1_db))
        fired = []
        restored.table("Pol").triggers.register(
            "t", lambda event: fired.append(event.tuple.row)
        )
        restored.advance_to(10)
        assert sorted(fired) == [(1, 25), (3, 35)]

    def test_file_roundtrip(self, figure1_db, tmp_path):
        path = tmp_path / "snapshot.json"
        save_database(figure1_db, path)
        data = read_snapshot(path)
        assert data["format"] == 2
        assert not path.read_bytes().startswith(b"{")  # frames, not a document
        restored = load_database(path)
        assert restored.table("El").relation.same_content(
            figure1_db.table("El").relation
        )


#: A snapshot exactly as PR 17 wrote it: every table spec names the
#: expiration-index substrate it ran on (``index_factory``), a knob that
#: no longer exists.
PR17_SNAPSHOT = {
    "format": 1,
    "now": 0,
    "tables": [
        {"name": "F", "columns": ["k", "v"], "removal_policy": "eager",
         "lazy_batch_size": 64, "index_factory": "heap",
         "rows": [[[0, 0], 10], [[1, 1], 11], [[2, 0], 12], [[3, 1], 13],
                  [[9, 9], None]]},
        {"name": "P", "columns": ["k", "v"], "removal_policy": "lazy",
         "lazy_batch_size": 64, "index_factory": "timer_wheel",
         "partitions": 3, "partition_key": "k", "layout": "columnar",
         "rows": [[[0, 0], 10], [[3, 1], 13], [[1, 1], 11], [[2, 0], 12]]},
        {"name": "S", "columns": ["k"], "removal_policy": "eager",
         "lazy_batch_size": 64, "expiry": "since_last_modification",
         "default_ttl": 6, "index_factory": "skip_list",
         "rows": [[[1], 6]]},
    ],
    "views": [
        {"name": "W", "policy": "patch", "patch_limit": 5,
         "expression": {"kind": "difference",
                        "left": {"kind": "base", "name": "F"},
                        "right": {"kind": "base", "name": "P"}}},
    ],
}


class TestIndexFactoryAndViewSettings:
    """Directories written before there was one expiration index still
    open, and the view knobs the format once dropped round-trip."""

    def test_old_index_factory_key_ignored(self):
        """``"heap"``, ``"timer_wheel"`` or a name never known: all load."""
        restored = database_from_dict(json.loads(json.dumps(PR17_SNAPSHOT)))
        assert restored.verify(strict=True, deep=True) == []
        assert restored.table("P").partitions == 3
        assert restored.table("P").layout == "columnar"
        assert restored.table("S").default_ttl == 6
        assert len(restored.table("F")) == 5
        for spec in database_to_dict(restored)["tables"]:
            assert "index_factory" not in spec  # and is not written back
        # The restored tables behave: expirations still sweep and fire.
        fired = []
        restored.table("P").triggers.register(
            "t", lambda event: fired.append(event.tuple.row)
        )
        restored.advance_to(11)
        restored.table("P").vacuum()
        assert sorted(fired) == [(0, 0), (1, 1)]
        assert sorted(restored.table("F").read().rows()) == [
            (2, 0), (3, 1), (9, 9)
        ]
        assert restored.verify(strict=True, deep=True) == []

    def test_old_create_table_wal_record_recovers(self, tmp_path):
        """A durable directory whose log holds PR 17 ``create_table``
        records (``index_factory`` in the spec) recovers and audits."""
        from repro.engine.recovery import recover_database
        from repro.engine.wal import WriteAheadLog

        wal = WriteAheadLog(tmp_path, fsync="never")
        wal.append("create_table", spec={
            "columns": ["k", "v"], "index_factory": "timer_wheel",
            "layout": "columnar", "lazy_batch_size": 64, "name": "P",
            "partition_key": "k", "partitions": 3, "removal_policy": "lazy",
        })
        wal.append("create_table", spec={
            "columns": ["k", "v"], "index_factory": "heap",
            "lazy_batch_size": 64, "name": "F", "removal_policy": "eager",
        })
        for key in range(4):
            for name in ("P", "F"):
                wal.append("upsert", table=name, row=[key, key % 2],
                           texp=10 + key, prev="absent")
        wal.append("clock", now=11)
        wal.close()

        recovered = recover_database(tmp_path)
        assert recovered.verify(strict=True, deep=True) == []
        assert recovered.table("P").partitions == 3
        for name in ("P", "F"):
            assert sorted(recovered.table(name).read().rows()) == [
                (2, 0), (3, 1)
            ]
        recovered.close()

    def test_patch_limit_roundtrip(self):
        from repro.engine.database import Database

        db = Database()
        db.create_table("P", ["k", "v"], partitions=3, partition_key="k")
        db.create_table("F", ["k", "v"])
        for key in range(12):
            db.table("P").insert((key, key % 4), expires_at=10 + key)
            db.table("F").insert((key, key % 4), expires_at=10 + key)
        db.materialise(
            "W", db.table_expr("F").difference(db.table_expr("P")),
            policy=MaintenancePolicy.PATCH, patch_limit=5,
        )
        restored = database_from_dict(database_to_dict(db))
        view = restored.view("W")
        assert view.policy is MaintenancePolicy.PATCH
        assert view.patch_limit == 5
        assert set(view.read().rows()) == set(db.view("W").read().rows())


class TestValidation:
    """A value outside the attribute domain is refused at the table's door,
    so no snapshot ever meets one: the snapshot writes what is stored."""

    def test_non_json_values_rejected(self, figure1_db):
        weird = figure1_db.create_table("Weird", ["a"])
        with pytest.raises(RelationError, match="tuple"):
            weird.insert(((1, 2),))  # nested tuple
        assert len(weird.relation) == 0
        restored = database_from_dict(database_to_dict(figure1_db))
        assert len(restored.table("Weird").relation) == 0

    def test_unknown_format(self):
        with pytest.raises(EngineError):
            database_from_dict({"format": 99})

    def test_a_rejected_value_leaves_the_old_snapshot(self, figure1_db, tmp_path):
        path = tmp_path / "snapshot.json"
        weird = figure1_db.create_table("Weird", ["a"])
        save_database(figure1_db, path)
        before = path.read_bytes()
        with pytest.raises(RelationError, match="b'bytes'"):
            weird.insert((b"bytes",))
        save_database(figure1_db, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["snapshot.json"]

    def test_a_nan_is_refused_as_the_log_refuses_it(self, tmp_path):
        # A NaN is unequal to itself: stored, its row could never be found
        # again.  The door refuses it with or without a log.
        path = tmp_path / "snapshot.json"
        db = Database()
        table = db.create_table("T", ["k", "v"])
        table.insert((0, 0.5), expires_at=50)
        save_database(db, path)
        before = path.read_bytes()
        with pytest.raises(RelationError, match="nan"):
            table.insert((1, float("nan")), expires_at=50)
        save_database(db, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["snapshot.json"]


def _frame_boundaries(blob):
    """Byte offsets at which the frames of a format 2 snapshot end."""
    offsets, offset = [], 0
    while offset < len(blob):
        (length, _) = HEADER.unpack_from(blob, offset)
        offset += HEADER.size + length
        offsets.append(offset)
    assert offset == len(blob)
    return offsets


class TestDamagedSnapshot:
    """A snapshot that is not exactly what was written is refused whole:
    every frame carries a CRC, and the segments must add up to frame 0's
    specs.  (A format 1 document had no checksum: a flipped digit in it
    still loads as another expiration time.)"""

    @pytest.fixture
    def directory(self, tmp_path):
        db = Database(config=DatabaseConfig(wal_dir=tmp_path))
        db.create_table("R", ["k", "v"]).insert((1, "one"), expires_at=10)
        db.table("R").insert((2, "two"))
        db.create_table("C", ["k"], layout="columnar").insert((7,), expires_at=5)
        db.checkpoint()
        db.close()
        return tmp_path

    def _refused(self, directory, blob):
        path = directory / "snapshot.json"
        path.write_bytes(blob)
        with pytest.raises(RecoveryError, match="unreadable snapshot"):
            repro.connect(directory)
        with pytest.raises(EngineError, match="unreadable snapshot"):
            load_database(path)

    def test_the_written_snapshot_loads(self, directory):
        blob = (directory / "snapshot.json").read_bytes()
        assert len(_frame_boundaries(blob)) == 3  # frame 0, R, C
        assert len(load_database(directory / "snapshot.json").table("R")) == 2

    def test_a_flipped_byte_in_any_frame_is_refused(self, directory):
        blob = (directory / "snapshot.json").read_bytes()
        start = 0
        for end in _frame_boundaries(blob):
            for at in (start, start + HEADER.size, end - 1):
                damaged = bytearray(blob)
                damaged[at] ^= 0x01
                self._refused(directory, bytes(damaged))
            start = end

    def test_truncation_and_trailing_garbage_are_refused(self, directory):
        blob = (directory / "snapshot.json").read_bytes()
        cuts = {0}
        for end in _frame_boundaries(blob)[:-1]:
            cuts.update((end - 1, end, end + 1))
        cuts.add(len(blob) - 1)
        for cut in sorted(cuts):
            self._refused(directory, blob[:cut])
        self._refused(directory, blob + b"\x00")
        self._refused(directory, blob + b"garbage after the last frame")

    def test_segments_must_agree_with_frame_0(self, directory):
        blob = (directory / "snapshot.json").read_bytes()
        head, first, _ = _frame_boundaries(blob)
        one_row = array("q", [5])
        for segment in (
            encode_segment(2, one_row, [[7]], 1 << 20),       # no such table
            encode_segment(1, one_row, [[7], [8]], 1 << 20),  # two columns
            encode_segment(1, array("q", [5, 6]), [[7, 8]], 1 << 20),  # 2 rows
            blob[:head],                                       # a second frame 0
        ):
            self._refused(directory, blob[:first] + segment)
        self._refused(directory, blob + blob[first:])  # C's rows twice


#: ``snapshot.json``, ``wal.precompact.log`` (the log
#: :func:`write_pinned_history` leaves), ``wal.log`` (that log as a
#: since-removed log compaction rewrote it, then appended to) and
#: ``wire.frames`` exactly as the PR 22 commit wrote them for the script /
#: :data:`PINNED_FRAMES`: a format 1 JSON snapshot and all-JSON logs.
#: Nothing writes these bytes any more (the wire frames excepted); every
#: later version must still read them.
PR22_DIRECTORY = Path(__file__).parent / "data" / "pr22_directory"

#: The same files as the PR 24 commit wrote them for the same script: a
#: segmented snapshot and packed ``upsert`` / ``remove`` records.
PR24_DIRECTORY = Path(__file__).parent / "data" / "pr24_directory"

#: A ``hello``, a ``result`` and a ``patch`` as they cross the wire.
PINNED_FRAMES = [
    {"kind": "hello", "id": 1, "version": 1, "resume": "s-7",
     "acks": {"2": {"epoch": 0, "cum": 3}}},
    {"kind": "result", "re": 4, "result_kind": "select", "message": "",
     "columns": ["k", "v"], "rows": [[1, "v1"], [9, "forever"]],
     "items": [[[1, "v1"], 50], [[9, "forever"], None]], "rowcount": 0,
     "names": [], "now": 12, "floor": 12, "data_version": 7},
    {"kind": "patch", "sub": 2, "epoch": 0, "seq": 4,
     "upserts": [[[10, "late"], 40]], "removes": [[2, "v2"]], "now": 12,
     "_expires": None},
]

#: What the pinned directory holds at its final clock, 12.
PINNED_ROWS = {
    "R": {(1, "v1"): ts(50), (2, "v2"): ts(20), (3, "v3"): ts(25),
          (9, "forever"): INFINITY, (10, "late"): ts(40), (11, "post"): ts(60)},
    "C": {(1, "v1"): ts(15), (3, "v3"): ts(25)},
    "P": {(1, "v1"): ts(15), (2, "v2"): ts(20), (3, "v3"): ts(31)},
}


def write_pinned_history(path: Path) -> dict:
    """The fixed script behind :data:`PR22_DIRECTORY`: a row, a columnar
    and a partitioned table, a view, a checkpoint, then every kind of
    record.  Returns the bytes of the files it writes (the pinned
    ``wal.log`` is what the log compaction of that time made of the
    log)."""
    db = Database(config=DatabaseConfig(wal_dir=path, wal_fsync="never"))
    tables = [
        db.create_table("R", ["k", "v"]),
        db.create_table("C", ["k", "v"], layout="columnar",
                        removal_policy=RemovalPolicy.LAZY),
        db.create_table("P", ["k", "v"], partitions=2, partition_key="k"),
    ]
    for key in range(4):
        for table in tables:
            table.insert((key, f"v{key}"), expires_at=10 + 5 * key)
    tables[0].insert((9, "forever"))
    db.materialise("V", db.table_expr("R").project(2))
    db.advance_to(3)
    db.checkpoint()
    tables[0].insert((10, "late"), expires_at=40)
    tables[0].override((1, "v1"), expires_at=50)
    tables[1].delete((2, "v2"))
    tables[2].renew((3, "v3"), ttl=28)
    with db.transaction() as txn:
        txn.insert("R", (12, "txn"), expires_at=11)
    db.materialise("W", db.table_expr("R").difference(db.table_expr("P")),
                   policy=MaintenancePolicy.PATCH, patch_limit=4)
    db.advance_to(12)
    db.close()
    files = {
        "wal.precompact.log": db.wal.log_path.read_bytes(),
        "snapshot.json": db.wal.snapshot_path.read_bytes(),
    }
    files["wire.frames"] = b"".join(encode_frame(f) for f in PINNED_FRAMES)
    return files


class TestFormatPin:
    """The bytes on disk are the PR 24 commit's bytes, the bytes on the
    wire the PR 22 commit's, and both directories still recover."""

    def test_the_same_script_writes_the_same_bytes(self, tmp_path):
        written = write_pinned_history(tmp_path)
        assert written.pop("wire.frames") == (
            PR22_DIRECTORY / "wire.frames"
        ).read_bytes()
        assert sorted(written) == ["snapshot.json", "wal.precompact.log"]
        for name, content in written.items():
            assert content == (PR24_DIRECTORY / name).read_bytes(), name

    @pytest.mark.parametrize("log", ["wal.log", "wal.precompact.log"])
    def test_pinned_directory_recovers(self, tmp_path, log):
        shutil.copy(PR22_DIRECTORY / "snapshot.json", tmp_path)
        shutil.copy(PR22_DIRECTORY / log, tmp_path / "wal.log")
        expected = {name: dict(rows) for name, rows in PINNED_ROWS.items()}
        if log == "wal.precompact.log":
            del expected["R"][(11, "post")]  # appended after the compaction
        with repro.connect(tmp_path) as session:
            db = session.db
            assert db.now == ts(12)
            for name, rows in expected.items():
                assert dict(db.table(name).read().items()) == rows, name
            assert sorted(db.view_names()) == ["V", "W"]
            assert sorted(db.view("V").read().rows()) == sorted(
                {(row[1],) for row in expected["R"]}
            )
            assert not db.last_recovery.torn_tail_truncated

    def test_pinned_frames_decode(self):
        blob = (PR22_DIRECTORY / "wire.frames").read_bytes()
        assert FrameDecoder().feed(blob) == PINNED_FRAMES

    @staticmethod
    def _tables(db):
        return {name: dict(db.table(name).read().items())
                for name in db.table_names()}

    @pytest.mark.parametrize("log", ["wal.log", "wal.precompact.log"])
    def test_pr24_directory_recovers(self, tmp_path, log):
        shutil.copy(PR24_DIRECTORY / "snapshot.json", tmp_path)
        shutil.copy(PR24_DIRECTORY / log, tmp_path / "wal.log")
        expected = {name: dict(rows) for name, rows in PINNED_ROWS.items()}
        if log == "wal.precompact.log":
            del expected["R"][(11, "post")]  # appended after the compaction
        with repro.connect(tmp_path) as session:
            assert session.db.now == ts(12)
            assert self._tables(session.db) == expected
            assert sorted(session.db.view_names()) == ["V", "W"]
            assert session.db.last_recovery.snapshot_loaded
            assert not session.db.last_recovery.torn_tail_truncated

    def test_both_directories_hold_the_same_history(self):
        """Two encodings, one record list (rows as tuples either way)."""
        for name in ("wal.log", "wal.precompact.log"):
            old = scan_log(PR22_DIRECTORY / name)
            new = scan_log(PR24_DIRECTORY / name)
            assert old[0] == new[0] and not old[2] and not new[2], name
            assert new[1] < 0.8 * old[1]  # and fewer bytes
        old = read_snapshot(PR22_DIRECTORY / "snapshot.json")
        new = read_snapshot(PR24_DIRECTORY / "snapshot.json")
        assert (old["format"], new["format"]) == (1, 2)
        assert self._tables(database_from_dict(old)) == self._tables(
            database_from_dict(new)
        )

    def test_packed_records_after_a_json_log_recover(self, tmp_path):
        """The upgrade: a PR 22 directory opened, written to and crashed
        under this version is a JSON prefix and a packed suffix in one log,
        behind a format 1 snapshot."""
        shutil.copy(PR22_DIRECTORY / "snapshot.json", tmp_path)
        shutil.copy(PR22_DIRECTORY / "wal.precompact.log", tmp_path / "wal.log")
        prefix = (tmp_path / "wal.log").stat().st_size
        with repro.connect(tmp_path) as session:
            session.db.table("R").insert((13, "packed"), expires_at=70)
            session.db.table("C").insert((14, "né"), expires_at=None)
        blob = (tmp_path / "wal.log").read_bytes()
        assert blob[8:9] == b"{" and blob[prefix + 8:prefix + 9] != b"{"
        expected = {name: dict(rows) for name, rows in PINNED_ROWS.items()}
        del expected["R"][(11, "post")]
        expected["R"][(13, "packed")] = ts(70)
        expected["C"][(14, "né")] = INFINITY
        with repro.connect(tmp_path) as session:
            assert self._tables(session.db) == expected

class TestDurableRename:
    """A checkpoint truncates ``wal.log`` after replacing the snapshot, so
    the rename itself has to be on disk first: temp file fsynced, renamed,
    *directory* fsynced -- and only then the log touched."""

    pytestmark = pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="names fds via /proc"
    )

    @pytest.fixture
    def calls(self, monkeypatch):
        """``("fsync", file name or "dir")``, ``("replace", src, dst)`` and
        ``("reset",)`` (the log's truncation) in call order."""
        from repro.engine.wal import WriteAheadLog

        calls = []
        real_fsync, real_replace = os.fsync, os.replace
        real_reset = WriteAheadLog.reset

        def fsync(fd):
            target = os.readlink(f"/proc/self/fd/{fd}")
            calls.append(("fsync", "dir" if os.path.isdir(target)
                          else os.path.basename(target)))
            return real_fsync(fd)

        def replace(src, dst):
            calls.append(
                ("replace", os.path.basename(src), os.path.basename(dst))
            )
            return real_replace(src, dst)

        def reset(wal):
            calls.append(("reset",))
            return real_reset(wal)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(WriteAheadLog, "reset", reset)
        return calls

    def _db(self, tmp_path):
        db = Database(config=DatabaseConfig(wal_dir=tmp_path))
        db.create_table("T", ["k"]).insert((1,), expires_at=10)
        return db

    def _durable_at(self, calls, name):
        """Index of the directory fsync that made ``name``'s rename durable."""
        (at,) = [i for i, call in enumerate(calls)
                 if call[0] == "replace" and call[2] == name]
        assert ("fsync", calls[at][1]) in calls[:at]  # content first
        return calls.index(("fsync", "dir"), at)

    def test_checkpoint_syncs_the_rename_before_truncating(
        self, tmp_path, calls
    ):
        db = self._db(tmp_path)
        del calls[:]
        db.checkpoint()
        assert self._durable_at(calls, "snapshot.json") < calls.index(("reset",))
        db.close()

    def test_failed_checkpoint_leaves_the_log_appendable(
        self, tmp_path, monkeypatch
    ):
        db = self._db(tmp_path)
        logged = db.wal.log_path.read_bytes()

        def refuse(src, dst):
            raise OSError("no rename today")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            db.checkpoint()
        monkeypatch.undo()
        assert db.wal.log_path.read_bytes() == logged
        db.table("T").insert((2,), expires_at=30)
        db.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["wal.log"]
        with repro.connect(tmp_path) as session:
            assert session.query("SELECT k FROM T").rows == [(1,), (2,)]
