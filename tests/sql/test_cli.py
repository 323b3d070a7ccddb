"""Tests for the interactive SQL shell."""

import io
import json

import pytest

from repro.cli import format_result, main, run_statement, run_stream
from repro.engine.database import Database
from repro.sql.executor import SqlResult, execute_sql


@pytest.fixture
def db():
    return Database()


def run(db, text, interactive=False):
    out = io.StringIO()
    errors = run_stream(db, io.StringIO(text), out, interactive=interactive)
    return errors, out.getvalue()


class TestFormatResult:
    def test_select_table_rendering(self, db):
        execute_sql(db, "CREATE TABLE t (a, b)")
        execute_sql(db, "INSERT INTO t VALUES (1, 'x')")
        text = format_result(execute_sql(db, "SELECT * FROM t"))
        assert "a" in text and "b" in text
        assert "'x'" in text
        assert "(1 row(s))" in text

    def test_empty_select(self, db):
        execute_sql(db, "CREATE TABLE t (a)")
        text = format_result(execute_sql(db, "SELECT * FROM t"))
        assert text == "(no rows)"

    def test_non_select(self, db):
        text = format_result(execute_sql(db, "CREATE TABLE t (a)"))
        assert "created" in text


class TestRunStatement:
    def test_success(self, db):
        out = io.StringIO()
        assert run_statement(db, "CREATE TABLE t (a)", out)
        assert "created" in out.getvalue()

    def test_error_reported_not_raised(self, db):
        out = io.StringIO()
        assert not run_statement(db, "SELECT * FROM missing", out)
        assert "error:" in out.getvalue()

    def test_blank_is_noop(self, db):
        out = io.StringIO()
        assert run_statement(db, "   ", out)
        assert out.getvalue() == ""


class TestRunStream:
    def test_script(self, db):
        errors, output = run(
            db,
            "CREATE TABLE t (a);\nINSERT INTO t VALUES (1) EXPIRES AT 5;\n"
            "SELECT * FROM t;\nADVANCE TO 5;\nSELECT * FROM t;",
        )
        assert errors == 0
        assert "(1 row(s))" in output
        assert "(no rows)" in output

    def test_multiline_statement(self, db):
        errors, output = run(db, "CREATE TABLE t\n  (a, b);\nSHOW TABLES;")
        assert errors == 0
        assert "t" in output

    def test_script_mode_stops_on_error(self, db):
        errors, output = run(db, "BOGUS;\nCREATE TABLE t (a);")
        assert errors == 1
        assert not db.has_table("t")

    def test_interactive_mode_continues_on_error(self, db):
        errors, output = run(db, "BOGUS;\nCREATE TABLE t (a);", interactive=True)
        assert errors == 1
        assert db.has_table("t")
        assert "sql>" in output

    def test_interactive_quit(self, db):
        errors, output = run(db, "quit\n", interactive=True)
        assert errors == 0

    def test_trailing_statement_without_semicolon(self, db):
        errors, output = run(db, "CREATE TABLE t (a)")
        assert errors == 0
        assert db.has_table("t")


class TestMain:
    def test_script_file(self, tmp_path, capsys):
        script = tmp_path / "setup.sql"
        script.write_text("CREATE TABLE t (a);\nSHOW TABLES;\n")
        assert main([str(script)]) == 0
        captured = capsys.readouterr()
        assert "t" in captured.out

    def test_missing_file(self, capsys):
        assert main(["/nonexistent/x.sql"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "SQL shell" in capsys.readouterr().out


class TestWalSubcommand:
    """``python -m repro wal DIR``: the binary log as JSON lines."""

    @pytest.fixture
    def directory(self, tmp_path):
        db = Database(wal_dir=tmp_path)
        table = db.create_table("T", ["k", "v"])
        table.insert((1, "one"), expires_at=10)
        db.checkpoint()
        table.insert((2, None))
        table.delete((1, "one"))
        db.advance_to(3)
        db.close()
        return tmp_path

    def _lines(self, capsys):
        return [json.loads(line) for line in capsys.readouterr().out.splitlines()]

    def test_header_records_and_summary(self, directory, capsys):
        size = (directory / "wal.log").stat().st_size
        assert main(["wal", str(directory)]) == 0
        header, *records, summary = self._lines(capsys)
        assert (header["kind"], header["format"], header["now"]) == ("snapshot", 2, 0)
        assert [(t["name"], t["row_count"]) for t in header["tables"]] == [("T", 1)]
        assert records == [
            {"kind": "upsert", "table": "T", "row": [2, None], "texp": None,
             "prev": "absent"},
            {"kind": "remove", "table": "T", "row": [1, "one"], "prev": 10},
            {"kind": "clock", "now": 3},
        ]
        assert summary == {"records": 3, "valid_length": size, "torn": False,
                           "bytes_per_record": round(size / 3, 1)}

    def test_a_torn_tail_is_reported_and_left_alone(self, directory, capsys):
        with open(directory / "wal.log", "ab") as log:
            log.write(b"\x00\x00\x01\x00partial")
        before = (directory / "wal.log").read_bytes()
        assert main(["wal", str(directory)]) == 1
        summary = self._lines(capsys)[-1]
        assert summary["torn"] and summary["records"] == 3
        assert summary["valid_length"] == len(before) - 11
        assert (directory / "wal.log").read_bytes() == before

    def test_an_unreadable_snapshot_fails_but_the_log_still_prints(
        self, directory, capsys
    ):
        blob = bytearray((directory / "snapshot.json").read_bytes())
        blob[-1] ^= 0x01
        (directory / "snapshot.json").write_bytes(bytes(blob))
        assert main(["wal", str(directory)]) == 1
        captured = capsys.readouterr()
        assert "unreadable snapshot" in captured.err
        lines = captured.out.splitlines()
        assert lines[0] == "null" and len(lines) == 5

    def test_no_directory_is_a_usage_error(self, tmp_path, capsys):
        assert main(["wal", str(tmp_path / "missing")]) == 2
        assert main(["wal"]) == 2
        assert "usage" in capsys.readouterr().err
