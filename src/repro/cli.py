"""An interactive SQL shell for the expiration-time engine.

Usage::

    python -m repro                      # interactive shell
    python -m repro script.sql           # execute a script, print results
    echo "SHOW TABLES;" | python -m repro
    python -m repro obs [script.sql]     # run, then dump every metric
    python -m repro obs --json [script]  # ... as JSON instead of prom text
    python -m repro wal state/           # a durable directory's log, readably
    python -m repro serve --port 7437    # serve the engine over TCP

Statements end with ``;``; the shell keeps one in-memory
:class:`~repro.engine.database.Database` for the session.  ``ADVANCE`` /
``TICK`` statements drive the logical clock, which makes the shell a handy
playground for watching tuples expire::

    sql> CREATE TABLE Pol (uid, deg);
    sql> INSERT INTO Pol VALUES (1, 25) EXPIRES AT 10;
    sql> ADVANCE TO 10;
    sql> SELECT * FROM Pol;
    (no rows)
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import IO, List, Optional

from repro.engine.database import Database
from repro.errors import ReproError
from repro.sql.executor import SqlResult, execute_sql

__all__ = [
    "format_result", "run_statement", "run_stream", "run_obs", "run_wal", "main",
]

PROMPT = "sql> "
CONTINUATION = "...> "


def format_result(result: SqlResult) -> str:
    """Human-readable rendering of one statement's outcome."""
    if result.kind == "select":
        rows = result.rows if result.rows is not None else []
        if not rows:
            return "(no rows)"
        relation = result.relation
        header = list(relation.schema.names) if relation is not None else []
        lines = []
        if header:
            widths = [len(h) for h in header]
            str_rows = [[repr(v) for v in row] for row in rows]
            for cells in str_rows:
                for i, cell in enumerate(cells):
                    widths[i] = max(widths[i], len(cell))
            lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
            lines.append("  ".join("-" * w for w in widths))
            for cells in str_rows:
                lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
        lines.append(f"({len(rows)} row(s))")
        return "\n".join(lines)
    return result.message


def run_statement(db: Database, statement: str, out: IO[str]) -> bool:
    """Execute one statement, printing the outcome; returns success."""
    text = statement.strip()
    if not text:
        return True
    try:
        result = execute_sql(db, text)
    except ReproError as error:
        print(f"error: {error}", file=out)
        return False
    print(format_result(result), file=out)
    return True


def run_stream(db: Database, source: IO[str], out: IO[str], interactive: bool = False) -> int:
    """Read ``;``-terminated statements from ``source``; returns #errors.

    In interactive mode prompts are written to ``out`` and errors do not
    stop the session; in script mode the first error aborts.
    """
    errors = 0
    buffer: List[str] = []
    if interactive:
        print("expiration-time SQL shell -- end statements with ';', "
              "Ctrl-D to quit", file=out)
        out.write(PROMPT)
        out.flush()
    for line in source:
        stripped = line.strip()
        if interactive and not buffer and stripped in ("quit", "exit", r"\q"):
            break
        buffer.append(line)
        while ";" in "".join(buffer):
            joined = "".join(buffer)
            statement, _, rest = joined.partition(";")
            buffer = [rest]
            ok = run_statement(db, statement, out)
            if not ok:
                errors += 1
                if not interactive:
                    return errors
        if interactive:
            out.write(PROMPT if not "".join(buffer).strip() else CONTINUATION)
            out.flush()
    leftover = "".join(buffer).strip()
    if leftover:
        if not run_statement(db, leftover, out):
            errors += 1
    return errors


def run_obs(db: Database, args: List[str], out: IO[str]) -> int:
    """The ``obs`` subcommand: execute, then dump the metrics registry.

    With a script argument, runs it first (errors abort); without one,
    reads statements from stdin.  Prometheus text by default, ``--json``
    for the JSON document.
    """
    as_json = False
    rest = []
    for arg in args:
        if arg == "--json":
            as_json = True
        else:
            rest.append(arg)
    if rest:
        try:
            with open(rest[0]) as script:
                errors = run_stream(db, script, out)
        except OSError as error:
            print(f"error: cannot read {rest[0]}: {error}", file=sys.stderr)
            return 1
    elif not sys.stdin.isatty():
        errors = run_stream(db, sys.stdin, out)
    else:
        errors = 0
    print(db.metrics.to_json(indent=2) if as_json else db.metrics.to_prom_text(),
          file=out, end="")
    return 1 if errors else 0


def run_wal(args: List[str], out: IO[str]) -> int:
    """The ``wal`` subcommand: a durable directory as JSON lines.

    The log's records are binary (:mod:`repro.codec`), so this is what
    ``cat wal.log`` used to be.  First line: the snapshot's frame 0 with
    each table's ``row_count`` (``null`` without a snapshot); then one line
    per log record in log order, a packed record in the shape of its JSON
    form; last line ``{"records", "valid_length", "torn",
    "bytes_per_record"}``.  Reads only -- a torn tail is reported, never
    truncated -- and exits 1 on a torn tail or an unreadable snapshot.
    """
    from repro.codec import dump_json
    from repro.engine.persistence import read_snapshot
    from repro.engine.wal import WriteAheadLog, scan_log

    if len(args) != 1 or not Path(args[0]).is_dir():
        print("usage: python -m repro wal DIRECTORY", file=sys.stderr)
        return 2
    directory = Path(args[0])
    status = 0
    header = None
    snapshot_path = directory / WriteAheadLog.SNAPSHOT_NAME
    if snapshot_path.exists():
        try:
            header = read_snapshot(snapshot_path)
        except (OSError, ValueError) as error:
            print(f"error: unreadable snapshot {snapshot_path}: {error}",
                  file=sys.stderr)
            status = 1
        else:
            for spec in header["tables"]:
                spec.pop("segments", None)
                if "rows" in spec:  # format 1
                    spec["row_count"] = len(spec.pop("rows"))
    print(dump_json(header), file=out)
    records, valid_length, torn = scan_log(directory / WriteAheadLog.LOG_NAME)
    for record in records:
        print(dump_json(record), file=out)
    print(dump_json({
        "records": len(records),
        "valid_length": valid_length,
        "torn": torn,
        "bytes_per_record": (
            round(valid_length / len(records), 1) if records else None
        ),
    }), file=out)
    return 1 if torn else status


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: interactive shell, script execution, or a subcommand."""
    args = sys.argv[1:] if argv is None else argv
    db = Database()
    if args:
        if args[0] in ("-h", "--help"):
            print(__doc__)
            return 0
        if args[0] == "obs":
            return run_obs(db, args[1:], sys.stdout)
        if args[0] == "wal":
            return run_wal(args[1:], sys.stdout)
        if args[0] == "serve":
            from repro.server.run import main as serve_main

            return serve_main(args[1:])
        try:
            with open(args[0]) as script:
                return 1 if run_stream(db, script, sys.stdout) else 0
        except OSError as error:
            print(f"error: cannot read {args[0]}: {error}", file=sys.stderr)
            return 1
    interactive = sys.stdin.isatty()
    errors = run_stream(db, sys.stdin, sys.stdout, interactive=interactive)
    if interactive:
        print()  # newline after the final prompt
        return 0
    return 1 if errors else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
