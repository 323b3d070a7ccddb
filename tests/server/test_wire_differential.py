"""One script, three transports, one answer.

The same statements run in process (``connect()``), over TCP
(``repro://``) and over a server's loopback transport (``AsyncSession``).
Every result must agree: the presentation rows in order and with their
value types, the full item set with its expiration times, the columns,
the row count and the logical time.  The script covers what an encoding
is most likely to bend: ints at and past the 64-bit edge, floats, empty
strings, quotes and non-ASCII text, ``AVG``'s ``Fraction``, ``ORDER BY
.. DESC LIMIT`` and ``LIMIT 0``, an empty result, ``GROUP BY``, and rows
that never expire or expire within one tick.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.timestamps import Timestamp
from repro.engine.database import Database
from repro.errors import RelationError, RemoteError
from repro.server.client import AsyncSession, connect
from repro.server.server import ReproServer

SCRIPT = [
    "CREATE TABLE N (k, v)",
    "INSERT INTO N VALUES (9223372036854775807, 'max'), "
    "(9223372036854775808, 'past'), (1180591620717411303424, 'far'), "
    "(0, '') EXPIRES AT 50",
    "INSERT INTO N VALUES (1, 'it''s'), (2, 'né ☃'), (3, ''''), "
    "(4, 1.5), (5, 0.25) EXPIRES IN 1",
    "INSERT INTO N VALUES (6, 'forever'), (7, 7)",
    "CREATE TABLE G (g, x)",
    "INSERT INTO G VALUES ('a', 1), ('a', 2), ('b', 5), ('c', 9223372036854775807) "
    "EXPIRES AT 30",
    "INSERT INTO G VALUES ('b', 6) EXPIRES IN 1",
    "SELECT k, v FROM N",
    "SELECT k, v FROM N ORDER BY k DESC LIMIT 3",
    "SELECT k FROM N ORDER BY k LIMIT 0",
    "SELECT k, v FROM N LIMIT 0",
    "SELECT v FROM N WHERE k = 424242",
    "SELECT AVG(k) FROM N",
    "SELECT g, COUNT(*), SUM(x), AVG(x) FROM G GROUP BY g",
    "SELECT v FROM N WHERE k < 4 ORDER BY v DESC LIMIT 3",
    "ADVANCE BY 1",
    "SELECT k, v FROM N",
    "SELECT g, COUNT(*), AVG(x) FROM G GROUP BY g",
    "SELECT AVG(k) FROM N",
    "UPDATE N EXPIRES IN 0 WHERE k = 7",
    "DELETE FROM G WHERE g = 'a'",
    "SELECT k, v FROM N ORDER BY k DESC LIMIT 3",
    "SELECT g, x FROM G",
    "SHOW TABLES",
    "ADVANCE TO 50",
    "SELECT k, v FROM N",
]


def _typed(row):
    return tuple((type(value).__name__, repr(value)) for value in row)


def _answer(result):
    """Everything a transport must agree on, with value types spelled out
    (``True == 1`` and ``1 == 1.0``, so equality alone would let an
    encoding swap them)."""
    items = None
    if result.items is not None:
        assert all(type(texp) is Timestamp for _, texp in result.items)
        items = sorted((_typed(row), texp) for row, texp in result.items)
        assert len(items) == len(result.items)
    return {
        "kind": result.kind,
        "message": result.message,
        "columns": result.columns,
        "rows": None if result.rows is None else [_typed(r) for r in result.rows],
        "row_types": None if result.rows is None
        else {type(r).__name__ for r in result.rows},
        "items": items,
        "rowcount": result.rowcount,
        "names": result.names,
        "now": result.now,
    }


def _local():
    with connect() as session:
        return [_answer(session.execute(text)) for text in SCRIPT]


def _served():
    async def scenario():
        tcp, loopback = ReproServer(), ReproServer()
        host, port = await tcp.start()

        def over_tcp():
            with connect(f"repro://{host}:{port}", timeout=5) as session:
                return [_answer(session.execute(text)) for text in SCRIPT]

        try:
            remote = await asyncio.to_thread(over_tcp)
            session = await AsyncSession.over_loopback(loopback)
            looped = [_answer(await session.execute(text)) for text in SCRIPT]
            await session.close()
        finally:
            await tcp.stop()
            await loopback.stop()
        return remote, looped

    return asyncio.run(scenario())


def test_every_transport_gives_the_in_process_answer():
    local = _local()
    remote, looped = _served()
    for text, here, tcp, loop in zip(SCRIPT, local, remote, looped):
        assert tcp == here, text
        assert loop == here, text
    # The script reached what it is about.
    rows = {}  # the first answer to each text
    for text, answer in zip(SCRIPT, local):
        rows.setdefault(text, answer["rows"])
    assert rows["SELECT k, v FROM N ORDER BY k DESC LIMIT 3"][0] == (
        ("int", "1180591620717411303424"), ("str", "'far'"))
    assert rows["SELECT AVG(k) FROM N"][0][0][0] == "Fraction"
    assert rows["SELECT k, v FROM N LIMIT 0"] == []
    assert rows["SELECT v FROM N WHERE k = 424242"] == []
    assert {row[1] for row in rows["SELECT k, v FROM N"]} >= {
        ("float", "1.5"), ("str", "''"), ("str", '"it\'s"'),
        ("str", "'né ☃'"), ("str", '"\'"'),
    }
    expired = [a for t, a in zip(SCRIPT, local) if t == "SELECT k, v FROM N"]
    assert len(expired[0]["items"]) == 11
    assert len(expired[1]["items"]) == 6  # the EXPIRES IN 1 rows are gone
    assert expired[2]["rows"] == [(("int", "6"), ("str", "'forever'"))]



#: A decimal literal past the largest float: ``float()`` makes it ``inf``,
#: which is outside the attribute domain.
OVERFLOW = "INSERT INTO t VALUES (1, " + "9" * 400 + ".0)"
SETUP = [
    "CREATE TABLE t (k, v)",
    "INSERT INTO t VALUES (0, 1.5)",
    "CREATE MATERIALIZED VIEW w AS SELECT k, v FROM t",
]


def _state(db):
    """Rows with their expirations, log records, the view's rows."""
    return (
        sorted(db.table("t").relation.items()),
        db.wal.records(),
        sorted(db.view("w").read().rows()),
    )


def test_a_literal_outside_the_domain_is_refused_on_every_transport(tmp_path):
    """The refusal is the table door's ``RelationError`` everywhere, and
    the statement leaves no row, log record or view change behind."""
    with connect(tmp_path / "local") as session:
        for text in SETUP:
            session.execute(text)
        before = _state(session.db)
        with pytest.raises(RelationError, match="inf"):
            session.execute(OVERFLOW)
        assert _state(session.db) == before

    async def scenario():
        tcp = ReproServer(Database(wal_dir=tmp_path / "tcp"))
        loopback = ReproServer(Database(wal_dir=tmp_path / "loopback"))
        host, port = await tcp.start()
        outcomes = []

        def over_tcp():
            with connect(f"repro://{host}:{port}", timeout=5) as session:
                for text in SETUP:
                    session.execute(text)
                before = _state(tcp.db)
                with pytest.raises(RemoteError) as err:
                    session.execute(OVERFLOW)
                outcomes.append((err.value, before, _state(tcp.db)))

        try:
            await asyncio.to_thread(over_tcp)
            session = await AsyncSession.over_loopback(loopback)
            for text in SETUP:
                await session.execute(text)
            before = _state(loopback.db)
            with pytest.raises(RemoteError) as err:
                await session.execute(OVERFLOW)
            outcomes.append((err.value, before, _state(loopback.db)))
            await session.close()
        finally:
            await tcp.stop()
            await loopback.stop()
            tcp.db.close()
            loopback.db.close()
        return outcomes

    outcomes = asyncio.run(scenario())
    assert len(outcomes) == 2
    for error, before, after in outcomes:
        assert error.remote_type == "RelationError"
        assert "inf" in str(error)
        assert after == before
