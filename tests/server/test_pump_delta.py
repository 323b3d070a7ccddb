"""The pump ships what the view changed, and only that.

Each subscribed view keeps a change log while it has followers
(:class:`repro.engine.views.ChangeLog`); the pump hands every subscription
the entries past its cursor.  Two obligations:

* **delta ≡ read**: after every statement, a client that applied the
  pushed frames holds exactly what a read of the view returns, expiration
  times included -- over a σ view, a ``GROUP BY COUNT`` fold, a PATCH and a
  DELTA difference and a non-folding SCHRODINGER view, through inserts,
  ``RENEW``, revocations, deletes, clock advances and a view dropped and
  re-created, and with an outbox small enough that streams degrade and
  refetch;
* **O(delta) work**: the rows the pump touches for a one-row insert do not
  grow with the view, and a write to a table no view reads touches none.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.relation import Relation
from repro.core.timestamps import ts
from repro.engine.database import Database
from repro.engine.views import ChangeLog
from repro.server.client import AsyncSession
from repro.server.server import ReproServer
from repro.server.session import ServerSession
from repro.sql.executor import execute_sql

VIEWS = {
    "sel": "SELECT k, g FROM A WHERE g < 2",
    "cnt": "SELECT g, COUNT(*) FROM A WHERE k < 6 GROUP BY g",
    "pd": "SELECT k FROM A EXCEPT SELECT k FROM B WITH POLICY PATCH",
    "dd": "SELECT k FROM A EXCEPT SELECT k FROM B",
    "sd": "SELECT k FROM A EXCEPT SELECT k FROM B WITH POLICY SCHRODINGER",
}

_key = st.integers(0, 4)
_ttl = st.integers(1, 6)
_table = st.sampled_from(["A", "B"])


def _insert(table, rows, ttl):
    values = ", ".join(
        f"({k}, {g})" if table == "A" else f"({k})" for k, g in rows
    )
    return [f"INSERT INTO {table} VALUES {values} EXPIRES IN {ttl}"]


STEP = st.one_of(
    st.builds(_insert, _table,
              st.lists(st.tuples(_key, st.integers(0, 2)), min_size=1, max_size=4),
              _ttl),
    st.builds(lambda t, k, ttl: [f"RENEW {t} EXPIRES IN {ttl} WHERE k = {k}"],
              _table, _key, _ttl),
    st.builds(lambda t, k: [f"UPDATE {t} EXPIRES IN 0 WHERE k = {k}"], _table, _key),
    st.builds(lambda t, k: [f"DELETE FROM {t} WHERE k = {k}"], _table, _key),
    st.builds(lambda n: [f"ADVANCE BY {n}"], st.integers(1, 3)),
    st.builds(lambda name: [f"DROP VIEW {name}",
                            f"CREATE MATERIALIZED VIEW {name} AS {VIEWS[name]}"],
              st.sampled_from(sorted(VIEWS))),
)


def _replay(steps, max_outbox):
    """Run ``steps`` against a server with one loopback subscriber of
    every view; after each statement the subscriber's copy must equal the
    server's read.  Returns how many streams degraded."""

    async def scenario():
        server = ReproServer(max_outbox=max_outbox)
        session = await AsyncSession.over_loopback(server)
        for sql in ["CREATE TABLE A (k, g)", "CREATE TABLE B (k)"] + [
            f"CREATE MATERIALIZED VIEW {name} AS {query}"
            for name, query in VIEWS.items()
        ]:
            await session.execute(sql)
        subs = {name: await session.subscribe(name) for name in VIEWS}
        degraded = 0
        for statements in steps:
            for sql in statements:
                await session.execute(sql)
                await session.poll(0)
                if sql.startswith("CREATE"):
                    name = sql.split()[3]
                    subs[name].close()
                    subs[name] = await session.subscribe(name)
                for name, sub in subs.items():
                    if not server.db.has_view(name):
                        continue  # dropped: re-created by the next statement
                    if sub.degraded:
                        degraded += 1
                        await session.refetch(sub)
                    now = server.db.clock.now
                    assert session.now == now
                    expected = sorted(server.db.view(name).read(now).items())
                    assert sorted(sub.items()) == expected, (name, sql)
        await session.close()
        await server.stop()
        return degraded

    return asyncio.run(scenario())


#: Changes that only time makes: a hidden row re-appearing from the PATCH
#: queue, and a COUNT partition redone when one of its rows expires.
TIME_MADE = [
    _insert("A", [(1, 0)], 6) + _insert("B", [(1, 0)], 2) + ["ADVANCE BY 3"],
    _insert("A", [(1, 0), (2, 0)], 5) + _insert("A", [(3, 0)], 2)
    + ["ADVANCE BY 2", "ADVANCE BY 1"],
]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(STEP, min_size=1, max_size=14))
@example([[sql] for sql in TIME_MADE[0]])
@example([[sql] for sql in TIME_MADE[1]])
def test_patched_copy_equals_the_read(steps):
    _replay(steps, max_outbox=256)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(STEP, min_size=1, max_size=14))
def test_patched_copy_equals_the_read_through_degrade_and_refetch(steps):
    _replay(steps, max_outbox=2)


def test_a_small_outbox_does_degrade():
    """The second property's outbox is small enough to reach the ladder."""
    steps = [_insert("A", [(k, 1), (k + 1, 0)], 5) for k in range(4)]
    assert _replay(steps, max_outbox=2) > 0


class _RowMeter:
    """Counts the rows whole-relation operations pass over: iteration of
    ``items``, ``rows`` or the relation itself, ``copy`` and
    ``purge_expired``."""

    def __init__(self, monkeypatch):
        self.rows = 0
        self.counting = False
        for name in ("items", "rows", "__iter__"):
            monkeypatch.setattr(Relation, name, self._iterator(getattr(Relation, name)))
        for name in ("copy", "purge_expired"):
            monkeypatch.setattr(Relation, name, self._sized(getattr(Relation, name)))

    def _iterator(self, method):
        meter = self

        def counted(relation, *args):
            for item in method(relation, *args):
                meter.rows += meter.counting
                yield item

        return counted

    def _sized(self, method):
        meter = self

        def counted(relation, *args):
            if meter.counting:
                meter.rows += len(relation)
            return method(relation, *args)

        return counted

    def measure(self, call):
        self.rows, self.counting = 0, True
        try:
            call()
        finally:
            self.counting = False
        return self.rows


def _pump_rows(view_rows, meter):
    """Rows the pump touches after a one-row insert into the subscribed
    σ view's base, and after one into a table no view reads, at
    ``view_rows`` rows in the view; and the envelopes each pump queued."""
    db = Database()
    execute_sql(db, "CREATE TABLE T (k, v)")
    execute_sql(db, "CREATE TABLE U (k)")
    table = db.table("T")
    for k in range(view_rows):
        table.insert((k, k % 7), expires_at=1_000)
    execute_sql(db, "CREATE MATERIALIZED VIEW v AS SELECT k, v FROM T WHERE k >= 0")
    server = ReproServer(db=db)
    session = ServerSession(db)
    session.attached = True
    server.sessions[session.token] = session
    server._dispatch(session, {"kind": "subscribe", "view": "v", "id": 1})
    session.outbox.clear()
    counts, queued = [], []
    for sql in (f"INSERT INTO T VALUES ({view_rows}, 0) EXPIRES AT 900",
                "INSERT INTO U VALUES (1) EXPIRES AT 900"):
        execute_sql(db, sql)
        counts.append(meter.measure(lambda: queued.append(server.pump())))
    patch = session.outbox.popleft()
    assert patch["kind"] == "patch" and not session.outbox
    assert [row for row, _ in patch["upserts"]] == [(view_rows, 0)]
    db.close()
    return counts, queued


def test_pump_work_does_not_grow_with_the_view(monkeypatch):
    meter = _RowMeter(monkeypatch)
    results = {n: _pump_rows(n, meter) for n in (1_000, 10_000, 50_000)}
    for n, (counts, queued) in results.items():
        assert queued == [1, 0], n
        related, unrelated = counts
        assert related <= 4, (n, related)  # the one delta row, not the view
        assert unrelated == 0, n
    assert len({counts[0] for counts, _ in results.values()}) == 1


@pytest.mark.parametrize("sql", [
    "INSERT INTO U VALUES (1) EXPIRES AT 900",
    "ADVANCE BY 1",
])
def test_a_settled_view_is_not_read(sql):
    """A statement that leaves a view's state as it was (a write elsewhere,
    or time passing with nothing due) does not bring the view current."""
    db = Database()
    for ddl in ("CREATE TABLE T (k)", "CREATE TABLE U (k)",
                "INSERT INTO T VALUES (1) EXPIRES AT 50",
                "CREATE MATERIALIZED VIEW v AS SELECT k FROM T"):
        execute_sql(db, ddl)
    server = ReproServer(db=db)
    session = ServerSession(db)
    server.sessions[session.token] = session
    server._dispatch(session, {"kind": "subscribe", "view": "v", "id": 1})
    view = db.view("v")
    reads = db.statistics.view_reads
    execute_sql(db, sql)
    assert view.settled(db.clock.now)
    assert server.pump() == 0
    assert db.statistics.view_reads == reads
    assert view.log.entries == []
    db.close()


def test_a_cursor_the_log_dropped_degrades_and_refetches(monkeypatch):
    """Past ``ChangeLog.LIMIT`` entries the log drops what a follower had
    not taken; the pump degrades that stream (an ``invalidate``), and the
    refetch's snapshot is the view."""
    monkeypatch.setattr(ChangeLog, "LIMIT", 4)
    db = Database()
    for sql in ("CREATE TABLE T (k)",
                "CREATE MATERIALIZED VIEW v AS SELECT k FROM T"):
        execute_sql(db, sql)
    server = ReproServer(db=db)
    pumped, idle = ServerSession(db), ServerSession(db)
    for session in (pumped, idle):
        session.attached = True
        server.sessions[session.token] = session
    server._dispatch(pumped, {"kind": "subscribe", "view": "v", "id": 1})
    lagging = idle.subscribe(db.view("v"))  # followed, but not pumped
    lagging.snapshot_payload(db.clock.now)
    for k in range(6):
        server._dispatch(pumped, {"kind": "sql", "id": 2 + k,
                                  "text": f"INSERT INTO T VALUES ({k}) EXPIRES AT 50"})
    assert lagging.fell_behind()
    server._streaming[idle.token] = idle
    assert server.pump() == 1
    [notice] = idle.outbox
    assert notice["kind"] == "invalidate" and notice["reason"] == "lagging"
    assert lagging.degraded and server.families["degrades"].value == 1
    snapshot = lagging.snapshot_payload(db.clock.now)
    assert sorted(snapshot["rows"]) == sorted(db.view("v").read().items())
    execute_sql(db, "INSERT INTO T VALUES (9) EXPIRES AT 50")
    payload, _ = lagging.diff_payload(db.clock.now)
    assert [row for row, _ in payload["upserts"]] == [(9,)]
    db.close()


def test_the_log_nets_each_row_from_its_first_before_to_its_last_after():
    log = ChangeLog()
    log.cursors["f"] = 0
    t = {n: ts(n) for n in (3, 5, 7, 9)}
    log.entries += [
        (("a",), None, t[5]), (("a",), t[5], t[7]),   # new, then renewed
        (("b",), t[5], None), (("b",), None, t[5]),   # removed, put back
        (("c",), t[9], None),                         # removed, alive
        (("d",), t[3], None),                         # removed, expired
        (("e",), None, t[9]), (("e",), t[9], None),   # came and went
    ]
    assert log.take("f", ts(4)) == ([(("a",), t[7])], [(("c",), t[9])])
    assert log.take("f", ts(4)) == ([], [])
    log.trim()
    assert log.entries == [] and log.start == log.end == 8
