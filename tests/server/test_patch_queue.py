"""Theorem 3 on the wire: a PATCH view ships its queue with its snapshot.

A subscriber of a PATCH view gets the view's pending patches, each with
its due tick, in ``sub-ok`` / ``snapshot``, and inserts each row itself
when its clock passes the tick.  So over bases that only expire, nothing
follows ``sub-ok``; and any other change ships a patch naming each row
the rebuild moved, in the queue or out of it, so a row deleted from the
base never comes back from a queue a client held.  The pending-envelope count the backpressure ladder reads is
kept as a running count; a property test holds it to the sum it replaces.
"""

from __future__ import annotations

import asyncio
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.algebra.expressions import BaseRef
from repro.core.timestamps import ts
from repro.server.client import AsyncSession
from repro.server.server import ReproServer
from repro.server.session import ServerSession

SETUP = [
    "CREATE TABLE R (k)",
    "CREATE TABLE S (k)",
    # k=1, 2 hidden by S until 10 and 20; k=3 never re-appears (S outlives
    # it); k=4 visible throughout.
    "INSERT INTO R VALUES (1) EXPIRES AT 50",
    "INSERT INTO R VALUES (2) EXPIRES AT 60",
    "INSERT INTO R VALUES (3) EXPIRES AT 15",
    "INSERT INTO R VALUES (4) EXPIRES AT 40",
    "INSERT INTO S VALUES (1) EXPIRES AT 10",
    "INSERT INTO S VALUES (2) EXPIRES AT 20",
    "INSERT INTO S VALUES (3) EXPIRES AT 30",
    "CREATE MATERIALIZED VIEW d AS SELECT k FROM R EXCEPT SELECT k FROM S "
    "WITH POLICY PATCH",
]


async def _patched(server, sessions=1):
    """``sessions`` clients of one server, each subscribed to ``d``."""
    pairs = []
    for _ in range(sessions):
        session = await AsyncSession.over_loopback(server)
        if not pairs:
            for sql in SETUP:
                await session.execute(sql)
        pairs.append((session, await session.subscribe("d")))
    return pairs


async def _advance(server, pairs, tick):
    """Every client moves to ``tick`` and takes what was pushed to it; the
    number of frames pushed."""
    pushed = 0
    for session, _ in pairs:
        await session.execute(f"ADVANCE TO {tick}")
    for session, _ in pairs:
        pushed += await session.poll(0.01)
    return pushed


async def _close(server, pairs):
    for session, _ in pairs:
        await session.close()
    await server.stop()


def _agree(server, pairs, tick):
    view = sorted(server.db.view("d").read().items())
    for _, sub in pairs:
        assert sorted(sub.items()) == view, tick


class TestThePatchQueueShipsOnce:
    def test_sub_ok_carries_the_queue(self):
        async def scenario():
            server = ReproServer()
            pairs = await _patched(server)
            sub = pairs[0][1]
            assert sub.patches == {(1,): (ts(10), ts(50)),
                                   (2,): (ts(20), ts(60))}
            assert sub.read() == [(4,)]
            await _close(server, pairs)

        asyncio.run(scenario())

    def test_static_bases_send_nothing_after_sub_ok(self):
        async def scenario():
            server = ReproServer()
            pairs = await _patched(server)
            view = server.db.view("d")
            frames = server.families["frames_out"].value
            for tick in (5, 10, 11, 15, 20, 30, 40, 50, 60, 70):
                assert await _advance(server, pairs, tick) == 0, tick
                _agree(server, pairs, tick)
            # One result frame per ADVANCE; no patch, snapshot or anything else.
            assert server.families["frames_out"].value - frames == 10
            assert view.patches_applied == 2
            assert server.families["patches"].value == 0
            await _close(server, pairs)

        asyncio.run(scenario())


@pytest.mark.parametrize("sessions", [1, 2])
class TestAChangeNamesWhatItMoved:
    """A base write rebuilds the view; the patch it ships names each row
    the rebuild moved, in the queue or out of it, to every follower."""

    def test_a_deleted_row_never_comes_back_from_the_queue(self, sessions):
        async def scenario():
            server = ReproServer()
            pairs = await _patched(server, sessions)
            await _advance(server, pairs, 5)
            await pairs[0][0].execute("DELETE FROM R WHERE k = 1")
            for session, sub in pairs:
                assert await session.poll(0.01) == 1
                assert (1,) not in sub.patches and (2,) in sub.patches
            for tick in (9, 10, 11, 20, 30):
                await _advance(server, pairs, tick)
                for _, sub in pairs:
                    assert (1,) not in sub.read(), tick
                _agree(server, pairs, tick)
            for _, sub in pairs:
                assert sub.read() == [(2,), (4,)]
            await _close(server, pairs)

        asyncio.run(scenario())

    def test_a_row_deleted_after_its_patch_was_due_goes(self, sessions):
        async def scenario():
            server = ReproServer()
            pairs = await _patched(server, sessions)
            await _advance(server, pairs, 12)
            for _, sub in pairs:
                assert sub.read() == [(1,), (4,)]
            await pairs[0][0].execute("DELETE FROM R WHERE k = 1")
            await _advance(server, pairs, 13)
            for _, sub in pairs:
                assert sub.read() == [(4,)]
            _agree(server, pairs, 13)
            await _close(server, pairs)

        asyncio.run(scenario())

    def test_a_base_insert_queues_the_hidden_row(self, sessions):
        async def scenario():
            server = ReproServer()
            pairs = await _patched(server, sessions)
            snapshots = server.families["snapshots"].value
            await pairs[0][0].execute("INSERT INTO S VALUES (4) EXPIRES AT 25")
            for session, sub in pairs:
                assert await session.poll(0.01) == 1
                assert sub.epoch == 0  # a patch, not a new snapshot
                assert sub.patches[(4,)] == (ts(25), ts(40))
                assert sub.read() == []
            assert server.families["snapshots"].value == snapshots
            assert await _advance(server, pairs, 25) == 0
            for _, sub in pairs:
                assert sub.read() == [(1,), (2,), (4,)]
            _agree(server, pairs, 25)
            await _close(server, pairs)

        asyncio.run(scenario())

    def test_a_content_change_ships_only_its_rows(self, sessions):
        async def scenario():
            server = ReproServer()
            pairs = await _patched(server, sessions)
            upserts = server.families["patch_rows"].labels("upsert")
            before = upserts.value
            await pairs[0][0].execute("INSERT INTO R VALUES (5) EXPIRES AT 70")
            for session, sub in pairs:
                assert await session.poll(0.01) == 1
                assert sub.read() == [(4,), (5,)]
                assert sorted(sub.patches) == [(1,), (2,)]
            assert upserts.value - before == sessions
            await _close(server, pairs)

        asyncio.run(scenario())


#: Operations on one session holding three subscriptions: a write that
#: pumps a patch to all of them, an ack, a sweep, a degrade, an
#: unsubscribe, a resume's replay, a flush of the outbox.
OPS = st.lists(st.tuples(st.sampled_from(
    ["write", "ack", "sweep", "degrade", "unsubscribe", "resume", "flush"]),
    st.integers(0, 5)), max_size=40)


@settings(max_examples=80, deadline=None)
@given(OPS, st.integers(1, 12))
def test_outstanding_is_the_running_count(ops, max_outbox):
    server = ReproServer(max_outbox=max_outbox)
    db = server.db
    db.create_table("T", ["k"])
    for name in ("a", "b", "c"):
        db.materialise(name, BaseRef("T"))
    session = ServerSession(db, max_outbox=max_outbox)
    session.attached = True
    server.sessions[session.token] = session
    for rid, name in enumerate(("a", "b", "c")):
        server._dispatch(session, {"kind": "subscribe", "view": name, "id": rid})
    rng = random.Random(len(ops))
    clock = 0.0
    for step, (op, arg) in enumerate(ops):
        subs = list(session.subscriptions.values())
        sub = subs[arg % len(subs)] if subs else None
        if op == "write":
            db.table("T").insert((step,), expires_at=db.clock.now + 1 + arg)
            server.pump()
        elif op == "ack" and sub is not None:
            sub.on_ack(sub.epoch, rng.randrange(sub.sender.next_seq + 1))
        elif op == "sweep":
            db.advance_to(db.clock.now + arg)
            clock += 5.0 * arg
            server.retransmit_now(clock)
        elif op == "degrade" and sub is not None:
            session.degrade(sub, "test", clock)
        elif op == "unsubscribe" and sub is not None:
            session.unsubscribe(sub.sub_id)
        elif op == "resume":
            for frame in session.resume_frames({}, clock):
                session.enqueue(frame)
        elif op == "flush":
            session.outbox.clear()
        assert session.outstanding() == len(session.outbox) + sum(
            len(each.pending) for each in session.subscriptions.values())
