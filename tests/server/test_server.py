"""The served engine end to end: TCP, loopback, patches, resume, ladders.

The differential harness is the core obligation: at every step of a
scripted workload, a subscribed client's locally-patched view must equal
the server-side view read -- with expiration doing its share of the
maintenance silently on both ends.
"""

from __future__ import annotations

import asyncio
import socket as socket_module
import threading
import time
from fractions import Fraction

import pytest

from repro.core.timestamps import ts
from repro.engine.config import DatabaseConfig
from repro.engine.expiration_index import RemovalPolicy
from repro.errors import RemoteError, SessionError
from repro.server.client import AsyncSession, NetworkSession, connect
from repro.server.protocol import (
    MAX_FRAME, PROTOCOL_VERSION, FrameDecoder, encode_frame,
)
from repro.server.server import ReproServer
from tests.server.wire import CLIENTS, next_frame


def run(coro):
    """Each test gets a fresh event loop."""
    return asyncio.run(coro)


async def _drain(session: AsyncSession, rounds: int = 3) -> None:
    for _ in range(rounds):
        await session.poll(0.02)


class TestTcpRoundTrip:
    def test_execute_query_and_ping_over_tcp(self):
        async def scenario():
            server = ReproServer()
            host, port = await server.start()
            try:
                session = await AsyncSession.open(host, port)
                await session.execute("CREATE TABLE Pol (uid, deg)")
                await session.execute(
                    "INSERT INTO Pol VALUES (1, 25) EXPIRES AT 10"
                )
                result = await session.query("SELECT deg FROM Pol")
                assert result.rows == [(25,)]
                assert result.columns == ("deg",)
                assert result.items == [((25,), ts(10))]
                assert await session.ping() == ts(0)
                await session.close()
            finally:
                await server.stop()

        run(scenario())

    def test_sync_client_over_tcp(self):
        async def scenario():
            server = ReproServer()
            host, port = await server.start()

            def sync_part():
                session = NetworkSession(host, port)
                session.execute("CREATE TABLE T (k)")
                session.execute("INSERT INTO T VALUES (1) EXPIRES AT 5")
                assert session.query("SELECT k FROM T").rows == [(1,)]
                with pytest.raises(RemoteError) as err:
                    session.query("SELECT k FROM Missing")
                assert err.value.remote_type == "SqlPlanError"
                session.close()

            try:
                await asyncio.to_thread(sync_part)
            finally:
                await server.stop()

        run(scenario())

    def test_connect_url_speaks_to_server(self):
        async def scenario():
            server = ReproServer()
            host, port = await server.start()

            def sync_part():
                with connect(f"repro://{host}:{port}") as session:
                    session.execute("CREATE TABLE T (k)")
                    session.execute("INSERT INTO T VALUES (3) EXPIRES AT 7")
                    assert session.query("SELECT k FROM T").rows == [(3,)]

            try:
                await asyncio.to_thread(sync_part)
            finally:
                await server.stop()

        run(scenario())

    def test_remote_errors_carry_type_and_leave_session_usable(self):
        async def scenario():
            server = ReproServer()
            session = await AsyncSession.over_loopback(server)
            with pytest.raises(RemoteError) as err:
                await session.query("CREATE TABLE T (k)")  # not a query
            assert err.value.remote_type == "SessionError"
            # The refusal happened before execution: no side effects.
            assert not server.db.has_table("T")
            await session.execute("CREATE TABLE T (k)")  # still usable
            assert server.db.has_table("T")
            await session.close()
            await server.stop()

        run(scenario())

    def test_a_mismatched_comparison_is_a_remote_error(self):
        async def scenario():
            server = ReproServer()
            session = await AsyncSession.over_loopback(server)
            await session.execute("CREATE TABLE R (k)")
            await session.execute("INSERT INTO R VALUES (1), (2) EXPIRES AT 10")
            with pytest.raises(RemoteError) as err:
                await session.query("SELECT k FROM R WHERE k < 'x'")
            assert err.value.remote_type == "EvaluationError"
            assert "cannot compare int < str" in str(err.value)
            # The connection survived: the same session answers.
            result = await session.query("SELECT k FROM R")
            assert sorted(result.rows) == [(1,), (2,)]
            await session.close()
            await server.stop()

        run(scenario())

    def test_a_mixed_type_aggregate_or_sort_is_a_remote_error(self):
        async def scenario():
            server = ReproServer()
            session = await AsyncSession.over_loopback(server)
            await session.execute("CREATE TABLE T (k, v)")
            await session.execute("INSERT INTO T VALUES (1, 5), (2, 'x')")
            for text, message in (
                ("SELECT MAX(v) FROM T", "cannot aggregate max over int and str"),
                ("SELECT k, v FROM T ORDER BY v", "cannot compare int and str"),
            ):
                with pytest.raises(RemoteError) as err:
                    await session.query(text)
                assert err.value.remote_type == "EvaluationError"
                assert message in str(err.value)
            # The connection survived: the same session answers.
            result = await session.query("SELECT k FROM T")
            assert sorted(result.rows) == [(1,), (2,)]
            await session.close()
            await server.stop()

        run(scenario())

    def test_an_avg_answers_over_the_wire_as_in_process(self):
        """``AVG`` is a ``Fraction``; at the parent its reply was never
        encoded, the writer task died, and the next statement on the same
        connection timed out too."""

        async def scenario():
            server = ReproServer()
            host, port = await server.start()

            def sync_part():
                statements = [
                    "CREATE TABLE R (k, v)",
                    "INSERT INTO R VALUES (1, 1), (2, 2) EXPIRES AT 10",
                ]
                with connect(f"repro://{host}:{port}", timeout=3) as remote, \
                        connect() as local:
                    for text in statements:
                        remote.execute(text)
                        local.execute(text)
                    got = remote.query("SELECT AVG(v) FROM R")
                    assert got.rows == local.query("SELECT AVG(v) FROM R").rows
                    assert got.rows == [(Fraction(3, 2),)]
                    assert type(got.rows[0][0]) is Fraction
                    assert got.items == [((Fraction(3, 2),), ts(10))]
                    assert sorted(remote.query("SELECT k FROM R").rows) == [
                        (1,), (2,),
                    ]

            try:
                await asyncio.to_thread(sync_part)
            finally:
                await server.stop()

        run(scenario())

    def test_a_subscribed_avg_view_streams_and_the_connection_survives(self):
        async def scenario():
            server = ReproServer()
            session = await AsyncSession.over_loopback(server)
            await session.execute("CREATE TABLE R (k, v)")
            await session.execute("INSERT INTO R VALUES (1, 1), (2, 2) EXPIRES AT 10")
            await session.execute(
                "CREATE MATERIALIZED VIEW va AS SELECT AVG(v) FROM R"
            )
            sub = await asyncio.wait_for(session.subscribe("va"), 3)
            assert sub.read() == [(Fraction(3, 2),)]
            await asyncio.wait_for(
                session.execute("INSERT INTO R VALUES (3, 4) EXPIRES AT 10"), 3
            )
            await _drain(session)
            assert sub.read() == [(Fraction(7, 3),)]
            result = await asyncio.wait_for(session.query("SELECT k FROM R"), 3)
            assert sorted(result.rows) == [(1,), (2,), (3,)]
            await session.close()
            await server.stop()

        run(scenario())

    def test_a_reply_that_cannot_be_encoded_is_an_error_reply(self):
        """A reply over the frame bound fails its own request only."""

        async def scenario():
            server = ReproServer()
            big = "x" * (MAX_FRAME + (1 << 20))
            server.db.create_table("C", ["z"]).insert((big,))
            server.db.create_table("K", ["k"]).insert((1,))
            session = await AsyncSession.over_loopback(server)
            with pytest.raises(RemoteError) as err:
                await asyncio.wait_for(session.query("SELECT z FROM C"), 3)
            assert err.value.remote_type == "WireProtocolError"
            assert "exceeds the frame bound" in str(err.value)
            result = await asyncio.wait_for(session.query("SELECT k FROM K"), 3)
            assert result.rows == [(1,)]
            await session.close()
            await server.stop()

        run(scenario())

    def test_corrupt_frame_drops_the_connection(self):
        async def scenario():
            server = ReproServer()
            host, port = await server.start()

            def sync_part():
                raw = socket_module.create_connection((host, port), timeout=5)
                frame = bytearray(
                    encode_frame({"kind": "hello", "id": 1,
                                  "version": PROTOCOL_VERSION})
                )
                frame[-1] ^= 0xFF  # corrupt the payload: CRC mismatch
                raw.sendall(bytes(frame))
                raw.settimeout(5)
                assert raw.recv(1024) == b""  # server hung up, no reply
                raw.close()

            try:
                await asyncio.to_thread(sync_part)
            finally:
                await server.stop()

        run(scenario())

    def test_version_mismatch_rejected(self):
        async def scenario():
            server = ReproServer()
            reader, writer = server.open_loopback()
            writer.write(encode_frame({"kind": "hello", "id": 1, "version": 999}))
            await writer.drain()
            reply = await next_frame(reader)
            assert reply["kind"] == "error"
            assert "version" in reply["message"]
            await server.stop()

        run(scenario())


class TestSubscribeDifferential:
    SCRIPT = [
        "INSERT INTO Pol VALUES (1, 25) EXPIRES AT 10",
        "INSERT INTO Pol VALUES (2, 25) EXPIRES AT 15",
        "INSERT INTO Pol VALUES (3, 35) EXPIRES AT 10",
        "INSERT INTO El VALUES (1, 75) EXPIRES AT 5",
        "ADVANCE TO 3",
        "INSERT INTO Pol VALUES (4, 45) EXPIRES AT 20",
        "DELETE FROM Pol WHERE uid = 2",
        "ADVANCE TO 5",
        "INSERT INTO El VALUES (4, 90) EXPIRES AT 18",
        "ADVANCE TO 10",
        "INSERT INTO Pol VALUES (5, 55) EXPIRES AT 30",
        "ADVANCE TO 18",
        "DELETE FROM Pol WHERE uid = 5",
        "ADVANCE TO 30",
    ]

    def test_patched_views_equal_server_reads_at_every_step(self):
        """The headline differential: monotonic and non-monotonic views,
        inserts, explicit deletes, and expiration -- client == server after
        every single statement."""

        async def scenario():
            server = ReproServer()
            session = await AsyncSession.over_loopback(server)
            await session.execute("CREATE TABLE Pol (uid, deg)")
            await session.execute("CREATE TABLE El (uid, deg)")
            await session.execute(
                "CREATE MATERIALIZED VIEW degs AS SELECT deg FROM Pol"
            )
            await session.execute(
                "CREATE MATERIALIZED VIEW diff AS "
                "SELECT uid FROM Pol EXCEPT SELECT uid FROM El"
            )
            subs = {
                "degs": await session.subscribe("degs"),
                "diff": await session.subscribe("diff"),
            }
            for statement in self.SCRIPT:
                await session.execute(statement)
                await _drain(session)
                for name, sub in subs.items():
                    server_rows = sorted(
                        server.db.view(name).read(server.db.clock.now).rows()
                    )
                    assert sub.read() == server_rows, (
                        f"after {statement!r}: {name} client={sub.read()} "
                        f"server={server_rows}"
                    )
                await _drain(session)  # absorb patches from server reads
            assert subs["degs"].patches_applied > 0
            assert server.families["patches"].value > 0
            await session.close()
            await server.stop()

        run(scenario())

    def test_pure_expiration_ships_no_patch(self):
        """The paper's headline saving: a tuple that merely expires needs
        no message at all -- both ends drop it locally."""

        async def scenario():
            server = ReproServer()
            session = await AsyncSession.over_loopback(server)
            await session.execute("CREATE TABLE T (k)")
            await session.execute("INSERT INTO T VALUES (1) EXPIRES AT 5")
            await session.execute(
                "CREATE MATERIALIZED VIEW v AS SELECT k FROM T"
            )
            sub = await session.subscribe("v")
            assert sub.read() == [(1,)]
            patches_before = server.families["patches"].value
            await session.execute("ADVANCE TO 5")
            await _drain(session)
            assert sub.read() == []  # expired client-side, silently
            assert server.families["patches"].value == patches_before
            await session.close()
            await server.stop()

        run(scenario())

    def test_explicit_delete_of_unexpired_tuple_ships_a_remove(self):
        async def scenario():
            server = ReproServer()
            session = await AsyncSession.over_loopback(server)
            await session.execute("CREATE TABLE T (k)")
            await session.execute("INSERT INTO T VALUES (1) EXPIRES AT 50")
            await session.execute(
                "CREATE MATERIALIZED VIEW v AS SELECT k FROM T"
            )
            sub = await session.subscribe("v")
            await session.execute("DELETE FROM T WHERE k = 1")
            await _drain(session)
            assert sub.read() == []
            assert server.families["patch_rows"].labels("remove").value >= 1
            await session.close()
            await server.stop()

        run(scenario())

    def test_subscribe_reads_the_view_once(self):
        """The ``sub-ok`` reply's rows and columns come from one view read
        (each read copies the whole result)."""

        async def scenario():
            server = ReproServer()
            session = await AsyncSession.over_loopback(server)
            await session.execute("CREATE TABLE T (k, v)")
            await session.execute("INSERT INTO T VALUES (1, 2) EXPIRES AT 50")
            await session.execute(
                "CREATE MATERIALIZED VIEW v AS SELECT v FROM T"
            )
            statistics = server.db.statistics
            for _ in range(3):
                before = statistics.view_reads
                sub = await session.subscribe("v")
                assert statistics.view_reads == before + 1
                assert sub.columns == ("v",)
                assert sub.read() == [(2,)]
            await session.close()
            await server.stop()

        run(scenario())

    def test_unknown_view_subscription_is_a_remote_error(self):
        async def scenario():
            server = ReproServer()
            session = await AsyncSession.over_loopback(server)
            with pytest.raises(RemoteError) as err:
                await session.subscribe("nope")
            assert err.value.remote_type == "CatalogError"
            await session.close()
            await server.stop()

        run(scenario())


class TestReconnectResume:
    def test_resume_replays_the_unexpired_remainder(self):
        async def scenario():
            server = ReproServer(session_ttl=60.0)
            session = await AsyncSession.over_loopback(server)
            await session.execute("CREATE TABLE T (k)")
            await session.execute(
                "CREATE MATERIALIZED VIEW v AS SELECT k FROM T"
            )
            sub = await session.subscribe("v")
            token = session.token
            acks = session._ack_state()
            # Kill the transport without bye: the session must survive.
            session._writer.close()
            await asyncio.sleep(0.05)
            assert token in server.sessions
            assert not server.sessions[token].attached

            # Mutate while detached: patches accumulate as pending.
            driver = await AsyncSession.over_loopback(server)
            await driver.execute("INSERT INTO T VALUES (1) EXPIRES AT 50")
            await driver.execute("INSERT INTO T VALUES (2) EXPIRES AT 60")
            await driver.close()

            resumed = await AsyncSession.over_loopback(
                server, resume=token, acks=acks
            )
            assert resumed.resumed
            assert resumed.token == token
            resumed.subscriptions[sub.sub_id] = sub
            sub._session = resumed
            await _drain(resumed)
            await resumed.query("SELECT k FROM T")  # sync the clock
            assert sub.read() == [(1,), (2,)]
            assert server.families["retransmissions"].value >= 1
            await resumed.close()
            await server.stop()

        run(scenario())

    def test_expired_pending_patches_are_not_retransmitted(self):
        """Expiration-aware retransmission on real transports: a pending
        envelope whose every tuple has expired is dropped at resume and
        counted as avoided traffic."""

        async def scenario():
            server = ReproServer(session_ttl=60.0)
            session = await AsyncSession.over_loopback(server)
            await session.execute("CREATE TABLE T (k)")
            await session.execute(
                "CREATE MATERIALIZED VIEW v AS SELECT k FROM T"
            )
            sub = await session.subscribe("v")
            token = session.token
            acks = session._ack_state()
            session._writer.close()
            await asyncio.sleep(0.05)

            driver = await AsyncSession.over_loopback(server)
            # This patch's only tuple expires at 5 ...
            await driver.execute("INSERT INTO T VALUES (9) EXPIRES AT 5")
            # ... and by resume time the clock is past it.
            await driver.execute("ADVANCE TO 10")
            await driver.close()
            assert len(server.sessions[token].subscriptions[sub.sub_id].pending) == 1

            avoided_before = server.families["avoided"].value
            resumed = await AsyncSession.over_loopback(
                server, resume=token, acks=acks
            )
            resumed.subscriptions[sub.sub_id] = sub
            sub._session = resumed
            await _drain(resumed)
            await resumed.query("SELECT k FROM T")
            assert sub.read() == []  # never told; never needed to be
            assert server.families["avoided"].value == avoided_before + 1
            assert not server.sessions[token].subscriptions[sub.sub_id].pending
            await resumed.close()
            await server.stop()

        run(scenario())

    def test_resume_of_unknown_token_starts_fresh(self):
        async def scenario():
            server = ReproServer()
            session = await AsyncSession.over_loopback(
                server, resume="s999999", acks={}
            )
            assert not session.resumed
            assert session.token != "s999999"
            await session.close()
            await server.stop()

        run(scenario())

    def test_bye_closes_the_session_for_good(self):
        async def scenario():
            server = ReproServer()
            session = await AsyncSession.over_loopback(server)
            token = session.token
            await session.close()
            await asyncio.sleep(0.05)
            assert token not in server.sessions
            await server.stop()

        run(scenario())


class TestRetransmitSweep:
    def test_unacked_patch_is_retransmitted_and_deduplicated(self):
        async def scenario():
            server = ReproServer()
            session = await AsyncSession.over_loopback(server)
            await session.execute("CREATE TABLE T (k)")
            await session.execute(
                "CREATE MATERIALIZED VIEW v AS SELECT k FROM T"
            )
            sub = await session.subscribe("v")
            await session.execute("INSERT INTO T VALUES (1) EXPIRES AT 50")
            await _drain(session)  # patch applied and acked...
            server_sub = server.sessions[session.token].subscriptions[sub.sub_id]
            # ...but pretend the ack never made it: re-arm the envelope.
            payload = dict(
                kind="patch", sub=sub.sub_id, epoch=server_sub.epoch, seq=1,
                upserts=[[[1], 50]], removes=[], now=0, _expires=50,
            )
            server_sub.sender.track(1, payload, ts(50), 1, 0.0)
            resent = server.retransmit_now(time.monotonic() + 1000.0)
            assert resent == 1
            await _drain(session)
            assert sub.duplicates_dropped >= 1  # seq 1 was already applied
            assert sub.read() == [(1,)]  # state unchanged by the duplicate
            assert not server_sub.pending  # the re-ack retired it
            await session.close()
            await server.stop()

        run(scenario())


class TestBackpressure:
    def test_slow_consumer_degrades_to_invalidate_and_refetch(self):
        async def scenario():
            # Tiny ladder: 3 outstanding envelopes is already too many.
            server = ReproServer(max_outbox=3)
            session = await AsyncSession.over_loopback(server)
            await session.execute("CREATE TABLE T (k)")
            await session.execute(
                "CREATE MATERIALIZED VIEW v AS SELECT k FROM T"
            )
            sub = await session.subscribe("v")
            # The subscriber goes completely silent (no reads, so no acks)
            # while a *different* connection keeps mutating: pending
            # envelopes pile up until the ladder trips.
            driver = await AsyncSession.over_loopback(server)
            for i in range(8):
                await driver.execute(
                    f"INSERT INTO T VALUES ({i}) EXPIRES AT 100"
                )
            await driver.close()
            assert server.families["degrades"].value >= 1
            await _drain(session)
            assert sub.degraded
            # An async wire subscription will not refetch implicitly:
            with pytest.raises(SessionError, match="refetch"):
                sub.read()
            await session.refetch(sub)
            assert not sub.degraded
            await session.query("SELECT k FROM T")
            assert sub.read() == sorted(
                server.db.view("v").read(server.db.clock.now).rows()
            )
            await session.close()
            await server.stop()

        run(scenario())

    def test_sync_client_refetches_transparently(self):
        async def scenario():
            server = ReproServer(max_outbox=3)
            host, port = await server.start()

            def sync_part():
                session = NetworkSession(host, port)
                session.execute("CREATE TABLE T (k)")
                session.execute(
                    "CREATE MATERIALIZED VIEW v AS SELECT k FROM T"
                )
                sub = session.subscribe("v")
                driver = NetworkSession(host, port)
                for i in range(8):  # silent subscriber: the ladder trips
                    driver.execute(
                        f"INSERT INTO T VALUES ({i}) EXPIRES AT 100"
                    )
                driver.close()
                session.poll(0.1)
                assert sub.degraded
                rows = sub.read()  # transparent refetch on the sync path
                assert rows == [(i,) for i in range(8)]
                assert not sub.degraded
                session.close()

            try:
                await asyncio.to_thread(sync_part)
            finally:
                await server.stop()

        run(scenario())


class TestServedSnapshotIsolation:
    def test_lazy_retained_tuples_never_served_over_the_wire(self):
        """Session floor semantics over the wire: LAZY removal keeps dead
        tuples physically present server-side; no framed result may carry
        one at or below the session's floor."""

        async def scenario():
            server = ReproServer(
                config=DatabaseConfig(
                    default_removal_policy=RemovalPolicy.LAZY
                )
            )
            session = await AsyncSession.over_loopback(server)
            await session.execute("CREATE TABLE T (k)")
            await session.execute("INSERT INTO T VALUES (1) EXPIRES AT 5")
            await session.execute("INSERT INTO T VALUES (2) EXPIRES AT 50")
            await session.execute("ADVANCE TO 5")
            assert len(server.db.table("T").relation) == 2  # physically kept
            result = await session.query("SELECT k FROM T")
            assert result.rows == [(2,)]
            for row, texp in result.items:
                assert texp > session.floor
            assert session.floor == ts(5)
            await session.close()
            await server.stop()

        run(scenario())

    def test_floor_is_monotone_across_resume(self):
        async def scenario():
            server = ReproServer(session_ttl=60.0)
            session = await AsyncSession.over_loopback(server)
            await session.execute("CREATE TABLE T (k)")
            await session.execute("ADVANCE TO 7")
            token = session.token
            session._writer.close()
            await asyncio.sleep(0.05)
            resumed = await AsyncSession.over_loopback(
                server, resume=token, acks={}
            )
            assert resumed.resumed
            assert server.sessions[token].floor == ts(7)
            await resumed.close()
            await server.stop()

        run(scenario())


class TestServerLifecycle:
    def test_stop_is_idempotent_and_closes_owned_db(self):
        async def scenario():
            server = ReproServer()
            await server.start()
            session = await AsyncSession.over_loopback(server)
            await session.execute("CREATE TABLE T (k)")
            await server.stop()
            await server.stop()
            assert server.db.closed  # owned database closed with it

        run(scenario())

    def test_borrowed_db_survives_stop(self):
        async def scenario():
            from repro.engine.database import Database

            db = Database()
            server = ReproServer(db)
            session = await AsyncSession.over_loopback(server)
            await session.execute("CREATE TABLE T (k)")
            await server.stop()
            assert not db.closed
            assert db.has_table("T")
            db.close()

        run(scenario())

    def test_view_dropped_under_subscription_invalidates(self):
        async def scenario():
            server = ReproServer()
            session = await AsyncSession.over_loopback(server)
            await session.execute("CREATE TABLE T (k)")
            await session.execute(
                "CREATE MATERIALIZED VIEW v AS SELECT k FROM T"
            )
            sub = await session.subscribe("v")
            await session.execute("DROP VIEW v")
            await _drain(session)
            assert sub.degraded
            await session.close()
            await server.stop()

        run(scenario())


async def _raw_hello(server, **fields):
    """A hand-driven loopback connection; returns ``(reader, writer, reply)``."""
    reader, writer = server.open_loopback()
    writer.write(encode_frame({"kind": "hello", "id": 0,
                               "version": PROTOCOL_VERSION, **fields}))
    reply = await asyncio.wait_for(next_frame(reader), 2)
    return reader, writer, reply


async def _raw_request(reader, writer, frame: dict):
    """Send ``frame``; returns ``(reply, pushes that arrived before it)``."""
    writer.write(encode_frame(frame))
    pushes = []
    while True:
        reply = await asyncio.wait_for(next_frame(reader), 2)
        if reply.get("re") == frame["id"]:
            return reply, pushes
        pushes.append(reply)


class TestMalformedWireFields:
    @pytest.mark.parametrize("frame", [
        {"kind": "ack", "sub": "x", "epoch": 0, "cum": 1},
        {"kind": "ack", "sub": 1, "epoch": 0, "cum": [1]},
        {"kind": "unsubscribe", "id": 2, "sub": "x"},
        {"kind": "refetch", "id": 2, "sub": [1]},
    ])
    def test_a_bad_field_is_an_error_reply_and_the_connection_lives(self, frame):
        async def scenario():
            server = ReproServer()
            reader, writer, hello = await _raw_hello(server)
            assert hello["kind"] == "hello-ok"
            error, _ = await _raw_request(reader, writer, {"id": 2, **frame})
            assert error["kind"] == "error"
            assert error["error"] == "WireProtocolError"
            pong, _ = await _raw_request(reader, writer, {"kind": "ping", "id": 3})
            assert pong["kind"] == "pong"
            await server.stop()

        run(scenario())

    @pytest.mark.parametrize("acks", [[1], {"1": 5}, {"1": {"epoch": "x"}},
                                      {"x": {"epoch": 0, "cum": 0}}])
    def test_bad_resume_acks_are_refused_and_the_session_stays_resumable(
        self, acks
    ):
        async def scenario():
            server = ReproServer()
            session = await AsyncSession.over_loopback(server)
            await session.execute("CREATE TABLE T (k)")
            await session.execute(
                "CREATE MATERIALIZED VIEW v AS SELECT k FROM T"
            )
            await session.subscribe("v")
            token = session.token
            session._writer.close()
            await asyncio.sleep(0.05)

            _, _, refused = await _raw_hello(server, resume=token, acks=acks)
            assert refused["kind"] == "error"
            assert refused["error"] == "WireProtocolError"
            assert "acks" in refused["message"]
            await asyncio.sleep(0.05)
            _, _, resumed = await _raw_hello(
                server, resume=token, acks={"1": {"epoch": 0, "cum": 0}}
            )
            assert resumed["kind"] == "hello-ok"
            assert resumed["resumed"] is True
            await server.stop()

        run(scenario())


class TestSenderCoreOnTheWire:
    def test_a_patch_frame_carries_no_private_expiry(self):
        async def scenario():
            server = ReproServer()
            reader, writer, _ = await _raw_hello(server)
            for rid, text in enumerate(
                ["CREATE TABLE T (k)",
                 "CREATE MATERIALIZED VIEW v AS SELECT k FROM T"], start=1
            ):
                await _raw_request(reader, writer,
                                   {"kind": "sql", "id": rid, "text": text})
            sub_ok, _ = await _raw_request(
                reader, writer, {"kind": "subscribe", "id": 3, "view": "v"}
            )
            assert sub_ok["kind"] == "sub-ok"
            _, pushes = await _raw_request(reader, writer, {
                "kind": "sql", "id": 4,
                "text": "INSERT INTO T VALUES (1) EXPIRES AT 50",
            })
            if not pushes:  # the patch may trail the statement's result
                _, pushes = await _raw_request(
                    reader, writer, {"kind": "ping", "id": 5}
                )
            [patch] = [frame for frame in pushes if frame["kind"] == "patch"]
            assert patch["upserts"] == [((1,), ts(50))]
            assert "_expires" not in patch
            await server.stop()

        run(scenario())

    def test_a_sweep_past_expiry_counts_the_cells_it_avoided(self):
        async def scenario():
            server = ReproServer()
            session = await AsyncSession.over_loopback(server)
            await session.execute("CREATE TABLE T (k)")
            await session.execute(
                "CREATE MATERIALIZED VIEW v AS SELECT k FROM T"
            )
            await session.subscribe("v")
            # The subscriber stays silent (no acks) while a driver writes
            # one two-row envelope that is dead by the sweep.
            driver = await AsyncSession.over_loopback(server)
            await driver.execute("INSERT INTO T VALUES (1), (2) EXPIRES AT 5")
            await driver.execute("ADVANCE TO 10")
            await driver.close()
            stats = server.sessions[session.token].stats
            assert server.retransmit_now(time.monotonic() + 1000.0) == 0
            assert stats.retransmissions_avoided == 1
            assert stats.cells_avoided == 2
            await session.close()
            await server.stop()

        run(scenario())

    def test_dead_envelopes_retire_before_backpressure_degrades(self):
        async def scenario():
            server = ReproServer(max_outbox=4)
            session = await AsyncSession.over_loopback(server)
            await session.execute("CREATE TABLE T (k)")
            await session.execute(
                "CREATE MATERIALIZED VIEW v AS SELECT k FROM T"
            )
            sub = await session.subscribe("v")
            token = session.token
            session._writer.close()  # detached: patches stay pending
            await asyncio.sleep(0.05)
            driver = await AsyncSession.over_loopback(server)
            for k in range(4):
                await driver.execute(f"INSERT INTO T VALUES ({k}) EXPIRES AT 2")
            server_sub = server.sessions[token].subscriptions[sub.sub_id]
            assert len(server_sub.pending) == 4
            await driver.execute("ADVANCE TO 10")
            await driver.execute("INSERT INTO T VALUES (9) EXPIRES AT 100")
            await driver.close()
            assert not server_sub.degraded
            assert server.families["degrades"].value == 0
            assert len(server_sub.pending) == 1  # the live fifth patch
            stats = server.sessions[token].stats
            assert stats.retransmissions_avoided == 4
            assert stats.cells_avoided == 4
            assert server.families["avoided"].value == 4
            await server.stop()

        run(scenario())

    def test_server_retries_honour_the_policy_jitter(self):
        from repro.engine.database import Database
        from repro.server.session import RetryPolicy, ServerSession
        from repro.sql.executor import execute_sql

        db = Database()
        execute_sql(db, "CREATE TABLE T (k)")
        execute_sql(db, "CREATE MATERIALIZED VIEW v AS SELECT k FROM T")
        session = ServerSession(db, retry=RetryPolicy(base_delay=4, jitter=3))
        sub = session.subscribe(db.view("v"))
        sub.snapshot_payload(db.clock.now)
        for k in range(20):
            execute_sql(db, f"INSERT INTO T VALUES ({k}) EXPIRES AT 99")
            payload, expires_at = sub.diff_payload(db.clock.now)
            assert session.enqueue_patch(sub, payload, expires_at, 0.0) is None
        dues = [entry.due for entry in sub.pending.values()]
        assert all(4 <= due <= 7 for due in dues)
        assert len(set(dues)) > 1  # sent together, due apart
        db.close()


class TestPollHandlesWhatIsAlreadyHere:
    def test_network_poll_applies_a_push_buffered_beside_a_reply(self):
        """A patch that arrives in the same ``recv`` chunk as the
        statement's result waits in the session's queue, and ``poll``
        applies it; a ``poll`` that read only the socket left about half
        of these reads one row short."""

        async def scenario():
            server = ReproServer()
            host, port = await server.start()

            def sync_part():
                with connect(f"repro://{host}:{port}", timeout=5) as session:
                    session.execute("CREATE TABLE T (k)")
                    session.execute(
                        "CREATE MATERIALIZED VIEW v AS SELECT k FROM T"
                    )
                    sub = session.subscribe("v")
                    expected = []
                    for k in range(30):
                        session.execute(f"INSERT INTO T VALUES ({k}) EXPIRES AT 99")
                        expected.append((k,))
                        session.poll(0.2)
                        assert sub.read() == expected, k
                        assert not session._queue

            try:
                await asyncio.to_thread(sync_part)
            finally:
                await server.stop()

        run(scenario())

    def test_async_poll_finishes_a_frame_it_has_started(self):
        """A poll that times out while a frame is half in does not consume
        its header; a poll cancelled after the header left the next one
        reading the middle of the frame as a length, a dropped
        connection."""
        sub_ok, frame = _sub_ok_and_patch()
        assert len(frame) > 20

        async def scenario():
            reader, sink = asyncio.StreamReader(), _Sink()
            session = AsyncSession(reader, sink)
            sub = session._open_subscription(sub_ok, "v")
            reader.feed_data(frame[:20])
            asyncio.get_running_loop().call_later(
                0.05, reader.feed_data, frame[20:]
            )
            handled = await session.poll(0.01)  # the rest is still in flight
            handled += await session.poll(0.2)
            assert handled == 1
            assert sub.read() == [(1,)]
            assert [ack["cum"] for ack in sink.acks] == [1]

        run(scenario())

    def test_a_reply_no_request_awaits_is_dropped(self):
        """One rule for stray replies in the frame loop under both
        sessions: a reply whose request is no longer awaited (it timed
        out, or it answers a fire-and-forget ``unsubscribe``) is dropped
        on arrival, by ``poll`` and by a request waiting for its own."""
        sub_ok, frame = _sub_ok_and_patch()
        stray = encode_frame({"kind": "pong", "re": 41, "now": 7})

        async def scenario():
            reader, sink = asyncio.StreamReader(), _Sink()
            session = AsyncSession(reader, sink)
            sub = session._open_subscription(sub_ok, "v")
            reader.feed_data(stray + frame)
            assert await session.poll(0.05) == 1
            assert sub.read() == [(1,)]
            assert not session._queue
            ping = asyncio.ensure_future(session.ping())
            await asyncio.sleep(0)
            request = sink.acks[-1]
            assert request["kind"] == "ping"
            reply = {"kind": "pong", "re": request["id"], "now": 3}
            reader.feed_data(stray + encode_frame(reply))
            assert await asyncio.wait_for(ping, 1) == ts(3)
            assert not session._queue

        run(scenario())


class TestPollReturnsWhileTheStreamRuns:
    """A ``poll`` handles what has arrived and returns, even while pushes
    keep coming.  Its drain used to wait for a lull after every chunk (a
    socket or ``wait_for`` timeout of at least a millisecond), so under a
    stream with a frame every fraction of a millisecond one ``poll`` ran
    for as long as the stream did, and the caller's clock ran with it."""

    PUSH = {"kind": "patch", "sub": 99, "epoch": 0, "seq": 1, "now": 1}
    STREAM_SECONDS = 3.0

    def test_network_poll(self):
        listener = socket_module.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        streaming = threading.Event()
        streaming.set()

        def peer():
            listener.settimeout(5)
            conn, _ = listener.accept()
            with conn:
                decoder = FrameDecoder()
                hello = []
                while not hello:
                    hello = decoder.feed(conn.recv(65536))
                conn.sendall(encode_frame(
                    {"kind": "hello-ok", "re": hello[0]["id"], "session": "s1"}))
                frame = encode_frame(self.PUSH)
                deadline = time.monotonic() + self.STREAM_SECONDS
                try:
                    while streaming.is_set() and time.monotonic() < deadline:
                        conn.sendall(frame)
                        time.sleep(0.0002)
                except OSError:
                    pass  # the client hung up

        thread = threading.Thread(target=peer)
        thread.start()
        try:
            session = NetworkSession("127.0.0.1", port, timeout=5)
            began = time.monotonic()
            handled = session.poll(0.5)
            took = time.monotonic() - began
            streaming.clear()
            session.disconnect()
        finally:
            streaming.clear()
            thread.join(10)
            listener.close()
        assert handled >= 1
        assert took < 0.5, took

    def test_async_poll(self):
        frame = encode_frame(self.PUSH)

        async def scenario():
            reader, sink = asyncio.StreamReader(), _Sink()
            session = AsyncSession(reader, sink)
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.STREAM_SECONDS
            streaming = [True]

            def feed():
                if streaming[0] and loop.time() < deadline:
                    reader.feed_data(frame)
                    loop.call_soon(feed)

            feed()
            began = loop.time()
            handled = await session.poll(0.5)
            took = loop.time() - began
            streaming[0] = False
            return handled, took

        handled, took = run(scenario())
        assert handled >= 1
        assert took < 0.5, took


class _Sink:
    """A writer that decodes what a session sends."""

    def __init__(self):
        self.frames = FrameDecoder()
        self.acks = []

    def write(self, data):
        self.acks += self.frames.feed(data)

    async def drain(self):
        pass


def _sub_ok_and_patch():
    """A ``sub-ok`` frame for an empty view and the encoded patch that then
    inserts ``(1,)`` into it, as a server session produces them."""
    from repro.engine.database import Database
    from repro.server.session import ServerSession
    from repro.sql.executor import execute_sql

    db = Database()
    execute_sql(db, "CREATE TABLE T (k)")
    execute_sql(db, "CREATE MATERIALIZED VIEW v AS SELECT k FROM T")
    server_session = ServerSession(db)
    server_sub = server_session.subscribe(db.view("v"))
    snapshot = server_sub.snapshot_payload(db.clock.now, columns=True)
    execute_sql(db, "INSERT INTO T VALUES (1) EXPIRES AT 50")
    patch, _ = server_sub.diff_payload(db.clock.now)
    db.close()
    [sub_ok] = FrameDecoder().feed(encode_frame(snapshot))
    return sub_ok, encode_frame(patch)


class TestCloseTellsTheServer:
    @pytest.mark.parametrize("client", CLIENTS)
    def test_a_closed_subscription_leaves_the_server(self, client):
        """``sub.close()`` sends ``unsubscribe`` from either session, so a
        later write leaves no envelope on the server waiting for an ack
        that will never come."""
        setup = ["CREATE TABLE T (k)",
                 "CREATE MATERIALIZED VIEW v AS SELECT k FROM T"]
        insert = "INSERT INTO T VALUES (1) EXPIRES AT 50"

        def sync_part(host, port):
            session = NetworkSession(host, port)
            for text in setup:
                session.execute(text)
            session.subscribe("v").close()
            session.execute(insert)
            return session

        async def scenario():
            server = ReproServer()
            host, port = await server.start()
            try:
                if client == "sync":
                    session = await asyncio.to_thread(sync_part, host, port)
                else:
                    session = await AsyncSession.open(host, port)
                    for text in setup:
                        await session.execute(text)
                    (await session.subscribe("v")).close()
                    await session.execute(insert)
                held = server.sessions[session.token]
                assert held.subscriptions == {}
                assert held.outstanding() == 0
                assert server.families["subs"].value == 0
                if client == "sync":
                    await asyncio.to_thread(session.close)
                else:
                    await session.close()
            finally:
                await server.stop()

        run(scenario())
