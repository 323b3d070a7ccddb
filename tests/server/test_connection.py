"""The server's connection: bytes in, frames dispatched, frames out.

One protocol object serves a TCP socket and a loopback pair alike, so
every case here runs over both: a request stream torn at any byte is
answered as if it came whole, a frame that breaks framing ends the
connection before anything behind it runs, a socket that stops reading
holds its frames without stalling anyone else, and ``stop`` hangs up
every live client.
"""

from __future__ import annotations

import asyncio
import socket as socket_module

import pytest

from repro import codec
from repro.server.client import AsyncSession, NetworkSession
from repro.server.protocol import MAX_FRAME, PROTOCOL_VERSION, encode_frame
from repro.server.server import ReproServer
from tests.server.wire import next_frame

TRANSPORTS = ["tcp", "loopback"]


def run(coro):
    return asyncio.run(coro)


async def _open(server: ReproServer, transport: str):
    """A raw ``(reader, writer)`` client end over ``transport``."""
    if transport == "loopback":
        return server.open_loopback()
    return await asyncio.open_connection(server.host, server.port)


async def _replies(reader, count: int):
    return [await asyncio.wait_for(next_frame(reader), 5) for _ in range(count)]


async def _closed(reader) -> bool:
    """True once the server has hung up (EOF after whatever was sent)."""
    try:
        await asyncio.wait_for(reader.read(), 5)
    except ConnectionResetError:  # bytes of ours reached a closed socket
        return True
    return reader.at_eof()


async def _serving(transports=TRANSPORTS):
    server = ReproServer()
    if "tcp" in transports:
        await server.start()
    table = server.db.create_table("T", ["k"])
    table.insert((1,))
    table.insert((2,))
    return server


def _requests_dispatched(server: ReproServer) -> float:
    return sum(series.value for _, series in server.families["requests"].series())


HELLO = encode_frame({"kind": "hello", "id": 0, "version": PROTOCOL_VERSION})
STREAM = HELLO + b"".join(
    encode_frame(frame)
    for frame in (
        {"kind": "query", "id": 1, "text": "SELECT k FROM T"},
        {"kind": "ping", "id": 2},
        {"kind": "sql", "id": 3, "text": "SELECT k FROM T WHERE k = 2"},
    )
)


class TestTornRequests:
    def test_a_stream_split_at_any_byte_is_answered_as_if_whole(self):
        async def exchange(server, transport, parts):
            reader, writer = await _open(server, transport)
            for part in parts:
                writer.write(part)
                await writer.drain()
                # Let the part arrive on its own before the next one.
                await asyncio.sleep(0.001 if transport == "tcp" else 0)
            replies = await _replies(reader, 4)
            writer.close()
            for reply in replies:
                reply.pop("session", None)  # the one field a new session varies
            return replies

        async def scenario():
            server = await _serving()
            whole = await exchange(server, "tcp", [STREAM])
            assert [reply["re"] for reply in whole] == [0, 1, 2, 3]
            assert [reply["kind"] for reply in whole] == [
                "hello-ok", "result", "pong", "result"]
            assert sorted(row for row, _ in whole[1]["items"]) == [(1,), (2,)]
            assert [row for row, _ in whole[3]["items"]] == [(2,)]
            for transport in TRANSPORTS:
                assert await exchange(server, transport, [STREAM]) == whole
                for cut in range(1, len(STREAM)):
                    parts = [STREAM[:cut], STREAM[cut:]]
                    assert await exchange(server, transport, parts) == whole, (
                        transport, cut)
            await server.stop()

        run(scenario())


class TestFramingLoss:
    @pytest.mark.parametrize("one_write", [False, True],
                             ids=["corrupt-apart", "corrupt-in-one-write"])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_nothing_after_a_corrupt_frame_is_dispatched(self, transport, one_write):
        """The frames before the corrupt one are answered, also when all
        of them arrive in the same read."""
        query = encode_frame({"kind": "query", "id": 1, "text": "SELECT k FROM T"})
        corrupt = bytearray(encode_frame({"kind": "ping", "id": 2}))
        corrupt[-1] ^= 0xFF  # CRC mismatch
        tail = bytes(corrupt) + encode_frame({"kind": "ping", "id": 3})

        async def scenario():
            server = await _serving([transport])
            reader, writer = await _open(server, transport)
            writer.write(HELLO + query + (tail if one_write else b""))
            _, answer = await _replies(reader, 2)
            assert answer["kind"] == "result" and answer["re"] == 1
            assert _requests_dispatched(server) == 1
            if not one_write:
                writer.write(tail)
            assert await _closed(reader)
            writer.close()
            assert _requests_dispatched(server) == 1
            assert server.families["active"].value == 0
            await server.stop()

        run(scenario())

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_nothing_after_bye_or_a_refused_hello_is_dispatched(self, transport):
        ping = encode_frame({"kind": "ping", "id": 9})

        async def scenario():
            server = await _serving([transport])
            reader, writer = await _open(server, transport)
            writer.write(encode_frame({"kind": "hello", "id": 0, "version": 1})
                         + ping)
            [refusal] = await _replies(reader, 1)
            assert refusal["kind"] == "error" and refusal["re"] == 0
            assert await _closed(reader)
            writer.close()
            reader, writer = await _open(server, transport)
            writer.write(HELLO + encode_frame({"kind": "bye", "id": 1}) + ping)
            assert [r["kind"] for r in await _replies(reader, 2)] == [
                "hello-ok", "bye-ok"]
            assert await _closed(reader)
            writer.close()
            assert server.families["requests"].labels("ping").value == 0
            assert server.sessions == {}  # bye ends the session for good
            await server.stop()

        run(scenario())

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_an_oversized_header_closes_without_waiting_for_its_body(
        self, transport
    ):
        async def scenario():
            server = await _serving([transport])
            reader, writer = await _open(server, transport)
            writer.write(HELLO)
            assert (await _replies(reader, 1))[0]["kind"] == "hello-ok"
            # The header alone: a server that buffered toward the announced
            # length would wait here forever instead of hanging up.
            writer.write(codec.HEADER.pack(MAX_FRAME + 1, 0))
            assert await _closed(reader)
            writer.close()
            assert server.families["active"].value == 0
            assert _requests_dispatched(server) == 0
            await server.stop()

        run(scenario())


async def _pushed_back(server: ReproServer):
    """A subscriber that stops reading its TCP socket while another client
    inserts until the ladder degrades the subscription.

    Returns ``(subscriber, sub, driver, most_held, rows)``: ``most_held``
    is the largest outbox the silent connection reached, ``rows`` how many
    rows went in.  Every insert must be answered within 5 s.
    """
    host, port = await server.start()
    # Small buffers on both ends, so the socket pushes back after a few
    # frames on any kernel.
    raw = socket_module.socket()
    raw.setsockopt(socket_module.SOL_SOCKET, socket_module.SO_RCVBUF, 4096)
    raw.setblocking(False)
    await asyncio.get_running_loop().sock_connect(raw, (host, port))
    reader, writer = await asyncio.open_connection(sock=raw, limit=4096)
    subscriber = await AsyncSession._handshake(reader, writer, None, None)
    held = server.sessions[subscriber.token]
    [conn] = [c for c in server._connections if c.session is held]
    conn.transport.get_extra_info("socket").setsockopt(
        socket_module.SOL_SOCKET, socket_module.SO_SNDBUF, 4096)
    await subscriber.execute("CREATE TABLE B (k, pad)")
    await subscriber.execute("CREATE MATERIALIZED VIEW v AS SELECT k, pad FROM B")
    sub = await subscriber.subscribe("v")
    driver = await AsyncSession.open(host, port)
    pad = "x" * 4000
    most_held = rows = 0
    while not server.families["degrades"].value and rows < 2000:
        values = ", ".join(f"({rows + j}, '{pad}')" for j in range(10))
        await asyncio.wait_for(
            driver.execute(f"INSERT INTO B VALUES {values} EXPIRES AT 100"), 5)
        rows += 10
        most_held = max(most_held, len(held.outbox))
    return subscriber, sub, driver, most_held, rows


class TestABugInDispatch:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_replies_before_it_still_go_out(self, transport):
        """A request that raises something ``_dispatch`` does not catch
        ends the connection, but the replies to the requests before it in
        the same read are sent first."""

        async def scenario():
            server = await _serving([transport])
            dispatch = server._dispatch

            def buggy(session, frame):
                if frame.get("kind") == "ping":
                    raise RuntimeError("a bug")
                return dispatch(session, frame)

            server._dispatch = buggy
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(lambda _, context: reported.append(context))
            reader, writer = await _open(server, transport)
            writer.write(HELLO + encode_frame(
                {"kind": "query", "id": 1, "text": "SELECT k FROM T"})
                + encode_frame({"kind": "ping", "id": 2}))
            replies = await _replies(reader, 2)
            assert [(r["kind"], r["re"]) for r in replies] == [
                ("hello-ok", 0), ("result", 1)]
            assert await _closed(reader)
            writer.close()
            assert server.families["active"].value == 0
            assert [type(c.get("exception")) for c in reported] == [RuntimeError]
            await server.stop()

        run(scenario())


class TestSocketBackpressure:
    def test_a_socket_that_stops_reading_holds_its_frames_alone(self):
        """The server keeps answering the writer, the silent connection's
        frames wait in its outbox once the socket pushes back, the ladder
        degrades the subscription, and the subscriber refetches to the
        server's state when it reads again."""

        async def scenario():
            server = ReproServer(max_outbox=64)
            subscriber, sub, driver, most_held, rows = await _pushed_back(server)
            held = server.sessions[subscriber.token]
            assert most_held > 1  # pause_writing kept frames in the outbox
            assert server.families["degrades"].value == 1
            assert held.subscriptions[sub.sub_id].degraded
            assert held.outbox[-1]["kind"] == "invalidate"  # still held
            await asyncio.wait_for(driver.execute("SELECT k FROM B"), 5)
            await driver.close()
            for _ in range(500):
                await subscriber.poll(0.05)
                if sub.degraded:
                    break
            assert sub.degraded
            await subscriber.refetch(sub)
            assert not sub.degraded
            expected = sorted(server.db.view("v").read(server.db.clock.now).rows())
            assert sorted(sub.read()) == expected
            assert len(expected) == rows
            await subscriber.close()
            await server.stop()

        run(scenario())

    def test_bye_on_a_paused_connection_still_gets_its_bye_ok(self):
        async def scenario():
            server = ReproServer(max_outbox=64)
            subscriber, _, driver, most_held, _ = await _pushed_back(server)
            assert most_held > 1
            await driver.close()
            # Still not reading: the bye arrives while the socket pushes back.
            subscriber._writer.write(encode_frame({"kind": "bye", "id": 99}))
            frames = []
            while (frame := await asyncio.wait_for(
                    next_frame(subscriber._reader), 5)) is not None:
                frames.append(frame)
            assert frames[-1] == {"kind": "bye-ok", "re": 99}
            assert subscriber.token not in server.sessions
            subscriber._writer.close()
            await server.stop()

        run(scenario())


class TestStopWithLiveConnections:
    def test_stop_drops_a_connection_whose_peer_stopped_reading(self):
        """``stop`` does not wait for a silent peer to drain what the
        server still holds for it."""

        async def scenario():
            server = ReproServer(max_outbox=64)
            subscriber, _, driver, most_held, _ = await _pushed_back(server)
            assert most_held > 1
            held = server.sessions[subscriber.token]
            [conn] = [c for c in server._connections if c.session is held]
            sock = conn.transport.get_extra_info("socket")
            await asyncio.wait_for(server.stop(), 5)
            await asyncio.sleep(0.01)
            assert sock.fileno() == -1  # closed now, not once the peer reads
            assert server.families["active"].value == 0
            assert server._connections == set()
            try:  # the subscriber sees the hang-up once it reads again
                while await asyncio.wait_for(subscriber._reader.read(1 << 16), 5):
                    pass
            except ConnectionResetError:
                pass
            await driver.close()
            subscriber._writer.close()

        run(scenario())

    def test_stop_hangs_up_tcp_and_loopback_clients(self):
        async def scenario():
            server = ReproServer()
            host, port = await server.start()
            tcp = await asyncio.to_thread(NetworkSession, host, port)
            await asyncio.to_thread(tcp.execute, "CREATE TABLE T (k)")
            loopback = await AsyncSession.over_loopback(server)
            await loopback.execute("INSERT INTO T VALUES (1)")
            assert server.families["active"].value == 2
            await server.stop()
            assert server.families["active"].value == 0
            pending = [task for task in asyncio.all_tasks()
                       if task is not asyncio.current_task()]
            assert pending == []
            with pytest.raises(ConnectionError):
                await loopback.query("SELECT k FROM T")
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.to_thread(tcp.query, "SELECT k FROM T")
            await asyncio.to_thread(tcp.close)
            await loopback.close()

        run(scenario())
