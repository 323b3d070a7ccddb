"""Raw wire I/O for tests that speak frames without a client session.

:func:`next_frame` reads exactly one frame off an
:class:`asyncio.StreamReader` through
:class:`~repro.server.protocol.FrameDecoder`, the wire's only reader.
:func:`request_through` runs one request of either client session against
:class:`ScriptedPeer`, a one-connection TCP server that answers the
``hello`` and then sends fixed bytes and hangs up: the clients' side of
the stream failure contract.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from typing import Optional

from repro.codec import HEADER
from repro.server.client import AsyncSession, NetworkSession
from repro.server.protocol import FrameDecoder, encode_frame

#: The two wire sessions, for ``pytest.mark.parametrize``.
CLIENTS = ["sync", "async"]


async def next_frame(reader: asyncio.StreamReader) -> Optional[dict]:
    """The next frame on ``reader``; ``None`` once the peer has hung up."""
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as error:
        if error.partial:
            raise
        return None
    body = await reader.readexactly(HEADER.unpack(header)[0])
    [frame] = FrameDecoder().feed(header + body)
    return frame


class ScriptedPeer:
    """A TCP server for one client: it answers ``hello``, reads the next
    request, sends ``data`` in place of a reply and hangs up."""

    def __init__(self, data: bytes) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, args=(data,))
        self._thread.start()

    def _serve(self, data: bytes) -> None:
        self._listener.settimeout(5)
        conn, _ = self._listener.accept()
        with conn:
            conn.settimeout(5)
            decoder, frames = FrameDecoder(), []

            def next_request() -> dict:
                while not frames:
                    chunk = conn.recv(65536)
                    if not chunk:
                        raise ConnectionError("the client hung up")
                    frames.extend(decoder.feed(chunk))
                return frames.pop(0)

            hello = next_request()
            conn.sendall(encode_frame(
                {"kind": "hello-ok", "re": hello["id"], "session": "s1"}))
            next_request()
            conn.sendall(data)

    def close(self) -> None:
        self._thread.join(5)
        self._listener.close()


def request_through(client: str, data: bytes) -> None:
    """One ``query`` of a ``client`` session whose reply is ``data`` followed
    by the server hanging up; raises whatever the session raises."""
    peer = ScriptedPeer(data)
    try:
        if client == "sync":
            session = NetworkSession("127.0.0.1", peer.port, timeout=5)
            try:
                session.query("SELECT 1")
            finally:
                session.disconnect()
        else:
            asyncio.run(_async_query(peer.port))
    finally:
        peer.close()


async def _async_query(port: int) -> None:
    session = await AsyncSession.open("127.0.0.1", port)
    try:
        await session.query("SELECT 1")
    finally:
        session._writer.close()
        try:
            await session._writer.wait_closed()
        except ConnectionError:
            pass
