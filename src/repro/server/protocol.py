"""Wire framing and message vocabulary for the served engine.

A connection carries the frames of :mod:`repro.codec` (length, CRC32, one
message with a ``kind``; that module's docstring has the format and says
why the log's reader and this one disagree about a bad frame).  This
module holds the stream side of that disagreement: an *incomplete* frame
-- bytes still in flight -- waits for more input, while a frame that can
never decode means framing sync with the peer is lost, so
:class:`FrameDecoder` and :func:`read_frame` raise the connection-fatal
:class:`~repro.errors.WireProtocolError`.

Timestamps travel as an integer tick with ``None`` for ``∞``
(:func:`repro.codec.encode_exp`).  A relation travels once, packed: a
:class:`repro.codec.Block` of ``(row, texp)`` pairs, which
:func:`encode_frame` packs into raw ticks and one column per attribute and
:class:`FrameDecoder` hands back as a ``Block`` of tuples and
``Timestamp`` s.  A ``result`` carries its relation as ``items`` in
presentation order: the first ``shown`` of them are its rows (``shown``
is absent when every item is shown).  ``sub-ok`` and ``snapshot`` carry
``rows``; a ``patch`` carries ``upserts`` and ``removes`` when it has
any, the removes as :class:`repro.codec.Rows` (rows without expirations).

Message kinds (the ``kind`` field; requests carry ``id``, responses echo
it as ``re``; subscription traffic carries ``sub``/``epoch``/``seq``):

=============== ==================================================
client → server
--------------------------------------------------------------------
``hello``       open or resume a session (``resume``: token,
                ``acks``: per-subscription delivery state)
``sql``         execute any statement
``query``       execute a statement that must produce rows
``subscribe``   subscribe to a materialised view's patch stream
``unsubscribe`` drop a subscription
``refetch``     request a full snapshot (after an ``invalidate``)
``ack``         acknowledge subscription envelopes (no reply)
``ping``        liveness probe
``bye``         orderly close
--------------------------------------------------------------------
server → client
--------------------------------------------------------------------
``hello-ok``    session token, logical now, data version, floor
``result``      one statement's outcome (rows carry expirations)
``error``       server-side failure (class name + message)
``sub-ok``      subscription opened: epoch 0, seq 0 snapshot
``patch``       incremental upserts/removes (one seq/ack envelope)
``snapshot``    full state reset (post-degrade refetch; new epoch)
``invalidate``  the backpressure ladder's downgrade notice
``pong`` / ``bye-ok``
=============== ==================================================
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional

from repro import codec
from repro.errors import WireProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME",
    "FrameDecoder",
    "encode_frame",
    "read_frame",
    "write_frame",
]

#: Bumped on incompatible wire changes; ``hello`` negotiates equality.
PROTOCOL_VERSION = 2

#: Connection-fatal bound on a single frame; a length beyond this is
#: framing-desync garbage, not an allocation request.
MAX_FRAME = 16 * 1024 * 1024


def _fatal(error: codec.FrameError) -> WireProtocolError:
    return WireProtocolError(f"{error}; framing sync lost")


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One wire frame: header (length, CRC32) plus the message, its
    :class:`~repro.codec.Block` fields packed; a
    :class:`~repro.errors.WireProtocolError` if too large or unencodable."""
    try:
        return codec.encode_frame(payload, MAX_FRAME)
    except (codec.FrameError, TypeError) as error:
        raise WireProtocolError(str(error)) from None


class FrameDecoder:
    """Incremental frame decoder for one connection's byte stream.

    Feed arbitrary chunks; complete frames come out as dicts, with their
    blocks unpacked.  Incomplete input (a torn frame still in flight) is
    buffered until more bytes arrive; corruption -- CRC mismatch,
    oversized length, non-JSON or non-object payload, a block's length
    that does not add up -- raises
    :class:`~repro.errors.WireProtocolError`, after which the connection
    must be dropped (framing sync is gone).  The error's ``frames`` holds
    the frames the same chunk completed before the fault, which are good.

    >>> decoder = FrameDecoder()
    >>> frame = encode_frame({"kind": "ping", "id": 1})
    >>> decoder.feed(frame[:5])      # torn: nothing decodable yet
    []
    >>> decoder.feed(frame[5:])
    [{'id': 1, 'kind': 'ping'}]
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def buffered(self) -> int:
        """Bytes held back waiting for the rest of a frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Absorb ``data``; return every frame completed by it."""
        buffer = self._buffer
        buffer.extend(data)
        frames: List[Dict[str, Any]] = []
        offset = 0
        try:
            # ``None`` is a torn frame: wait for the remaining bytes.
            while decoded := codec.decode_frame(buffer, offset, MAX_FRAME):
                payload, offset = decoded
                frames.append(payload)
        except codec.FrameError as error:
            fault = _fatal(error)
            fault.frames = frames
            raise fault from None
        del buffer[:offset]
        return frames


async def read_frame(
    reader: asyncio.StreamReader, started: bytes = b""
) -> Optional[Dict[str, Any]]:
    """Read exactly one frame; ``None`` on clean EOF at a frame boundary.

    ``started`` is the frame's first bytes when the caller has already
    read them -- a caller that waits for the next frame with a timeout
    waits on its first byte, because cancelling this coroutine after the
    header is consumed would lose framing sync.  EOF in the middle of a
    frame (the peer died mid-send) raises
    :class:`~repro.errors.WireProtocolError` -- on a live connection a
    half-frame is indistinguishable from corruption.
    """
    try:
        header = started + await reader.readexactly(
            codec.HEADER.size - len(started)
        )
    except asyncio.IncompleteReadError as error:
        if not started and not error.partial:
            return None  # clean EOF between frames
        raise WireProtocolError(
            f"connection closed mid-header "
            f"({len(started) + len(error.partial)} bytes)"
        ) from None
    try:
        # A header alone is "incomplete" unless its length is out of bounds.
        codec.decode_frame(header, 0, MAX_FRAME)
        body = await reader.readexactly(codec.HEADER.unpack(header)[0])
        payload, _ = codec.decode_frame(header + body, 0, MAX_FRAME)
    except asyncio.IncompleteReadError:
        raise WireProtocolError("connection closed mid-frame") from None
    except codec.FrameError as error:
        raise _fatal(error) from None
    return payload


def write_frame(writer, payload: Dict[str, Any]) -> int:
    """Encode and queue one frame on ``writer``; returns the frame size.

    ``writer`` is an :class:`asyncio.StreamWriter` or anything
    duck-compatible (the in-process loopback transport); the caller is
    responsible for ``await writer.drain()`` at its own cadence.
    """
    frame = encode_frame(payload)
    writer.write(frame)
    return len(frame)
