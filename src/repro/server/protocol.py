"""Wire framing and message vocabulary for the served engine.

A connection carries the frames of :mod:`repro.codec` (length, CRC32, one
message with a ``kind``; that module's docstring has the format and says
why the log's reader and this one disagree about a bad frame).  This
module holds the stream side of that disagreement: an *incomplete* frame
-- bytes still in flight -- waits for more input, while a frame that can
never decode means framing sync with the peer is lost, so
:class:`FrameDecoder` raises the connection-fatal
:class:`~repro.errors.WireProtocolError`.  It is the wire's only reader:
the server's connections and both client sessions feed it whatever bytes
arrived.  A server that hangs up while the decoder holds part of a frame
has torn it, which the clients report as the same error.

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
A PATCH view's ``sub-ok`` and ``snapshot`` carry its Theorem-3 queue as
``patches``, a ``Block`` of ``((due, *row), texp)``: the client inserts
each row itself once its clock reaches the raw tick ``due``, so a due
patch travels in no frame of its own; a ``patch`` of such a view carries,
as ``patches``, the rows a rebuild queued anew, and every row it names
otherwise leaves the client's queue.  A client applies a ``patch`` only
right after the seq it holds (``after``, present once the server retired
envelopes as expired, names the seq it follows instead); its cumulative
``ack`` says what it holds, and it acks an ``invalidate`` too.

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
                (``patches``: a PATCH view's queue)
``patch``       incremental upserts/removes (one seq/ack envelope;
                ``patches``: rows a PATCH view queued anew)
``snapshot``    full state reset (post-degrade refetch), with
                ``patches`` as ``sub-ok``
``invalidate``  the backpressure ladder's downgrade notice (acked)
``pong`` / ``bye-ok``
=============== ==================================================
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro import codec
from repro.errors import WireProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME",
    "FrameDecoder",
    "encode_frame",
]

#: Bumped on incompatible wire changes; ``hello`` negotiates equality.
PROTOCOL_VERSION = 3

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
