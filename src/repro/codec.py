"""The one owner of bytes: frames, value encodings, the snapshot file.

A tuple carries its ``texp`` wherever it goes, so the same ``(row, texp)``
pair is what the write-ahead log, the snapshot and the socket hold.  Every
byte-level decision the three share is made here, once;
:mod:`repro.engine.wal`, :mod:`repro.engine.persistence` and
:mod:`repro.server.protocol` keep only what differs between them.

**The frame.**  The log and the wire are sequences of frames::

    +----------------+----------------+------------------+
    | length (u32 BE)| crc32 (u32 BE) | payload (length) |
    +----------------+----------------+------------------+

The payload is one JSON object with a ``kind`` field, in compact separators
and sorted keys (equal payloads are equal bytes).  :func:`encode_frame`
refuses a payload longer than the caller's ``limit``.  :func:`decode_frame`
is pure and has three outcomes: ``(payload, end)``; ``None`` for
*incomplete* (the buffer ends before the frame does); :class:`FrameError`
for *can never decode* -- a length over ``limit``, a CRC mismatch, a
payload that is not UTF-8 JSON, or JSON that is not an object with ``kind``.

**Two failure contracts.**  What a bad frame *means* is the one thing the
readers keep for themselves.  The log reader
(:func:`repro.engine.wal.scan_log`) takes both outcomes as a *torn tail*
left by a crash mid-append: what precedes it is trusted, the rest is
truncated with a warning, and it never raises.  A stream reader
(:class:`repro.server.protocol.FrameDecoder`,
:func:`repro.server.protocol.read_frame`) waits on "incomplete" -- the
bytes are in flight -- but a frame that can never decode means framing sync
with the peer is lost, and the only safe reaction is the connection-fatal
:class:`~repro.errors.WireProtocolError`.  ``limit`` is an argument for the
same reason: the log bounds a record at 64 MiB, a connection a frame at
16 MiB, and each constant lives beside its reader.

**Values: ``null`` is ``∞``.**  A finite expiration time is its integer
tick and "never expires" is JSON ``null`` (:func:`encode_exp`); a row's
*previous* state in a log record adds ``"absent"`` for "there was no row"
(:func:`encode_prev`); a relation's content is a list of
``[[...values], texp_or_null]`` pairs (:func:`encode_items`), and rows come
back as tuples.

**The snapshot file** is plain JSON (:func:`read_json`).  It and the
compacted log are swapped in by :func:`replace_file`: temporary file in the
same directory, fsync, rename over the old file, then fsync of the
*directory* -- so the rename is on disk before anything that depends on it
(truncating the log after a checkpoint) can be.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.timestamps import Timestamp, ts

__all__ = [
    "HEADER",
    "FrameError",
    "decode_exp",
    "decode_frame",
    "decode_items",
    "decode_prev",
    "encode_exp",
    "encode_frame",
    "encode_items",
    "encode_prev",
    "read_json",
    "replace_file",
]

#: ``(payload length, crc32 of the payload)``, both unsigned 32-bit big-endian.
HEADER = struct.Struct(">II")


class FrameError(ValueError):
    """A frame that can never be encoded or decoded.  Never reaches a user:
    the log turns it into "torn tail" or :class:`~repro.errors.WalError`,
    the wire into :class:`~repro.errors.WireProtocolError`."""


# -- the frame ----------------------------------------------------------------


def encode_frame(payload: Dict[str, Any], limit: int) -> bytes:
    """One frame: header (length, CRC32) plus the compact JSON payload."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    if len(body) > limit:
        raise FrameError(
            f"frame payload of {len(body)} bytes exceeds the frame bound "
            f"({limit})"
        )
    return HEADER.pack(len(body), zlib.crc32(body)) + body


def decode_frame(
    buffer: Union[bytes, bytearray], offset: int, limit: int
) -> Optional[Tuple[Dict[str, Any], int]]:
    """Decode the frame starting at ``buffer[offset]``.

    Returns ``(payload, end)`` -- ``end`` is the offset of the next frame
    -- or ``None`` when the buffer ends before the frame does.  Raises
    :class:`FrameError` when no further bytes could make it decode.
    """
    start = offset + HEADER.size
    if len(buffer) < start:
        return None
    length, crc = HEADER.unpack_from(buffer, offset)
    if length > limit:
        raise FrameError(
            f"frame length {length} exceeds the frame bound ({limit})"
        )
    end = start + length
    if len(buffer) < end:
        return None
    body = buffer[start:end]
    if zlib.crc32(body) != crc:
        raise FrameError("frame CRC mismatch")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError(f"frame payload is not valid JSON: {error}") from None
    if not isinstance(payload, dict) or "kind" not in payload:
        raise FrameError(f"frame payload is not a message object: {payload!r}")
    return payload, end


# -- values -------------------------------------------------------------------


def encode_exp(stamp: Timestamp) -> Optional[int]:
    """JSON encoding of an expiration time: ``None`` = never expires."""
    return None if stamp.is_infinite else stamp.value


def decode_exp(value: Optional[int]) -> Timestamp:
    """Inverse of :func:`encode_exp`."""
    return ts(value)


def encode_prev(stamp: Optional[Timestamp]) -> Union[str, int, None]:
    """JSON encoding of a row's *previous* state: ``"absent"`` = no row."""
    if stamp is None:
        return "absent"
    return encode_exp(stamp)


def decode_prev(value: Union[str, int, None]) -> Optional[Timestamp]:
    """Inverse of :func:`encode_prev`."""
    if value == "absent":
        return None
    return ts(value)


def encode_items(items: Iterable[Tuple[tuple, Timestamp]]) -> List[list]:
    """``(row, texp)`` pairs as JSON: ``[[...values], texp_or_null]``."""
    return [[list(row), encode_exp(texp)] for row, texp in items]


def decode_items(payload: Iterable[list]) -> List[Tuple[tuple, Timestamp]]:
    """Inverse of :func:`encode_items` (rows back to tuples)."""
    return [(tuple(row), ts(texp)) for row, texp in payload]


# -- the snapshot file --------------------------------------------------------


def read_json(path: Union[str, Path]) -> Any:
    """Parse the JSON document at ``path``.

    Raises :class:`OSError` if it cannot be read and :class:`ValueError`
    (``json.JSONDecodeError`` / ``UnicodeDecodeError``) if it is not JSON.
    """
    return json.loads(Path(path).read_text())


def replace_file(path: Union[str, Path], chunks: Iterable[bytes]) -> None:
    """Atomically and durably replace ``path`` with ``chunks``.

    A crash at any point leaves either the previous file or the new one,
    never a torn one; when this returns, the new one is what a power cut
    would leave (file *and* directory entry are on disk).
    """
    path = Path(path)
    directory = path.parent
    fd, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
