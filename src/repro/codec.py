"""The one owner of bytes: frames, payload encodings, the snapshot file.

A tuple carries its ``texp`` wherever it goes, so the same ``(row, texp)``
pair is what the write-ahead log, the snapshot and the socket hold.  Every
byte-level decision the three share is made here, once;
:mod:`repro.engine.wal`, :mod:`repro.engine.persistence` and
:mod:`repro.server.protocol` keep only what differs between them.

**The frame.**  The log, the snapshot and the wire are sequences of frames::

    +----------------+----------------+------------------+
    | length (u32 BE)| crc32 (u32 BE) | payload (length) |
    +----------------+----------------+------------------+

:func:`encode_frame` and its siblings refuse a payload longer than the
caller's ``limit``.  Decoding is pure and has three outcomes: ``(payload,
end)``; ``None`` for *incomplete* (the buffer ends before the frame does);
:class:`FrameError` for *can never decode* -- a length over ``limit``, a CRC
mismatch, or a payload its decoder cannot read.

**Payloads, told apart by the first byte.**  ``{`` opens a *message*:
one JSON object with a ``kind`` field, in compact separators and sorted
keys (equal payloads are equal bytes).  Every wire frame without a
relation is one, and so are the log's ``clock`` / bracket / DDL records
and the snapshot's frame 0 -- few, and they nest specs.  Any other first
byte is the tag of a *packed* payload, all integers little-endian (the
byte order ``array('q')`` has on the hosts this runs on; a big-endian host
swaps)::

    upsert / remove, one per logged row mutation (:func:`encode_record`)
    +-----+----------+----------+----------+-----------+-------+-----+
    | tag | texp i64 | prev i64 | txn  u32 | len   u16 | table | row |
    +-----+----------+----------+----------+-----------+-------+-----+
      texp, prev: a tick, RAW_INFINITY = never expires, -1 = no row
      (``remove`` has no state after: texp -1); txn 0 = no transaction
      row: ``q`` + n x i64 when every value is exactly an ``int`` inside
      int64 (``True`` is not: it would come back ``1``), else ``j`` + a
      compact JSON array

    segment, at most 2^16 rows of one table (:func:`encode_segment`)
    +-----+-----------+----------+---------------+---------------------+
    | tag | table u32 | rows u32 | ticks n x i64 | a column / attribute|
    +-----+-----------+----------+---------------+---------------------+
      column: form (``q`` = n x i64, ``j`` = a JSON array of n values;
      one ``str`` among ints makes the whole column ``j``) + length u32
      + bytes

    message with blocks, the wire's relations (:class:`Block` and
    :class:`Rows` fields)
    +-----+-------------+--------------+-----------------------------+
    | tag | control u32 | control JSON | a block per relation field  |
    +-----+-------------+--------------+-----------------------------+
      control: the message's other fields, a message's JSON
      block: name (u8 length + UTF-8; not a control field's or an
      earlier block's) + form u8 + rows u32 + arity u32 + size u32, then
      ticks n x i64 (form ``t``, a Block; none for ``r``, Rows), then one
      column per attribute, as a segment's

The record and the segment decode (:func:`decode_record`) to what the
JSON form of the same record decodes to -- a dict with ``kind``, ``null``
for "never expires", ``"absent"`` for "no row" -- except that a row is a
tuple, so every reader downstream of the first byte is written once.  A
CRC-valid payload whose tag the log does not know -- a message with blocks
included -- decodes to a record of an unknown *kind* (``"tag:<n>"``): the
frame is intact and the next one can be trusted, so the log's replay warns
and skips it exactly as it skips an unknown JSON ``kind``, whereas a
payload that fails its own internal lengths is a :class:`FrameError` like
any other damage.  A segment and a block share one body writer and one
column reader.

**Three failure contracts.**  What a bad frame *means* is the one thing
the readers keep for themselves.  The log reader
(:func:`repro.engine.wal.scan_log`) takes both "incomplete" and "can never
decode" as a *torn tail* left by a crash mid-append: what precedes it is
trusted, the rest is truncated with a warning, and it never raises.  The
snapshot reader (:func:`repro.engine.persistence.read_snapshot`) refuses the
whole file: it was swapped in atomically, so anything short of every frame
decoding is damage, not a crash.  The stream reader
(:class:`repro.server.protocol.FrameDecoder`, which the server and both
clients feed) waits on "incomplete" -- the bytes are in flight -- but a
frame that can never decode means framing sync with the peer is lost, and
the only safe reaction is the connection-fatal
:class:`~repro.errors.WireProtocolError`.  The wire reads through
:func:`decode_frame`, which knows messages only, with or without blocks:
a peer never gets to send a packed record or segment, because nothing on
a connection is a row mutation to replay and such a tag there can only be
garbage.  ``limit`` is an argument for the same reason: the log bounds a
record at 64 MiB, a connection a frame at 16 MiB, and each constant lives
beside its reader.

**Values: ``null`` is ``∞``.**  In a message a finite expiration time is
its integer tick and "never expires" is JSON ``null`` (:func:`encode_exp`);
a row's *previous* state in a log record adds ``"absent"`` for "there was
no row" (:func:`encode_prev`); a relation's content in a JSON payload is
a list of ``[[...values], texp_or_null]`` pairs (:func:`encode_items`, the
format 1 snapshot's and a view spec's), and rows come back as tuples.  On
the wire a relation is a :class:`Block` (or, without its expirations,
:class:`Rows`), packed.  A rational (what ``AVG`` computes) is the one-key
object ``{"$fraction": [numerator, denominator]}`` in every JSON payload
and decodes back to a :class:`~fractions.Fraction`, as it was in memory.

**The snapshot file** is a frame sequence (format 2; a file that starts
with ``{`` is a format 1 JSON document, :func:`read_json`).  It is
swapped in by :func:`replace_file`: temporary file in the same directory,
fsync, rename over the old file, then fsync of the *directory* -- so the
rename is on disk before anything that depends on it (truncating the log
after a checkpoint) can be.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import tempfile
import zlib
from array import array
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.timestamps import RAW_INFINITY, Timestamp, from_raw, ts
from repro.errors import TimeError

__all__ = [
    "HEADER",
    "Block",
    "FrameError",
    "Rows",
    "decode_exp",
    "decode_frame",
    "decode_items",
    "decode_prev",
    "decode_record",
    "dump_json",
    "encode_exp",
    "encode_frame",
    "encode_items",
    "encode_prev",
    "encode_record",
    "encode_segment",
    "read_json",
    "replace_file",
]

#: ``(payload length, crc32 of the payload)``, both unsigned 32-bit big-endian.
HEADER = struct.Struct(">II")

#: The raw ``prev`` / ``texp`` of "there is no row" (ticks are non-negative).
_ABSENT = -1

_TAG_UPSERT, _TAG_REMOVE, _TAG_SEGMENT = 1, 2, 3
#: A message whose relations follow its JSON as blocks: the wire's only.
_TAG_BLOCKS = 4
_PHYSICAL_TAGS = {"upsert": _TAG_UPSERT, "remove": _TAG_REMOVE}
_PHYSICAL_KINDS = {tag: kind for kind, tag in _PHYSICAL_TAGS.items()}
#: tag, texp, prev, txn, length of the table name.
_RECORD = struct.Struct("<BqqIH")
#: tag, table index, row count.
_SEGMENT = struct.Struct("<BII")
#: tag, length of the JSON control part.
_BLOCKS = struct.Struct("<BI")
#: form, row count, arity, bytes of the ticks and columns that follow.
_BLOCK = struct.Struct("<BIII")
#: A block with ticks (a :class:`Block`), a block of rows only (:class:`Rows`).
_FORM_TICKED, _FORM_ROWS = b"tr"
_U32 = struct.Struct("<I")
_FORM_INTS, _FORM_JSON = b"qj"
#: ``n x i64`` for the arities rows usually have; wider ones are built on use.
_ROWS = tuple(struct.Struct(f"<{n}q") for n in range(17))
_ONLY_INT = {int}
_SWAP = sys.byteorder == "big"


class FrameError(ValueError):
    """A frame that can never be encoded or decoded.  Never reaches a user:
    the log turns it into "torn tail" or :class:`~repro.errors.WalError`,
    the snapshot into "unreadable snapshot", the wire into
    :class:`~repro.errors.WireProtocolError`."""


# -- the frame ----------------------------------------------------------------


_FRACTION = "$fraction"


def _encode_value(value: Any) -> Any:
    if type(value) is Fraction:
        return {_FRACTION: [value.numerator, value.denominator]}
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _decode_object(obj: Dict[str, Any]) -> Any:
    if len(obj) == 1 and _FRACTION in obj:
        numerator, denominator = obj[_FRACTION]
        return Fraction(numerator, denominator)
    return obj


_ENCODER = json.JSONEncoder(
    separators=(",", ":"), sort_keys=True, default=_encode_value
)
_DECODER = json.JSONDecoder(object_hook=_decode_object)


def dump_json(value: Any) -> str:
    """Compact JSON with sorted keys: equal values are equal text.  Raises
    :class:`TypeError` for a value JSON has no form for."""
    return _ENCODER.encode(value)


def _frame(body: bytes, limit: int) -> bytes:
    if len(body) > limit:
        raise FrameError(
            f"frame payload of {len(body)} bytes exceeds the frame bound "
            f"({limit})"
        )
    return HEADER.pack(len(body), zlib.crc32(body)) + body


def _body(
    buffer: Union[bytes, bytearray], offset: int, limit: int
) -> Optional[Tuple[bytes, int]]:
    """The CRC-checked payload of the frame at ``buffer[offset]`` and the
    offset of the next frame; ``None`` when the buffer ends first."""
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
    return body, end


def _message(body: bytes) -> Dict[str, Any]:
    try:
        payload = _DECODER.decode(body.decode("utf-8"))
    except (ValueError, TypeError, ZeroDivisionError) as error:
        raise FrameError(f"frame payload is not valid JSON: {error}") from None
    if not isinstance(payload, dict) or "kind" not in payload:
        raise FrameError(f"frame payload is not a message object: {payload!r}")
    return payload


class Block(list):
    """A relation a message carries: ``(row, texp)`` pairs in order.

    A field holding a ``Block`` is not JSON: :func:`encode_frame` ships it
    once, packed -- raw ticks and one column per attribute -- and
    :func:`decode_frame` hands it back as a ``Block`` of tuples and
    :class:`~repro.core.timestamps.Timestamp` s.  A plain list in the same
    field is JSON as before.
    """

    __slots__ = ()


class Rows(list):
    """Rows a message carries without their expiration times (a patch's
    removes): a :class:`Block` without the ticks, handed back as a
    ``Rows`` of tuples."""

    __slots__ = ()


_BLOCK_FORMS = {Block: _FORM_TICKED, Rows: _FORM_ROWS}


def encode_frame(payload: Dict[str, Any], limit: int) -> bytes:
    """One message frame: header (length, CRC32) plus the compact JSON,
    or, when fields hold a :class:`Block` or :class:`Rows`, the JSON of
    the other fields followed by the blocks."""
    blocks = [key for key, value in payload.items()
              if type(value) in _BLOCK_FORMS]
    if not blocks:
        return _frame(dump_json(payload).encode("utf-8"), limit)
    control = payload.copy()
    parts: List[bytes] = []
    for key in blocks:
        _block(parts, key, control.pop(key))
    text = dump_json(control).encode("utf-8")
    return _frame(
        b"".join((_BLOCKS.pack(_TAG_BLOCKS, len(text)), text, *parts)), limit
    )


def decode_frame(
    buffer: Union[bytes, bytearray], offset: int, limit: int
) -> Optional[Tuple[Dict[str, Any], int]]:
    """Decode the *message* frame starting at ``buffer[offset]``.

    Returns ``(payload, end)`` -- ``end`` is the offset of the next frame
    -- or ``None`` when the buffer ends before the frame does.  Raises
    :class:`FrameError` when no further bytes could make it decode; a
    packed record or segment is such a frame here (this is the wire's
    decoder: it reads messages, with or without blocks).
    """
    found = _body(buffer, offset, limit)
    if found is None:
        return None
    body, end = found
    if body and body[0] == _TAG_BLOCKS:
        return _with_blocks(body), end
    return _message(body), end


# -- packed payloads ----------------------------------------------------------


def _values(values: Sequence[Any]) -> Tuple[bytes, bytes]:
    """``values`` as ``(form, bytes)``: ``q`` and n x i64 when every one is
    exactly an ``int`` (a ``bool`` is not) inside int64, else ``j`` and a
    compact JSON array."""
    if set(map(type, values)) == _ONLY_INT:
        try:
            packed = array("q", values)
        except OverflowError:
            pass
        else:
            if _SWAP:
                packed.byteswap()
            return b"q", packed.tobytes()
    return b"j", dump_json(list(values)).encode("utf-8")


def _int_array(data: bytes) -> array:
    values = array("q")
    values.frombytes(data)  # the caller checked len(data) % 8
    if _SWAP:
        values.byteswap()
    return values


def _json_array(data: bytes) -> list:
    try:
        values = _DECODER.decode(data.decode("utf-8"))
    except (ValueError, TypeError, ZeroDivisionError) as error:
        raise FrameError(f"packed values are not valid JSON: {error}") from None
    if type(values) is not list:
        raise FrameError(f"packed values are not a JSON array: {values!r}")
    return values


def _raw(value: Union[str, int, None]) -> int:
    """A message's expiration (``null`` = never, ``"absent"``) as a tick."""
    if value is None:
        return RAW_INFINITY
    if value == "absent":
        return _ABSENT
    if not 0 <= value < RAW_INFINITY:
        raise FrameError(f"expiration tick {value} is outside [0, 2^63 - 1)")
    return value


def encode_record(record: Dict[str, Any], limit: int) -> bytes:
    """One log record as a frame: ``upsert`` / ``remove`` packed, every
    other kind a message."""
    tag = _PHYSICAL_TAGS.get(record["kind"])
    if tag is None:
        return encode_frame(record, limit)
    table = record["table"].encode("utf-8")
    try:
        head = _RECORD.pack(
            tag,
            _raw(record["texp"]) if tag == _TAG_UPSERT else _ABSENT,
            _raw(record.get("prev", "absent")),
            record.get("txn") or 0,
            len(table),
        )
    except struct.error as error:
        raise FrameError(f"record does not fit the packed layout: {error}") from None
    form, values = _values(record["row"])
    return _frame(b"".join((head, table, form, values)), limit)


def _physical(body: bytes) -> Dict[str, Any]:
    try:
        tag, texp, prev, txn, name_length = _RECORD.unpack_from(body)
    except struct.error:
        raise FrameError("packed record is shorter than its header") from None
    at = _RECORD.size + name_length
    if at >= len(body):
        raise FrameError("packed record's table name runs past the payload")
    try:
        table = body[_RECORD.size:at].decode("utf-8")
    except UnicodeDecodeError as error:
        raise FrameError(f"packed record's table name: {error}") from None
    form = body[at]
    at += 1
    if form == _FORM_INTS:
        arity, odd = divmod(len(body) - at, 8)
        if odd:
            raise FrameError("packed int row is not a multiple of 8 bytes")
        unpack = _ROWS[arity] if arity < len(_ROWS) else struct.Struct(f"<{arity}q")
        row = unpack.unpack_from(body, at)
    elif form == _FORM_JSON:
        row = tuple(_json_array(body[at:]))
    else:
        raise FrameError(f"unknown packed row form {form:#x}")
    record = {
        "kind": _PHYSICAL_KINDS[tag],
        "table": table,
        "row": row,
        "prev": (
            "absent" if prev == _ABSENT
            else None if prev == RAW_INFINITY else prev
        ),
    }
    if tag == _TAG_UPSERT:
        record["texp"] = None if texp == RAW_INFINITY else texp
    if txn:
        record["txn"] = txn
    return record


def _write_body(
    parts: List[bytes],
    ticks: Optional[array],
    columns: Sequence[Sequence[Any]],
) -> None:
    """Append the raw ticks (n x i64; none when ``ticks`` is ``None``),
    then each column as its form, its byte length (u32) and its bytes: the
    one body of a snapshot segment and a wire block."""
    if ticks is not None:
        if _SWAP:
            ticks = array("q", ticks)
            ticks.byteswap()
        parts.append(ticks.tobytes())
    for column in columns:
        form, values = _values(column)
        parts += (form, _U32.pack(len(values)), values)


def _read_column(
    body: bytes, at: int, end: int, count: int, what: str
) -> Tuple[Sequence[Any], int]:
    """The column of ``count`` values at ``body[at]``, which must end by
    ``end``, and the offset after it."""
    if at + 1 + _U32.size > end:
        raise FrameError(f"{what} column header cut short")
    form = body[at]
    (length,) = _U32.unpack_from(body, at + 1)
    at += 1 + _U32.size
    data = body[at:at + length]
    at += length
    if at > end:
        raise FrameError(f"{what} column runs past the payload")
    if form == _FORM_INTS:
        if length != 8 * count:
            raise FrameError(f"{what} int column does not hold one i64 per row")
        return _int_array(data), at
    if form == _FORM_JSON:
        values = _json_array(data)
        if len(values) != count:
            raise FrameError(f"{what} JSON column does not hold one value per row")
        return values, at
    raise FrameError(f"unknown {what} column form {form:#x}")


def encode_segment(
    table: int, ticks: array, columns: Sequence[Sequence[Any]], limit: int
) -> bytes:
    """One snapshot segment as a frame: ``len(ticks)`` rows of the table at
    index ``table`` of frame 0, their raw expiration ticks
    (``array('q')``), and one sequence of values per attribute."""
    parts = [_SEGMENT.pack(_TAG_SEGMENT, table, len(ticks))]
    _write_body(parts, ticks, columns)
    return _frame(b"".join(parts), limit)


def _segment(body: bytes) -> Dict[str, Any]:
    try:
        _, table, count = _SEGMENT.unpack_from(body)
    except struct.error:
        raise FrameError("segment is shorter than its header") from None
    at = _SEGMENT.size + 8 * count
    if at > len(body):
        raise FrameError("segment's ticks run past the payload")
    ticks = _int_array(body[_SEGMENT.size:at])
    columns: List[Sequence[Any]] = []
    while at < len(body):
        column, at = _read_column(body, at, len(body), count, "segment")
        columns.append(column)
    return {"kind": "segment", "table": table, "ticks": ticks, "columns": columns}


def _block(parts: List[bytes], name: str, items: Union[Block, Rows]) -> None:
    """Append the block of field ``name``: its name (u8 length + UTF-8),
    form, row count, arity and byte size (:data:`_BLOCK`), then its body."""
    key = name.encode("utf-8")
    form = _BLOCK_FORMS[type(items)]
    ticks = None
    rows: Sequence[tuple] = items
    if form == _FORM_TICKED and items:
        rows, texps = zip(*items)
        ticks = array("q", texps)
    columns = list(zip(*rows))
    body: List[bytes] = []
    _write_body(body, ticks, columns)
    body = b"".join(body)
    parts += (
        bytes((len(key),)), key,
        _BLOCK.pack(form, len(items), len(columns), len(body)), body,
    )


def _with_blocks(body: bytes) -> Dict[str, Any]:
    """A message with blocks: its JSON control part, then each block into
    the field it names, as a :class:`Block` or :class:`Rows`."""
    try:
        _, length = _BLOCKS.unpack_from(body)
    except struct.error:
        raise FrameError("block message is shorter than its header") from None
    at = _BLOCKS.size + length
    if at > len(body):
        raise FrameError("block message's JSON runs past the payload")
    message = _message(body[_BLOCKS.size:at])
    while at < len(body):
        start = at + 1 + body[at]
        try:
            name = body[at + 1:start].decode("utf-8")
            form, count, arity, size = _BLOCK.unpack_from(body, start)
        except (UnicodeDecodeError, struct.error):
            raise FrameError("block header cut short") from None
        if name in message:
            raise FrameError(f"block {name!r} repeats a field of its message")
        at = start + _BLOCK.size
        end = at + size
        if end > len(body):
            raise FrameError(f"block {name!r} runs past the payload")
        if form == _FORM_TICKED:
            if at + 8 * count > end:
                raise FrameError(f"block {name!r}'s ticks run past the payload")
            ticks = _int_array(body[at:at + 8 * count])
            at += 8 * count
        elif form == _FORM_ROWS:
            if not arity and count > 1:
                # No tick and no column bounds this count by the bytes sent.
                raise FrameError(f"block {name!r} repeats the empty row")
        else:
            raise FrameError(f"unknown block form {form:#x}")
        columns = []
        for _ in range(arity):
            column, at = _read_column(body, at, end, count, "block")
            columns.append(column)
        if at != end:
            raise FrameError(f"block {name!r} holds more columns than its arity")
        rows = list(zip(*columns)) if arity else [()] * count
        if form == _FORM_ROWS:
            message[name] = Rows(rows)
            continue
        try:
            stamps = {tick: from_raw(tick) for tick in set(ticks)}
        except TimeError as error:
            raise FrameError(f"block {name!r}: {error}") from None
        message[name] = Block(zip(rows, map(stamps.__getitem__, ticks)))
    return message


_PACKED = {
    _TAG_UPSERT: _physical, _TAG_REMOVE: _physical, _TAG_SEGMENT: _segment,
}


def decode_record(
    buffer: Union[bytes, bytearray], offset: int, limit: int
) -> Optional[Tuple[Dict[str, Any], int]]:
    """Decode the frame starting at ``buffer[offset]``, message or packed.

    :func:`decode_frame`'s three outcomes, for the log and the snapshot.  The
    first payload byte picks the decoder; a message's ``row`` comes back as
    a tuple, as a packed record's does.  A tag this version does not know
    is a record of kind ``"tag:<n>"``, not an error: the frame is intact.
    """
    found = _body(buffer, offset, limit)
    if found is None:
        return None
    body, end = found
    if not body:
        raise FrameError("frame payload is empty")
    first = body[0]
    if first == 0x7B:  # "{"
        record = _message(body)
        if "row" in record:
            record["row"] = tuple(record["row"])
        return record, end
    decoder = _PACKED.get(first)
    if decoder is None:
        return {"kind": f"tag:{first}"}, end
    return decoder(body), end


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
