"""``repro.codec``: one frame format, one corruption table, three readers.

``BAD_FRAMES`` is every way a frame can be wrong.  It is run here against
:func:`repro.codec.decode_frame` itself and against each consumer with that
consumer's failure contract asserted; ``tests/engine/test_wal.py`` and
``tests/server/test_protocol.py`` import the same table for the checks
that belong to one consumer only (the truncation warning, the message a
dropped connection reports).
"""

from __future__ import annotations

import asyncio
import zlib
from typing import NamedTuple, Optional

import pytest

from repro.codec import (
    HEADER,
    FrameError,
    decode_frame,
    encode_frame,
    read_json,
    replace_file,
)
from repro.engine.wal import WriteAheadLog, scan_log
from repro.errors import WireProtocolError
from repro.server import protocol
from repro.server.protocol import FrameDecoder, read_frame


def _frame(body: bytes) -> bytes:
    """A well-formed header in front of an arbitrary payload."""
    return HEADER.pack(len(body), zlib.crc32(body)) + body


class BadFrame(NamedTuple):
    data: bytes
    #: ``None``: more bytes could still complete it.  Otherwise a fragment
    #: of the :class:`FrameError` message: it can never decode.
    error: Optional[str]


#: Lengths are chosen to be out of bounds for both readers (16 MiB on the
#: wire, 64 MiB in the log).
BAD_FRAMES = {
    "short_header": BadFrame(b"\x00\x00", None),
    "short_payload": BadFrame(HEADER.pack(40, 0) + b"abc", None),
    "absurd_length": BadFrame(
        HEADER.pack(2**31, 0) + b"x" * 32, "exceeds the frame bound"
    ),
    "crc_mismatch": BadFrame(HEADER.pack(3, 12345) + b"abc", "CRC"),
    "non_object": BadFrame(_frame(b"[]"), "message object"),
    "non_utf8": BadFrame(_frame(b"\xff\xfenot json"), "JSON"),
    "non_json": BadFrame(_frame(b"{not json"), "JSON"),
    "no_kind": BadFrame(_frame(b'{"id":1}'), "message object"),
    "empty_payload": BadFrame(_frame(b""), "JSON"),
}
LIMIT = 1 << 20

GOOD = [
    {"kind": "clock", "now": 1},
    {"kind": "upsert", "table": "T", "row": [1, "é"], "texp": None},
]


def _reader_with(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


bad_frames = pytest.mark.parametrize("name", list(BAD_FRAMES))


class TestFrame:
    def test_round_trip_and_chaining(self):
        blob = b"".join(encode_frame(p, LIMIT) for p in GOOD)
        first, end = decode_frame(blob, 0, LIMIT)
        second, total = decode_frame(blob, end, LIMIT)
        assert [first, second] == GOOD
        assert total == len(blob)
        assert decode_frame(blob, total, LIMIT) is None  # nothing follows

    def test_bytes_are_compact_sorted_utf8(self):
        frame = encode_frame({"kind": "x", "a": [1, None]}, LIMIT)
        body = b'{"a":[1,null],"kind":"x"}'
        assert frame == HEADER.pack(len(body), zlib.crc32(body)) + body

    def test_every_proper_prefix_is_incomplete(self):
        frame = encode_frame(GOOD[1], LIMIT)
        for cut in range(len(frame)):
            assert decode_frame(frame[:cut], 0, LIMIT) is None
        assert decode_frame(bytearray(frame), 0, LIMIT) == (GOOD[1], len(frame))

    def test_limit_applies_to_both_directions(self):
        frame = encode_frame({"kind": "x", "blob": "a" * 64}, LIMIT)
        with pytest.raises(FrameError, match="exceeds the frame bound"):
            encode_frame({"kind": "x", "blob": "a" * 64}, 32)
        with pytest.raises(FrameError, match="exceeds the frame bound"):
            decode_frame(frame, 0, 32)

    @bad_frames
    def test_decode_frame(self, name):
        data, error = BAD_FRAMES[name]
        if error is None:
            assert decode_frame(data, 0, LIMIT) is None
        else:
            with pytest.raises(FrameError, match=error):
                decode_frame(data, 0, LIMIT)


class TestThreeReaders:
    """The same bytes, each consumer's own contract."""

    @bad_frames
    def test_scan_log_stops_and_never_raises(self, tmp_path, name):
        good = b"".join(encode_frame(p, LIMIT) for p in GOOD)
        path = tmp_path / WriteAheadLog.LOG_NAME
        path.write_bytes(good + BAD_FRAMES[name].data)
        records, valid_length, torn = scan_log(path)
        assert records == GOOD
        assert valid_length == len(good)  # the last good boundary
        assert torn

    @bad_frames
    def test_frame_decoder_waits_or_drops_the_connection(self, name):
        data, error = BAD_FRAMES[name]
        decoder = FrameDecoder()
        good = protocol.encode_frame(GOOD[0])
        if error is None:
            assert decoder.feed(good + data) == [GOOD[0]]
            assert decoder.buffered == len(data)  # waiting for the rest
        else:
            with pytest.raises(WireProtocolError, match=error):
                decoder.feed(good + data)

    @bad_frames
    def test_read_frame_raises_mid_frame(self, name):
        async def scenario():
            reader = _reader_with(BAD_FRAMES[name].data)
            with pytest.raises(WireProtocolError):  # EOF mid-frame included
                await read_frame(reader)

        asyncio.run(scenario())

    def test_read_frame_clean_eof_is_none(self):
        async def scenario():
            reader = _reader_with(protocol.encode_frame(GOOD[1]))
            assert await read_frame(reader) == GOOD[1]
            assert await read_frame(reader) is None

        asyncio.run(scenario())

    def test_frame_split_at_every_offset_yields_nothing_early(self):
        frame = protocol.encode_frame(GOOD[1])
        for cut in range(1, len(frame)):
            decoder = FrameDecoder()
            assert decoder.feed(frame[:cut]) == []
            assert decoder.feed(frame[cut:]) == [GOOD[1]]
            assert decoder.buffered == 0


class TestFiles:
    def test_replace_file_replaces_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("old")
        replace_file(path, [b'{"a":', b"1}"])
        assert read_json(path) == {"a": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('"old"')

        def chunks():
            yield b"partial"
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError):
            replace_file(path, chunks())
        assert read_json(path) == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_read_json_failures(self, tmp_path):
        with pytest.raises(OSError):
            read_json(tmp_path / "missing.json")
        (tmp_path / "torn.json").write_text('{"a": ')
        with pytest.raises(ValueError):
            read_json(tmp_path / "torn.json")
