"""Wire framing: round-trips, torn frames, and the stream failure contract.

The framing is the WAL's (length + CRC32 + compact JSON), but the failure
contract differs: a WAL reader truncates a torn tail; a stream reader that
loses framing sync must drop the connection, so every corruption here is a
:class:`~repro.errors.WireProtocolError`.
"""

from __future__ import annotations

import pytest

from repro.codec import decode_exp, decode_items, encode_exp, encode_items
from repro.core.timestamps import INFINITY, ts
from repro.errors import WireProtocolError
from repro.server.protocol import MAX_FRAME, FrameDecoder, encode_frame
from tests.server.wire import CLIENTS, request_through
from tests.test_codec import BAD_FRAMES


class TestEncoding:
    def test_frame_round_trip(self):
        payload = {"kind": "sql", "id": 7, "text": "SELECT 1"}
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(payload)) == [payload]

    def test_many_frames_in_one_chunk(self):
        frames = [{"kind": "ping", "id": i} for i in range(10)]
        blob = b"".join(encode_frame(f) for f in frames)
        assert FrameDecoder().feed(blob) == frames

    def test_exp_encoding_none_is_infinity(self):
        assert encode_exp(INFINITY) is None
        assert decode_exp(None) == INFINITY
        assert decode_exp(encode_exp(ts(5))) == ts(5)

    def test_items_round_trip(self):
        items = [((1, "a"), ts(10)), ((2, "b"), INFINITY)]
        assert decode_items(encode_items(items)) == items

    def test_oversized_payload_refused_at_encode(self):
        with pytest.raises(WireProtocolError):
            encode_frame({"kind": "x", "blob": "a" * (MAX_FRAME + 1)})


class TestTornFrames:
    def test_torn_frame_buffers_until_complete(self):
        payload = {"kind": "result", "re": 3, "rows": [[1, 2]]}
        frame = encode_frame(payload)
        decoder = FrameDecoder()
        # Drip-feed byte by byte: nothing decodes until the last byte.
        for byte in frame[:-1]:
            assert decoder.feed(bytes([byte])) == []
        assert decoder.buffered == len(frame) - 1
        assert decoder.feed(frame[-1:]) == [payload]
        assert decoder.buffered == 0

    def test_split_across_frame_boundary(self):
        a = encode_frame({"kind": "ping", "id": 1})
        b = encode_frame({"kind": "ping", "id": 2})
        blob = a + b
        decoder = FrameDecoder()
        first = decoder.feed(blob[: len(a) + 3])
        assert first == [{"kind": "ping", "id": 1}]
        assert decoder.feed(blob[len(a) + 3:]) == [{"kind": "ping", "id": 2}]


class TestCorruption:
    """What a dropped connection reports, per fatal row of the shared
    corruption table (``tests/test_codec.py`` runs every row against all
    three readers)."""

    def _fatal(self, name: str, match: str) -> None:
        with pytest.raises(WireProtocolError, match=match):
            FrameDecoder().feed(BAD_FRAMES[name].data)

    def test_crc_mismatch_is_connection_fatal(self):
        self._fatal("crc_mismatch", "CRC mismatch; framing sync lost")
        frame = bytearray(encode_frame({"kind": "ping", "id": 1}))
        frame[-1] ^= 0xFF  # flip a payload bit; the CRC no longer matches
        with pytest.raises(WireProtocolError, match="CRC"):
            FrameDecoder().feed(bytes(frame))

    def test_absurd_length_is_connection_fatal(self):
        self._fatal("absurd_length", f"frame bound \\({MAX_FRAME}\\)")

    def test_non_json_payload_is_connection_fatal(self):
        self._fatal("non_utf8", "JSON")
        self._fatal("non_json", "JSON")

    def test_non_object_payload_is_connection_fatal(self):
        self._fatal("non_object", "message object")

    def test_object_without_kind_is_connection_fatal(self):
        self._fatal("no_kind", "message object")


class TestClientReader:
    """The stream side of the contract at the client boundary: both
    sessions read the wire through :class:`FrameDecoder` alone, so a
    server hanging up between frames closes the connection, and one
    hanging up inside a frame has torn it."""

    @pytest.mark.parametrize("client", CLIENTS)
    @pytest.mark.parametrize("data, error", [
        (b"", ConnectionError),
        (encode_frame({"kind": "pong", "re": 999}), ConnectionError),
        (encode_frame({"kind": "pong", "re": 2})[:3], WireProtocolError),
        (encode_frame({"kind": "pong", "re": 2})[:-2], WireProtocolError),
    ], ids=["between_frames", "after_a_stray_reply", "mid_header", "mid_body"])
    def test_a_hang_up(self, client, data, error):
        with pytest.raises(error):
            request_through(client, data)
