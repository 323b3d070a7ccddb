"""``repro.codec``: one frame format, one corruption table, three readers.

``BAD_FRAMES`` is every way a frame can be wrong.  It is run here against
:func:`repro.codec.decode_frame` and :func:`repro.codec.decode_record`
themselves and against each consumer with that consumer's failure contract
asserted; ``tests/engine/test_wal.py`` and ``tests/server/test_protocol.py``
import the same table for the checks that belong to one consumer only (the
truncation warning, the message a dropped connection reports).
"""

from __future__ import annotations

import struct
import zlib
from array import array
from fractions import Fraction
from typing import NamedTuple, Optional

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.codec import (
    HEADER,
    Block,
    FrameError,
    Rows,
    decode_frame,
    decode_record,
    encode_frame,
    encode_record,
    encode_segment,
    read_json,
    replace_file,
)
from repro.core.timestamps import INFINITY, RAW_INFINITY, Timestamp, ts
from repro.engine.wal import WriteAheadLog, scan_log
from repro.errors import TimeError, WireProtocolError
from repro.server import protocol
from repro.server.protocol import FrameDecoder
from tests.server.wire import CLIENTS, request_through


def _frame(body: bytes) -> bytes:
    """A well-formed header in front of an arbitrary payload."""
    return HEADER.pack(len(body), zlib.crc32(body)) + body


def _packed(name_length: int = 1, tail: bytes = b"Tq", tag: int = 1) -> bytes:
    """A packed record's fixed header (texp 5, prev absent, no txn)."""
    return struct.pack("<BqqIH", tag, 5, -1, 0, name_length) + tail


def _block(count: int, arity: int, body: bytes, name: bytes = b"rows",
           size: Optional[int] = None, form: bytes = b"t") -> bytes:
    """One wire block: name, form, row count, arity, byte size, then
    ``body``."""
    size = len(body) if size is None else size
    return (bytes((len(name),)) + name + form
            + struct.pack("<III", count, arity, size) + body)


def _blocks(*blocks: bytes, control: bytes = b'{"kind":"patch"}') -> bytes:
    """A block message's payload: tag 4, the control's length, the control
    JSON, then ``blocks``."""
    return struct.pack("<BI", 4, len(control)) + control + b"".join(blocks)


#: Two ticks (5 and "never"), then the column header of two int values.
_TICKS = struct.pack("<2q", 5, RAW_INFINITY)
_INTS = b"q" + struct.pack("<I", 16) + struct.pack("<2q", 1, 2)

#: ``record`` of a CRC-valid payload whose first byte is a tag this version
#: does not know: the log reads past it (an unknown record *kind*).
SKIPPED = "skipped"


class BadFrame(NamedTuple):
    data: bytes
    #: What :func:`decode_frame` -- the wire -- makes of it.  ``None``: more
    #: bytes could still complete it.  Otherwise a fragment of the
    #: :class:`FrameError` message: it can never decode.
    error: Optional[str]
    #: What :func:`decode_record` -- the log, the snapshot -- makes of it
    #: where that differs: another message, or :data:`SKIPPED`.
    record: Optional[str] = None

    @property
    def log(self) -> str:
        """``scan_log``'s reaction: a ``"torn"`` tail, or :data:`SKIPPED`."""
        return SKIPPED if self.record == SKIPPED else "torn"


#: Lengths are chosen to be out of bounds for both readers (16 MiB on the
#: wire, 64 MiB in the log).  To the wire every packed payload is simply
#: not JSON.
BAD_FRAMES = {
    "short_header": BadFrame(b"\x00\x00", None),
    "short_payload": BadFrame(HEADER.pack(40, 0) + b"abc", None),
    "absurd_length": BadFrame(
        HEADER.pack(2**31, 0) + b"x" * 32, "exceeds the frame bound"
    ),
    "crc_mismatch": BadFrame(HEADER.pack(3, 12345) + b"abc", "CRC"),
    "non_object": BadFrame(_frame(b"[]"), "message object", SKIPPED),
    "non_utf8": BadFrame(_frame(b"\xff\xfenot json"), "JSON", SKIPPED),
    "non_json": BadFrame(_frame(b"{not json"), "JSON"),
    "no_kind": BadFrame(_frame(b'{"id":1}'), "message object"),
    "zero_denominator": BadFrame(
        _frame(b'{"kind":"clock","now":{"$fraction":[1,0]}}'), "JSON"
    ),
    "fraction_of_strings": BadFrame(
        _frame(b'{"kind":"clock","now":{"$fraction":["1","2"]}}'), "JSON"
    ),
    "empty_payload": BadFrame(_frame(b""), "JSON", "payload is empty"),
    "unknown_tag": BadFrame(_frame(b"\x7fwhatever"), "JSON", SKIPPED),
    "packed_header_cut_short": BadFrame(
        _frame(_packed()[:12]), "JSON", "shorter than its header"
    ),
    "packed_name_past_payload": BadFrame(
        _frame(_packed(name_length=200)), "JSON", "runs past the payload"
    ),
    "packed_name_without_row": BadFrame(
        _frame(_packed(tail=b"T")), "JSON", "runs past the payload"
    ),
    "packed_odd_int_row": BadFrame(
        _frame(_packed(tail=b"Tq" + b"\x00" * 7)), "JSON", "multiple of 8"
    ),
    "packed_unknown_row_form": BadFrame(
        _frame(_packed(tail=b"Tz")), "JSON", "unknown packed row form"
    ),
    "packed_json_row_is_not_json": BadFrame(
        _frame(_packed(tail=b"Tj[1,")), "JSON"
    ),
    "packed_json_row_is_not_an_array": BadFrame(
        _frame(_packed(tail=b"Tj7")), "JSON", "JSON array"
    ),
    "segment_header_cut_short": BadFrame(
        _frame(b"\x03\x00\x00"), "JSON", "shorter than its header"
    ),
    "segment_ticks_past_payload": BadFrame(
        _frame(struct.pack("<BII", 3, 0, 2) + b"\x00" * 8), "JSON",
        "ticks run past",
    ),
    "segment_column_past_payload": BadFrame(
        _frame(struct.pack("<BII", 3, 0, 1) + b"\x00" * 8 + b"q"
               + struct.pack("<I", 16) + b"\x00" * 8),
        "JSON", "column runs past",
    ),
    "segment_int_column_of_another_length": BadFrame(
        _frame(struct.pack("<BII", 3, 0, 2) + b"\x00" * 16 + b"q"
               + struct.pack("<I", 8) + b"\x00" * 8),
        "JSON", "one i64 per row",
    ),
    "segment_json_column_of_another_length": BadFrame(
        _frame(struct.pack("<BII", 3, 0, 2) + b"\x00" * 16 + b"j"
               + struct.pack("<I", 3) + b"[1]"),
        "JSON", "one value per row",
    ),
    "segment_unknown_column_form": BadFrame(
        _frame(struct.pack("<BII", 3, 0, 0) + b"z" + struct.pack("<I", 0)),
        "JSON", "unknown segment column form",
    ),
    # A message with blocks (tag 4) is the wire's own: the log and the
    # snapshot read it as a record of an unknown kind.
    "blocks_header_cut_short": BadFrame(
        _frame(b"\x04\x05\x00"), "shorter than its header", SKIPPED
    ),
    "blocks_control_past_payload": BadFrame(
        _frame(struct.pack("<BI", 4, 99) + b'{"kind":"patch"}'),
        "JSON runs past the payload", SKIPPED,
    ),
    "blocks_control_is_not_a_message": BadFrame(
        _frame(_blocks(control=b"[]")), "message object", SKIPPED
    ),
    "block_header_cut_short": BadFrame(
        _frame(_blocks(b"\x04rows" + b"\x01\x00")), "block header cut short",
        SKIPPED,
    ),
    "block_past_payload": BadFrame(
        _frame(_blocks(_block(2, 1, _TICKS + _INTS, size=99))),
        "runs past the payload", SKIPPED,
    ),
    "block_ticks_past_payload": BadFrame(
        _frame(_blocks(_block(2, 0, _TICKS[:8]))), "ticks run past", SKIPPED
    ),
    "block_column_of_another_length": BadFrame(
        _frame(_blocks(_block(
            2, 1, _TICKS + b"q" + struct.pack("<I", 8) + b"\x00" * 8
        ))),
        "one i64 per row", SKIPPED,
    ),
    "block_unknown_column_form": BadFrame(
        _frame(_blocks(_block(2, 1, _TICKS + b"z" + _INTS[1:]))),
        "unknown block column form", SKIPPED,
    ),
    "block_fewer_columns_than_its_arity": BadFrame(
        _frame(_blocks(_block(2, 2, _TICKS + _INTS))),
        "column header cut short", SKIPPED,
    ),
    "block_more_columns_than_its_arity": BadFrame(
        _frame(_blocks(_block(2, 1, _TICKS + _INTS + _INTS))),
        "more columns than its arity", SKIPPED,
    ),
    "block_negative_tick": BadFrame(
        _frame(_blocks(_block(1, 0, struct.pack("<q", -1)))), "non-negative",
        SKIPPED,
    ),
    "block_unknown_form": BadFrame(
        _frame(_blocks(_block(2, 1, _TICKS + _INTS, form=b"z"))),
        "unknown block form", SKIPPED,
    ),
    "block_names_a_control_field": BadFrame(
        _frame(_blocks(_block(2, 1, _TICKS + _INTS, name=b"kind"))),
        "repeats a field", SKIPPED,
    ),
    "block_names_an_earlier_block": BadFrame(
        _frame(_blocks(_block(2, 1, _TICKS + _INTS),
                       _block(2, 1, _INTS, form=b"r"))),
        "repeats a field", SKIPPED,
    ),
    "block_of_rows_repeats_the_empty_row": BadFrame(
        _frame(_blocks(_block(2**32 - 1, 0, b"", form=b"r"))),
        "repeats the empty row", SKIPPED,
    ),
}
LIMIT = 1 << 20

#: Two messages, as the wire carries them.
GOOD = [
    {"kind": "clock", "now": 1},
    {"kind": "upsert", "table": "T", "row": [1, "é"], "texp": None},
]
#: Two log records, as :func:`scan_log` returns them.
LOGGED = [
    {"kind": "clock", "now": 1},
    {"kind": "upsert", "table": "T", "row": (1, "é"), "texp": None,
     "prev": "absent"},
]


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
        data, error, _ = BAD_FRAMES[name]
        if error is None:
            assert decode_frame(data, 0, LIMIT) is None
        else:
            with pytest.raises(FrameError, match=error):
                decode_frame(data, 0, LIMIT)

    @bad_frames
    def test_decode_record(self, name):
        data, error, record = BAD_FRAMES[name]
        if record == SKIPPED:
            assert decode_record(data, 0, LIMIT) == (
                {"kind": f"tag:{data[HEADER.size]}"}, len(data)
            )
        elif error is None:
            assert decode_record(data, 0, LIMIT) is None
        else:
            with pytest.raises(FrameError, match=record or error):
                decode_record(data, 0, LIMIT)


class TestThreeReaders:
    """The same bytes, each consumer's own contract."""

    @bad_frames
    def test_scan_log_stops_and_never_raises(self, tmp_path, name):
        """... at a damaged frame; an intact one of an unknown kind is read
        past.  The same for a packed log and a JSON one."""
        bad = BAD_FRAMES[name]
        path = tmp_path / WriteAheadLog.LOG_NAME
        for encode in (encode_record, encode_frame):
            good = b"".join(encode(p, LIMIT) for p in LOGGED)
            path.write_bytes(good + bad.data + good)
            records, valid_length, torn = scan_log(path)
            if bad.log == SKIPPED:
                (unknown,) = records[2:-2]
                assert unknown["kind"].startswith("tag:")
                assert records[:2] == records[-2:] == LOGGED
                assert valid_length == len(good + bad.data + good)
                assert not torn
            else:
                assert records == LOGGED
                assert valid_length == len(good)  # the last good boundary
                assert torn

    def test_the_wire_refuses_a_valid_packed_record(self):
        frame = encode_record(LOGGED[1], LIMIT)
        assert decode_record(frame, 0, LIMIT) == (LOGGED[1], len(frame))
        with pytest.raises(WireProtocolError, match="JSON"):
            FrameDecoder().feed(frame)
        for client in CLIENTS:
            with pytest.raises(WireProtocolError, match="JSON"):
                request_through(client, frame)

    @bad_frames
    def test_frame_decoder_waits_or_drops_the_connection(self, name):
        data, error, _ = BAD_FRAMES[name]
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
        """A client reading a frame: in both sessions a reply that is
        damaged, or cut off by the server hanging up, is the same
        connection-fatal error."""
        for client in CLIENTS:
            with pytest.raises(WireProtocolError):  # EOF mid-frame included
                request_through(client, BAD_FRAMES[name].data)

    def test_frame_split_at_every_offset_yields_nothing_early(self):
        frame = protocol.encode_frame(GOOD[1])
        for cut in range(1, len(frame)):
            decoder = FrameDecoder()
            assert decoder.feed(frame[:cut]) == []
            assert decoder.feed(frame[cut:]) == [GOOD[1]]
            assert decoder.buffered == 0


#: The attribute domain (what ``table_spec`` lets into a snapshot), with
#: the values an encoding is most likely to bend.
_values = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**70, 0]),
    st.booleans(),
    st.floats(allow_nan=False),
    st.sampled_from([-0.0, 1e308, float("inf")]),
    st.text(),
    st.sampled_from(["", "absent", "né", "null"]),
    st.none(),
    st.fractions(),
)
_ticks = st.one_of(st.integers(min_value=0, max_value=RAW_INFINITY - 1),
                   st.none())
_prevs = st.one_of(_ticks, st.just("absent"))


def _typed(values):
    """``values`` with each one's type: ``True == 1`` and ``-0.0 == 0.0``,
    so equality alone would let an encoding swap them."""
    return [(type(value), repr(value)) for value in values]


class TestValues:
    """The value domain round-trips with its types, whichever payload
    carried it."""

    @given(row=st.lists(_values, min_size=1, max_size=5), texp=_ticks,
           prev=_prevs, txn=st.one_of(st.none(), st.integers(1, 2**32 - 1)),
           table=st.text(min_size=1, max_size=12))
    def test_records_round_trip_and_the_two_decoders_agree(
        self, row, texp, prev, txn, table
    ):
        for record in (
            {"kind": "upsert", "table": table, "row": tuple(row),
             "texp": texp, "prev": prev},
            {"kind": "remove", "table": table, "row": tuple(row),
             "prev": prev},
        ):
            if txn is not None:
                record["txn"] = txn
            packed = encode_record(record, LIMIT)
            as_json = encode_frame(record, LIMIT)
            assert packed[HEADER.size] != ord("{") == as_json[HEADER.size]
            for frame in (packed, as_json):
                decoded, end = decode_record(frame, 0, LIMIT)
                assert end == len(frame)
                assert decoded == record
                assert _typed(decoded["row"]) == _typed(row)
                assert type(decoded["row"]) is tuple

    @given(rows=st.lists(st.tuples(_values, _values), max_size=6),
           ticks=st.lists(st.integers(0, RAW_INFINITY), min_size=6, max_size=6))
    def test_segments_round_trip(self, rows, ticks):
        ticks = array("q", ticks[:len(rows)])
        columns = [list(column) for column in zip(*rows)] or [[], []]
        frame = encode_segment(7, ticks, columns, LIMIT)
        segment, end = decode_record(frame, 0, LIMIT)
        assert end == len(frame)
        assert (segment["kind"], segment["table"]) == ("segment", 7)
        assert segment["ticks"] == ticks
        assert [_typed(c) for c in segment["columns"]] == [
            _typed(c) for c in columns
        ]
        assert list(zip(*segment["columns"])) == rows

    def test_which_form_a_row_and_a_column_take(self):
        def form(row):
            frame = encode_record(
                {"kind": "remove", "table": "T", "row": row}, LIMIT
            )
            return chr(frame[HEADER.size + 23 + 1])

        assert form((1, -(2**63), 2**63 - 1)) == "q"
        assert form((True, 1)) == "j"  # or True would come back as 1
        assert form((2**70,)) == "j"
        assert form((2**63,)) == "j"
        assert form((1, "1")) == "j"
        assert form((1.0,)) == "j"
        back, _ = decode_record(encode_record(
            {"kind": "remove", "table": "T", "row": (True, 1)}, LIMIT
        ), 0, LIMIT)
        assert _typed(back["row"]) == _typed((True, 1))
        # One ``str`` among ints: the whole column is JSON, its neighbour
        # stays an array.
        frame = encode_segment(
            0, array("q", [1, 2]), [[1, "x"], [3, 4]], LIMIT
        )
        columns = decode_record(frame, 0, LIMIT)[0]["columns"]
        assert columns == [[1, "x"], array("q", [3, 4])]

    def test_what_the_packed_layout_cannot_hold_is_refused(self):
        for field, value in (("texp", RAW_INFINITY), ("texp", -1),
                             ("prev", 2**64), ("txn", 2**32)):
            record = {"kind": "upsert", "table": "T", "row": (1,),
                      "texp": 5, "prev": "absent", field: value}
            with pytest.raises(FrameError):
                encode_record(record, LIMIT)
        with pytest.raises(FrameError, match="packed layout"):
            encode_record({"kind": "remove", "table": "T" * 70_000,
                           "row": (1,)}, LIMIT)


class TestBlocks:
    """The wire's relations: a message whose :class:`Block` and
    :class:`Rows` fields ship once, packed, after its other fields' JSON."""

    @given(rows=st.lists(st.tuples(_values, _values), max_size=6),
           ticks=st.lists(_ticks, min_size=6, max_size=6),
           other=st.lists(st.tuples(st.integers(-(2**63), 2**63 - 1)),
                          max_size=3))
    def test_blocks_round_trip_with_their_types(self, rows, ticks, other):
        items = Block(zip(rows, map(ts, ticks)))
        payload = {"kind": "patch", "sub": 1, "now": None,
                   "upserts": items, "removes": Rows(other)}
        frame = encode_frame(payload, LIMIT)
        assert frame[HEADER.size] == 4
        decoded, end = decode_frame(frame, 0, LIMIT)
        assert end == len(frame)
        assert decoded == payload
        assert type(decoded["upserts"]) is Block
        for got, sent in zip(decoded["upserts"], items):
            assert _typed(got[0]) == _typed(sent[0])
            assert type(got[0]) is tuple and type(got[1]) is Timestamp
        assert type(decoded["removes"]) is Rows
        assert all(type(row) is tuple for row in decoded["removes"])
        assert FrameDecoder().feed(protocol.encode_frame(payload)) == [payload]

    def test_the_forms_a_block_takes(self):
        blocks = {
            "ints": Block([((1, -(2**63)), ts(3)), ((2, 2**63 - 1), INFINITY)]),
            "big": Block([((2**63, 1),), ((2**70, 2),)]),
            "mixed": Block([(("é''x", Fraction(1, 3)), ts(0)),
                            ((True, 1.5), ts(9))]),
            "empty": Block(),
            "nullary": Block([((), ts(4))]),
            "rows": Rows([(1, "é"), (2**70, Fraction(1, 3))]),
            "no_rows": Rows(),
            "nullary_rows": Rows([()]),
        }
        blocks["big"] = Block((row, ts(7)) for (row,) in blocks["big"])
        payload = {"kind": "result", "re": 1, **blocks}
        decoded, _ = decode_frame(encode_frame(payload, LIMIT), 0, LIMIT)
        assert decoded == payload
        for name, block in blocks.items():
            assert type(decoded[name]) is type(block), name
            rows = block if type(block) is Rows else [row for row, _ in block]
            got = decoded[name] if type(block) is Rows else [
                row for row, _ in decoded[name]
            ]
            assert list(map(_typed, got)) == list(map(_typed, rows)), name

    def test_a_message_without_blocks_is_json_as_before(self):
        payload = {"kind": "result", "items": [[[1], 5]], "rows": [[1]]}
        frame = encode_frame(payload, LIMIT)
        assert frame[HEADER.size:] == b'{"items":[[[1],5]],"kind":"result","rows":[[1]]}'
        assert decode_frame(frame, 0, LIMIT)[0] == payload

    def test_what_a_block_cannot_carry_is_refused(self):
        # A finite tick at the ∞ sentinel is refused where it would be
        # made, so no block can be handed one to encode.
        with pytest.raises(TimeError):
            Block([((1,), ts(RAW_INFINITY))])

    def test_the_control_part_is_a_messages_json(self):
        payload = {"kind": "patch", "now": Fraction(1, 2), "upserts": Block()}
        frame = encode_frame(payload, LIMIT)
        assert b'{"kind":"patch","now":{"$fraction":[1,2]}}' in frame
        assert decode_frame(frame, 0, LIMIT)[0] == payload


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
