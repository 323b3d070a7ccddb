"""The INSERT scan of ``parse_statements`` against the general front end.

``parse_statements`` reads an upper-case ``INSERT INTO t VALUES`` of
integer literals with one anchored match and hands every other text to
``parse_tokens(tokenize(text))``.  The two must agree on every text: the
same ``repr``, or the same error class and message.  The generated texts
sit on and near the scan's grammar -- lower case, tabs, newlines,
comments, ``;``, keywords as table names, decimals, negatives, Unicode
digits, strings, leading zeros and ints past Python's digit limit -- and
the statements the benchmark's served workloads send must all take the
scan, so that an edit that quietly sends them back to the lexer fails
here and not only in a timing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql.lexer import tokenize
from repro.sql.parser import _scan_insert, parse_statements, parse_tokens

#: Values the scan takes: ints, leading zeros, and ints at and past
#: Python's 4 300-digit int/str limit.
_BIG = "7" * 4301
_INTS = ["0", "7", "007", "00", "9223372036854775808", "4" * 4300, _BIG]
#: Values it must leave to the lexer.
_OTHERS = ["1.5", "1.", ".5", "-1", "- 1", "+1", "1e3", "1_000", "\u0663",
           "\uff11", "'a'", "''", "'it''s'", "'a,b'", "'a)'", "'(1)'", "NULL",
           "x", ""]


def outcome(parse, text):
    try:
        return repr(parse(text))
    except Exception as error:  # noqa: BLE001 -- the class is the answer
        return f"{type(error).__name__}: {error}"


def general(text):
    return parse_tokens(tokenize(text))


@st.composite
def near_inserts(draw):
    """Texts of the scan's grammar with a piece or two bent.

    Each piece is drawn from what the scan takes, and one time in 16
    from what it must leave to the lexer, so that about a quarter of the
    texts are the scan's and the rest sit one or two bends away."""

    def pick(good, bad):
        if draw(st.integers(0, 15)) != 5:
            return draw(st.sampled_from(good))
        return draw(st.sampled_from(bad))

    def blank(good=(" ",), bad=("", "\t", "\n", "\r\n", " -- c\n", "\x0b")):
        return pick(good + ("  ",), bad)

    def value():
        if draw(st.booleans()):
            return str(draw(st.integers(0, 10 ** 30)))
        return pick(_INTS, _OTHERS)

    def row():
        count = draw(st.integers(1, 4))
        values = [value() for _ in range(count if draw(st.integers(0, 15)) else 0)]
        separator = pick([", ", ",", " , "], [" ", ",\t", ";"])
        return (pick(["(", "( "], ["", "(("]) + separator.join(values)
                + pick([")", " )"], ["", "))", ",)"]))

    rows = pick([", ", ",", " ,  "], [" ", ";", ",,"]).join(
        row() for _ in range(draw(st.integers(1, 4))))
    expiry = ""
    if draw(st.booleans()):
        expiry = (blank(("", " ")) + pick(["EXPIRES"], ["expires", "EXPIRE"])
                  + blank() + pick(["IN", "AT"], ["in", "BY", "at"])
                  + blank() + value())
    return (pick(["", " "], ["\n", "\t", "-- c\n"])
            + pick(["INSERT"], ["insert", "Insert"]) + blank()
            + pick(["INTO"], ["into", "Into"]) + blank()
            + pick(["W", "t_1", "_x", "w2", "Pol"],
                   ["select", "Values", "INTO", "expires", "9t", "W.k",
                    "\u00e9", "in"])
            + blank() + pick(["VALUES"], ["values", "VALUE"])
            + blank(("", " ")) + rows
            + pick(["", " "], [";", "\n", " -- done", "  ; ", "; TICK"]))


@settings(max_examples=1500, deadline=None)
@given(near_inserts())
def test_the_scan_parses_as_the_general_front_end(text):
    assert outcome(parse_statements, text) == outcome(general, text)


@pytest.mark.parametrize("text", [
    "INSERT INTO W VALUES (1, 2), (3) EXPIRES IN 5",
    " INSERT  INTO t_1 VALUES(007,0)EXPIRES AT 9 ",
    "INSERT INTO W VALUES (1), (2)",
])
def test_the_scan_takes_integer_inserts(text):
    assert _scan_insert(text) is not None
    assert outcome(parse_statements, text) == outcome(general, text)


def test_an_int_past_the_digit_limit_raises_as_the_lexer_raises():
    text = "INSERT INTO W VALUES (1, " + _BIG + ") EXPIRES IN " + _BIG
    with pytest.raises(ValueError, match="4301 digits"):
        _scan_insert(text)
    assert outcome(parse_statements, text) == outcome(general, text)


@pytest.mark.parametrize("text", [
    "INSERT INTO W VALUES (٣)",  # a Unicode digit
    "INSERT INTO W VALUES (1)\n",  # a trailing newline
    "INSERT INTO select VALUES (1)",  # a keyword as the table name
    "INSERT INTO Values VALUES (1)",
    "insert into W values (1)",  # lower-case keywords
    "INSERT INTO W VALUES (1) expires in 5",
    "INSERT INTO W VALUES (1) -- a comment",
    "INSERT INTO W VALUES (1)\tEXPIRES IN 5",
    "INSERT INTO W\nVALUES (1)",
    "INSERT INTO W VALUES (1);",
    "INSERT INTO W VALUES (1.5)",
    "INSERT INTO W VALUES (1.)",
    "INSERT INTO W VALUES (-1)",
    "INSERT INTO W VALUES (1) EXPIRES IN -1",
    "INSERT INTO W VALUES ('a')",
    "INSERT INTO W VALUES ('a,b', 1)",
    "INSERT INTO W VALUES ('a)', 1)",
    "INSERT INTO W VALUES ('')",
    "INSERT INTO W VALUES ()",
    "INSERT INTO W SELECT k FROM V",
])
def test_the_scan_leaves_everything_else_to_the_lexer(text):
    assert _scan_insert(text) is None
    assert outcome(parse_statements, text) == outcome(general, text)


def _served_inserts():
    from benchmarks.suite import generate

    texts = []
    for seed in (1, 2):
        read = generate.served_read(seed, 1.0)
        texts += read["load"] + read["warmup"] + read["ops"]
        write = generate.served_write(seed, 1.0)
        texts += write["load"] + [sql for sql, _ in write["ops"]]
    return [text for text in texts if text.startswith("INSERT")]


def test_every_served_insert_takes_the_scan():
    texts = _served_inserts()
    assert len(texts) > 1000
    for text in texts:
        scanned = _scan_insert(text)
        assert scanned is not None, text
        assert repr([scanned]) == repr(general(text)), text
