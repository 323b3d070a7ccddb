"""Tests for the SQL lexer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SqlLexError
from repro.sql.lexer import tokenize
from repro.sql.tokens import KEYWORDS, TokenType


def kinds(text):
    return [(t.type, t.value) for t in tokenize(text) if t.type is not TokenType.EOF]


class TestTokens:
    def test_keywords_case_insensitive(self):
        assert kinds("select SELECT Select") == [
            (TokenType.KEYWORD, "SELECT"),
            (TokenType.KEYWORD, "SELECT"),
            (TokenType.KEYWORD, "SELECT"),
        ]

    def test_identifiers_keep_case(self):
        assert kinds("Pol my_table _x9") == [
            (TokenType.IDENT, "Pol"),
            (TokenType.IDENT, "my_table"),
            (TokenType.IDENT, "_x9"),
        ]

    def test_integers_and_floats(self):
        assert kinds("42 3.5") == [
            (TokenType.NUMBER, 42),
            (TokenType.NUMBER, 3.5),
        ]

    def test_integer_then_dot(self):
        # "P.deg" style qualification: dot stays a symbol after an ident.
        assert kinds("P.deg") == [
            (TokenType.IDENT, "P"),
            (TokenType.SYMBOL, "."),
            (TokenType.IDENT, "deg"),
        ]

    def test_strings(self):
        assert kinds("'hello'") == [(TokenType.STRING, "hello")]

    def test_string_escaping(self):
        assert kinds("'it''s'") == [(TokenType.STRING, "it's")]

    def test_unterminated_string(self):
        with pytest.raises(SqlLexError):
            tokenize("'oops")

    def test_symbols(self):
        assert [v for _, v in kinds("<= >= != <> = < > ( ) , ; *")] == [
            "<=", ">=", "!=", "!=", "=", "<", ">", "(", ")", ",", ";", "*",
        ]

    def test_comments_skipped(self):
        assert kinds("SELECT -- comment\n1") == [
            (TokenType.KEYWORD, "SELECT"),
            (TokenType.NUMBER, 1),
        ]

    def test_unknown_character(self):
        with pytest.raises(SqlLexError) as info:
            tokenize("SELECT @")
        assert info.value.position == 7

    def test_eof_token(self):
        tokens = tokenize("x")
        assert tokens[-1].type is TokenType.EOF

    def test_positions(self):
        tokens = tokenize("SELECT deg")
        assert tokens[0].position == 0
        assert tokens[1].position == 7


class TestEdges:
    """Inputs where a scanner written with ``\\s``, ``\\d`` or a greedy
    closing quote would diverge from the dialect."""

    @pytest.mark.parametrize("text, offset", [
        ("SELECT\x0bk", 6),  # vertical tab is not whitespace here
        ("SELECT\fk", 6),
        ("SELECT\xa0k", 6),
        ("SELECT ٣", 7),  # a non-ASCII digit is not a digit
        ("é", 0),
        ("x - 1", 2),  # a lone minus is not a comment
    ])
    def test_unexpected_characters(self, text, offset):
        with pytest.raises(SqlLexError) as info:
            tokenize(text)
        assert info.value.position == offset
        assert str(info.value) == (
            f"unexpected character {text[offset]!r} (at offset {offset})"
        )

    @pytest.mark.parametrize("text, offset", [
        ("X_9'c''", 3),  # the offset is the opening quote's
        ("'oops", 0),
        ("SELECT 'a''", 7),
        ("'", 0),
    ])
    def test_unterminated_strings(self, text, offset):
        with pytest.raises(SqlLexError) as info:
            tokenize(text)
        assert info.value.position == offset
        assert str(info.value) == f"unterminated string literal (at offset {offset})"

    @pytest.mark.parametrize("text, expected", [
        ("91.5", [(TokenType.NUMBER, 91.5, 0)]),
        ("12.x", [(TokenType.NUMBER, 12, 0), (TokenType.SYMBOL, ".", 2),
                  (TokenType.IDENT, "x", 3)]),
        ("1..2", [(TokenType.NUMBER, 1, 0), (TokenType.SYMBOL, ".", 1),
                  (TokenType.SYMBOL, ".", 2), (TokenType.NUMBER, 2, 3)]),
        ("'it''s'", [(TokenType.STRING, "it's", 0)]),
        ("'''' 'a'", [(TokenType.STRING, "'", 0), (TokenType.STRING, "a", 5)]),
        ("a<>b", [(TokenType.IDENT, "a", 0), (TokenType.SYMBOL, "!=", 1),
                  (TokenType.IDENT, "b", 3)]),
        ("x--c\n<=--", [(TokenType.IDENT, "x", 0), (TokenType.SYMBOL, "<=", 5)]),
        ("007 1.50", [(TokenType.NUMBER, 7, 0), (TokenType.NUMBER, 1.5, 4)]),
    ])
    def test_tokens(self, text, expected):
        tokens = tokenize(text)
        assert [(t.type, t.value, t.position) for t in tokens[:-1]] == expected
        assert tokens[-1].type is TokenType.EOF
        assert tokens[-1].position == len(text)

    def test_integers_and_decimals_keep_their_types(self):
        values = [t.value for t in tokenize("1 1.0")[:-1]]
        assert [type(v) for v in values] == [int, float]


_SYMBOL_TEXTS = ("<=", ">=", "!=", "<>", "(", ")", ",", ";", "*", ".", "=", "<", ">")
_WORD = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
_BLANKS = st.from_regex(r"[ \t\r\n]{1,3}", fullmatch=True)
_COMMENT = st.text(alphabet=st.characters(blacklist_characters="\n"), max_size=8)


@st.composite
def lexemes(draw):
    """One ``(spelling, type, value)``."""
    kind = draw(st.sampled_from(
        ["ident", "keyword", "int", "decimal", "string", "symbol"]
    ))
    if kind == "ident":
        word = draw(_WORD.filter(lambda w: w.upper() not in KEYWORDS))
        return word, TokenType.IDENT, word
    if kind == "keyword":
        word = draw(st.sampled_from(sorted(KEYWORDS)))
        lower = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
        word = "".join(c.lower() if low else c for c, low in zip(word, lower))
        return word, TokenType.KEYWORD, word.upper()
    if kind == "int":
        text = draw(st.from_regex(r"[0-9]{1,12}", fullmatch=True))
        return text, TokenType.NUMBER, int(text)
    if kind == "decimal":
        text = draw(st.from_regex(r"[0-9]{1,6}\.[0-9]{1,6}", fullmatch=True))
        return text, TokenType.NUMBER, float(text)
    if kind == "string":
        value = draw(st.text(max_size=8))
        return "'" + value.replace("'", "''") + "'", TokenType.STRING, value
    symbol = draw(st.sampled_from(_SYMBOL_TEXTS))
    return symbol, TokenType.SYMBOL, "!=" if symbol == "<>" else symbol


@st.composite
def separators(draw, glued_ok):
    """Whitespace or a ``--`` comment; nothing at all where the two
    neighbours cannot run together."""
    kind = draw(st.sampled_from(["blank", "comment"] + (["none"] if glued_ok else [])))
    if kind == "none":
        return ""
    if kind == "blank":
        return draw(_BLANKS)
    return draw(st.sampled_from(["", " "])) + "--" + draw(_COMMENT) + "\n"


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), drawn=st.lists(lexemes(), max_size=12))
    def test_rendered_tokens_lex_back(self, data, drawn):
        text = data.draw(separators(glued_ok=False))
        for i, (spelling, kind, _) in enumerate(drawn):
            if i:
                # A string cannot run into a non-string neighbour.
                previous = drawn[i - 1][1]
                glued_ok = (previous is TokenType.STRING) != (kind is TokenType.STRING)
                text += data.draw(separators(glued_ok))
            text += spelling
        if drawn and data.draw(st.booleans()):
            text += "--" + data.draw(_COMMENT)  # a comment may end the input
        got = [(t.type, t.value) for t in tokenize(text)]
        assert got == [(kind, value) for _, kind, value in drawn] + [(TokenType.EOF, None)]
