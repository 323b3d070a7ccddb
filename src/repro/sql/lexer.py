"""The lexer for the SQL subset: one compiled regex, one pass.

Recognises identifiers (optionally ``qualified.names`` as separate tokens
joined by a ``.`` symbol), integer and decimal literals, single-quoted
strings with ``''`` escaping, the comparison and punctuation symbols, and
``--`` line comments.  Keywords are case-insensitive and normalised to
upper case; identifiers keep their original spelling; ``<>`` becomes
``!=``.

:data:`_SCAN` has one named group per token class, tried in the order
the served workloads meet them: integers, symbols, words, blanks and
comments, decimals, strings, then the two errors -- a quote that opens no
terminated string, and any other single character.  Blanks are exactly
``[ \\t\\r\\n]`` and digits ``[0-9]`` (``\\s`` and ``\\d`` would admit
``\\x0b`` or ``\\u0663``).  An integer may not be followed by a digit or by
``.digit`` (so ``91.5`` is one decimal, not ``9`` and ``1.5``), and a
closing quote may not be followed by another (so an unterminated string
is reported at its opening quote).  Each token is built with
``tuple.__new__``: no Python-level constructor runs per lexeme.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import SqlLexError
from repro.sql.tokens import KEYWORDS, Token, TokenType

__all__ = ["tokenize"]

_SCAN = re.compile(
    r"(?P<int>[0-9]+(?![0-9]|\.[0-9]))"
    r"|(?P<symbol><=|>=|!=|<>|[(),;*.=<>])"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<skip>[ \t\r\n]+|--[^\n]*)"
    r"|(?P<decimal>[0-9]+\.[0-9]+)"
    r"|(?P<string>'[^']*(?:''[^']*)*'(?!'))"
    r"|(?P<quote>')"
    r"|(?P<other>.)",
    re.DOTALL,
).finditer

_NEW = tuple.__new__
_NUMBER = TokenType.NUMBER
_SYMBOL = TokenType.SYMBOL
_KEYWORD = TokenType.KEYWORD
_IDENT = TokenType.IDENT


def tokenize(text: str) -> List[Token]:
    """Tokenise ``text`` into a list ending in one EOF token; raises
    :class:`SqlLexError` (with the offending offset) on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    for match in _SCAN(text):
        kind = match.lastgroup
        if kind == "int":
            append(_NEW(Token, (_NUMBER, int(match.group()), match.start())))
        elif kind == "symbol":
            value = match.group()
            append(_NEW(Token, (_SYMBOL, "!=" if value == "<>" else value, match.start())))
        elif kind == "word":
            word = match.group()
            upper = word.upper()
            if upper in KEYWORDS:
                append(_NEW(Token, (_KEYWORD, upper, match.start())))
            else:
                append(_NEW(Token, (_IDENT, word, match.start())))
        elif kind == "skip":
            continue
        elif kind == "decimal":
            append(_NEW(Token, (_NUMBER, float(match.group()), match.start())))
        elif kind == "string":
            value = match.group()[1:-1].replace("''", "'")
            append(_NEW(Token, (TokenType.STRING, value, match.start())))
        elif kind == "quote":
            raise SqlLexError("unterminated string literal", match.start())
        else:
            raise SqlLexError(f"unexpected character {match.group()!r}", match.start())
    append(_NEW(Token, (TokenType.EOF, None, len(text))))
    return tokens
