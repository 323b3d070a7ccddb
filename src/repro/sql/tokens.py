"""Token definitions for the SQL subset."""

from __future__ import annotations

import enum
from typing import Any, NamedTuple

__all__ = ["TokenType", "Token", "KEYWORDS"]


class TokenType(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    NUMBER = "number"
    STRING = "string"
    SYMBOL = "symbol"
    EOF = "eof"


#: Reserved words of the dialect (matched case-insensitively).
KEYWORDS = frozenset(
    {
        "ADVANCE",
        "ALL",
        "ANALYZE",
        "AND",
        "AS",
        "ASC",
        "AT",
        "AVG",
        "BY",
        "COLUMNAR",
        "COUNT",
        "CREATE",
        "DELETE",
        "DELTA",
        "DESC",
        "DESCRIBE",
        "DROP",
        "EXCEPT",
        "EXPIRES",
        "EXPLAIN",
        "FROM",
        "FULL",
        "GROUP",
        "HASH",
        "HAVING",
        "IN",
        "INSERT",
        "INTERSECT",
        "INTO",
        "JOIN",
        "LAYOUT",
        "LEFT",
        "LIMIT",
        "MATERIALIZED",
        "MAX",
        "MIN",
        "NOT",
        "ON",
        "OR",
        "ORDER",
        "OUTER",
        "PARTITION",
        "PARTITIONS",
        "PATCH",
        "POLICY",
        "RECOMPUTE",
        "RENEW",
        "RIGHT",
        "SCHRODINGER",
        "SELECT",
        "SHOW",
        "STRATEGY",
        "SUM",
        "TABLE",
        "TABLES",
        "TICK",
        "TO",
        "UNION",
        "UPDATE",
        "VACUUM",
        "VALUES",
        "VIEW",
        "VIEWS",
        "WHERE",
        "WITH",
    }
)


class Token(NamedTuple):
    """One lexical token with its source offset (for error messages).

    A plain tuple, so the lexer builds each one with ``tuple.__new__`` and
    the parser reads ``token[0]`` / ``token[1]`` without an attribute
    lookup."""

    type: TokenType
    value: Any
    position: int

    def __repr__(self) -> str:
        return f"Token({self.type.value}, {self.value!r}@{self.position})"
