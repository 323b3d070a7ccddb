"""Token definitions for the SQL subset."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

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


@dataclass(frozen=True)
class Token:
    """One lexical token with its source offset (for error messages)."""

    type: TokenType
    value: Any
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names

    def is_symbol(self, *symbols: str) -> bool:
        return self.type is TokenType.SYMBOL and self.value in symbols

    def __repr__(self) -> str:
        return f"Token({self.type.value}, {self.value!r}@{self.position})"
