"""Recursive-descent parser for the SQL subset.

See :mod:`repro.sql.ast` for the grammar.  The parser is strict about the
supported dialect and raises :class:`~repro.errors.SqlParseError` with the
offending token position; deliberately unsupported features (outer joins,
NULLs) raise :class:`~repro.errors.UnsupportedSqlError`.

:func:`parse_statements` first tries one anchored match for the served
write path's statement, an upper-case ``INSERT .. VALUES`` of integer
literals (:func:`_scan_insert`); every other text is lexed and parsed.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple, Union

from repro.errors import SqlParseError, UnsupportedSqlError
from repro.sql.ast import (
    AdvanceTime,
    AggregateCall,
    AndCondition,
    ColumnRef,
    CompareCondition,
    Condition,
    CreateTable,
    CreateView,
    DeleteStatement,
    DescribeStatement,
    DropTable,
    DropView,
    ExplainStatement,
    InCondition,
    InsertStatement,
    JoinClause,
    NotCondition,
    OrCondition,
    OrderItem,
    OverrideStatement,
    QueryNode,
    RenewStatement,
    SelectItem,
    SelectQuery,
    SetOperation,
    ShowTables,
    ShowViews,
    Star,
    Statement,
    TableSource,
    VacuumStatement,
)
from repro.sql.lexer import tokenize
from repro.sql.tokens import KEYWORDS, Token, TokenType

__all__ = ["parse_sql", "parse_statements"]

_AGGREGATE_KEYWORDS = ("COUNT", "MIN", "MAX", "SUM", "AVG")
_COMPARE_OPS = ("=", "!=", "<", "<=", ">", ">=")

_IDENT = TokenType.IDENT
_KEYWORD = TokenType.KEYWORD
_NUMBER = TokenType.NUMBER
_STRING = TokenType.STRING
_SYMBOL = TokenType.SYMBOL
_EOF = TokenType.EOF


class _Parser:
    """A cursor over the token list.  Tokens are tuples read as
    ``token[0]`` (type) and ``token[1]`` (value).  The EOF token is last
    and the cursor never moves past it, so the current token is always
    ``self._tokens[self._pos]``, and the one after any other token is in
    bounds too."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- cursor helpers -------------------------------------------------------

    def _error(self, message: str) -> SqlParseError:
        token = self._tokens[self._pos]
        return SqlParseError(f"{message} (near {token[1]!r}, offset {token[2]})")

    def _at_keyword(self, *names: str) -> bool:
        token = self._tokens[self._pos]
        return token[0] is _KEYWORD and token[1] in names

    def _at_keywords(self, first: str, second: str) -> bool:
        """The current token is keyword ``first`` and the next ``second``."""
        token = self._tokens[self._pos]
        if token[0] is not _KEYWORD or token[1] != first:
            return False
        following = self._tokens[self._pos + 1]
        return following[0] is _KEYWORD and following[1] == second

    def _expect_keyword(self, *names: str) -> Token:
        token = self._tokens[self._pos]
        if token[0] is not _KEYWORD or token[1] not in names:
            raise self._error(f"expected {' or '.join(names)}")
        self._pos += 1
        return token

    def _expect_symbol(self, symbol: str) -> Token:
        token = self._tokens[self._pos]
        if token[0] is not _SYMBOL or token[1] != symbol:
            raise self._error(f"expected {symbol!r}")
        self._pos += 1
        return token

    def _expect_ident(self) -> str:
        token = self._tokens[self._pos]
        if token[0] is not _IDENT:
            raise self._error("expected an identifier")
        self._pos += 1
        return token[1]

    def _expect_int(self) -> int:
        token = self._tokens[self._pos]
        if token[0] is not _NUMBER or not isinstance(token[1], int):
            raise self._error("expected an integer")
        self._pos += 1
        return token[1]

    def _accept_keyword(self, *names: str) -> bool:
        token = self._tokens[self._pos]
        if token[0] is _KEYWORD and token[1] in names:
            self._pos += 1
            return True
        return False

    def _accept_symbol(self, symbol: str) -> bool:
        token = self._tokens[self._pos]
        if token[0] is _SYMBOL and token[1] == symbol:
            self._pos += 1
            return True
        return False

    # -- entry points -----------------------------------------------------------

    def parse_all(self) -> List[Statement]:
        statements: List[Statement] = []
        while self._tokens[self._pos][0] is not _EOF:
            statements.append(self.parse_statement())
            while self._accept_symbol(";"):
                pass
        return statements

    def parse_statement(self) -> Statement:
        token = self._tokens[self._pos]
        parse = _STATEMENTS.get(token[1]) if token[0] is _KEYWORD else None
        if parse is None:
            raise self._error("expected a statement")
        return parse(self)

    def _parse_tick(self) -> AdvanceTime:
        self._pos += 1
        return AdvanceTime(by=1)

    def _parse_vacuum(self) -> VacuumStatement:
        self._pos += 1
        name = None
        if self._tokens[self._pos][0] is _IDENT:
            name = self._expect_ident()
        return VacuumStatement(table=name)

    def _parse_describe(self) -> DescribeStatement:
        self._pos += 1
        return DescribeStatement(name=self._expect_ident())

    def _parse_explain(self) -> ExplainStatement:
        self._pos += 1
        analyze = self._accept_keyword("ANALYZE")
        return ExplainStatement(query=self._parse_query(), analyze=analyze)

    def _parse_renew(self) -> RenewStatement:
        return self._parse_retime(RenewStatement)

    def _parse_override(self) -> OverrideStatement:
        # The dialect's UPDATE touches only expirations (the one mutable
        # "column" the model adds); value updates stay delete+insert.
        return self._parse_retime(OverrideStatement)

    def _parse_retime(self, node):
        """``RENEW|UPDATE table EXPIRES (AT|IN) n [WHERE condition]``."""
        self._pos += 1
        table = self._expect_ident()
        self._expect_keyword("EXPIRES")
        expires_at, ttl = self._parse_expiry()
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_condition()
        return node(table=table, expires_at=expires_at, ttl=ttl, where=where)

    def _parse_expiry(self) -> Tuple[Optional[int], Optional[int]]:
        """``AT n`` or ``IN n`` after ``EXPIRES``, as ``(expires_at, ttl)``."""
        if self._accept_keyword("AT"):
            return self._expect_int(), None
        if self._accept_keyword("IN"):
            return None, self._expect_int()
        raise self._error("expected AT or IN after EXPIRES")

    # -- DDL ------------------------------------------------------------------------

    def _parse_create(self) -> Statement:
        self._expect_keyword("CREATE")
        if self._accept_keyword("TABLE"):
            name = self._expect_ident()
            if self._accept_keyword("AS"):
                return CreateTable(name=name, query=self._parse_query())
            self._expect_symbol("(")
            columns = [self._expect_ident()]
            while self._accept_symbol(","):
                columns.append(self._expect_ident())
            self._expect_symbol(")")
            partitions = None
            partition_key = None
            layout = "row"
            while True:
                if partitions is None and self._accept_keyword("PARTITION"):
                    self._expect_keyword("BY")
                    self._expect_keyword("HASH")
                    self._expect_symbol("(")
                    partition_key = self._expect_ident()
                    self._expect_symbol(")")
                    self._expect_keyword("PARTITIONS")
                    partitions = self._expect_int()
                elif layout == "row" and self._accept_keyword("LAYOUT"):
                    self._expect_keyword("COLUMNAR")
                    layout = "columnar"
                else:
                    break
            return CreateTable(
                name=name,
                columns=tuple(columns),
                partitions=partitions,
                partition_key=partition_key,
                layout=layout,
            )
        if self._accept_keyword("MATERIALIZED"):
            self._expect_keyword("VIEW")
            name = self._expect_ident()
            self._expect_keyword("AS")
            query = self._parse_query()
            policy = None
            if self._accept_keyword("WITH"):
                self._expect_keyword("POLICY")
                policy_token = self._expect_keyword(
                    "RECOMPUTE", "PATCH", "SCHRODINGER", "DELTA"
                )
                policy = policy_token[1].lower()
            return CreateView(name=name, query=query, policy=policy)
        if self._at_keyword("VIEW"):
            raise UnsupportedSqlError(
                "only MATERIALIZED views are supported "
                "(the paper's maintenance story is about materialisation)"
            )
        raise self._error("expected TABLE or MATERIALIZED VIEW after CREATE")

    def _parse_drop(self) -> Statement:
        self._expect_keyword("DROP")
        if self._accept_keyword("TABLE"):
            return DropTable(name=self._expect_ident())
        if self._accept_keyword("VIEW"):
            return DropView(name=self._expect_ident())
        raise self._error("expected TABLE or VIEW after DROP")

    def _parse_show(self) -> Statement:
        self._expect_keyword("SHOW")
        if self._accept_keyword("TABLES"):
            return ShowTables()
        if self._accept_keyword("VIEWS"):
            return ShowViews()
        raise self._error("expected TABLES or VIEWS after SHOW")

    def _parse_advance(self) -> Statement:
        self._expect_keyword("ADVANCE")
        if self._accept_keyword("TO"):
            return AdvanceTime(to=self._expect_int())
        if self._accept_keyword("BY"):
            return AdvanceTime(by=self._expect_int())
        raise self._error("expected TO or BY after ADVANCE")

    # -- DML ----------------------------------------------------------------------------

    def _parse_insert(self) -> InsertStatement:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._expect_ident()
        rows: List[Tuple[object, ...]] = []
        query = None
        if self._accept_keyword("VALUES"):
            rows.append(self._parse_value_row())
            while self._accept_symbol(","):
                rows.append(self._parse_value_row())
        elif self._at_keyword("SELECT"):
            query = self._parse_query()
        else:
            raise self._error("expected VALUES or SELECT after INSERT INTO")
        expires_at: Optional[int] = None
        ttl: Optional[int] = None
        if self._accept_keyword("EXPIRES"):
            expires_at, ttl = self._parse_expiry()
        return InsertStatement(
            table=table, rows=tuple(rows), query=query,
            expires_at=expires_at, ttl=ttl,
        )

    def _parse_value_row(self) -> Tuple[object, ...]:
        """``( literal [, literal]* )``: the body of every ``INSERT ..
        VALUES``, read in one local loop (no literal is the EOF token, so
        the token after one is in bounds)."""
        self._expect_symbol("(")
        tokens = self._tokens
        pos = self._pos
        values = []
        while True:
            token = tokens[pos]
            if token[0] is not _NUMBER and token[0] is not _STRING:
                self._pos = pos
                raise self._error("expected a number or string literal")
            values.append(token[1])
            token = tokens[pos + 1]
            if token[0] is not _SYMBOL or token[1] != ",":
                break
            pos += 2
        self._pos = pos + 1
        self._expect_symbol(")")
        return tuple(values)

    def _parse_delete(self) -> DeleteStatement:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._expect_ident()
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_condition()
        return DeleteStatement(table=table, where=where)

    # -- queries ------------------------------------------------------------------------------

    def _parse_query(self) -> QueryNode:
        left: QueryNode = self._parse_select_block()
        while True:
            token = self._tokens[self._pos]
            if token[0] is _KEYWORD and token[1] in ("UNION", "EXCEPT", "INTERSECT"):
                self._pos += 1
                if self._at_keyword("ALL"):
                    raise UnsupportedSqlError(
                        "UNION/EXCEPT ALL: the model is set-based (SPCU)"
                    )
                right = self._parse_select_block()
                left = SetOperation(operator=token[1].lower(), left=left, right=right)
            else:
                return left

    def _parse_select_block(self) -> SelectQuery:
        self._expect_keyword("SELECT")
        items = [self._parse_select_item()]
        while self._accept_symbol(","):
            items.append(self._parse_select_item())
        self._expect_keyword("FROM")
        source = self._parse_source()
        joins: List[JoinClause] = []
        while True:
            if self._at_keyword("LEFT", "RIGHT", "FULL", "OUTER"):
                raise UnsupportedSqlError(
                    "outer joins introduce nulls, which the paper's model "
                    "deliberately excludes (Section 2.4); use JOIN"
                )
            if not self._accept_keyword("JOIN"):
                break
            join_source = self._parse_source()
            self._expect_keyword("ON")
            condition = self._parse_condition()
            joins.append(JoinClause(source=join_source, condition=condition))
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_condition()
        group_by: List[ColumnRef] = []
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_column_ref())
            while self._accept_symbol(","):
                group_by.append(self._parse_column_ref())
        having = None
        if self._accept_keyword("HAVING"):
            having = self._parse_condition()
        order_by: List[OrderItem] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self._accept_symbol(","):
                order_by.append(self._parse_order_item())
        limit = None
        if self._accept_keyword("LIMIT"):
            limit = self._expect_int()
        strategy = None
        if self._at_keywords("WITH", "STRATEGY"):
            self._pos += 2
            strategy = self._expect_ident().lower()
        return SelectQuery(
            items=tuple(items),
            source=source,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            strategy=strategy,
        )

    def _parse_order_item(self) -> OrderItem:
        column = self._parse_column_ref()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        elif self._accept_keyword("ASC"):
            descending = False
        return OrderItem(column=column, descending=descending)

    def _parse_source(self) -> TableSource:
        name = self._expect_ident()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_ident()
        elif self._tokens[self._pos][0] is _IDENT:
            alias = self._expect_ident()
        return TableSource(name=name, alias=alias)

    def _parse_select_item(self) -> SelectItem:
        if self._accept_symbol("*"):
            return SelectItem(expression=Star())
        if self._at_keyword(*_AGGREGATE_KEYWORDS):
            call = self._parse_aggregate_call()
            alias = self._parse_optional_alias()
            return SelectItem(expression=call, alias=alias)
        column = self._parse_column_ref()
        alias = self._parse_optional_alias()
        return SelectItem(expression=column, alias=alias)

    def _parse_optional_alias(self) -> Optional[str]:
        if self._accept_keyword("AS"):
            return self._expect_ident()
        return None

    def _parse_aggregate_call(self) -> AggregateCall:
        function = self._tokens[self._pos][1].lower()  # the aggregate keyword
        self._pos += 1
        self._expect_symbol("(")
        argument: Optional[ColumnRef]
        if self._accept_symbol("*"):
            if function != "count":
                raise self._error(f"{function}(*) is not valid; name a column")
            argument = None
        else:
            argument = self._parse_column_ref()
        self._expect_symbol(")")
        return AggregateCall(function=function, argument=argument)

    def _parse_column_ref(self) -> ColumnRef:
        first = self._expect_ident()
        if self._accept_symbol("."):
            return ColumnRef(name=self._expect_ident(), qualifier=first)
        return ColumnRef(name=first)

    # -- conditions ------------------------------------------------------------------------------

    def _parse_condition(self) -> Condition:
        return self._parse_or()

    def _parse_or(self) -> Condition:
        parts = [self._parse_and()]
        while self._accept_keyword("OR"):
            parts.append(self._parse_and())
        if len(parts) == 1:
            return parts[0]
        return OrCondition(parts=tuple(parts))

    def _parse_and(self) -> Condition:
        parts = [self._parse_not()]
        while self._accept_keyword("AND"):
            parts.append(self._parse_not())
        if len(parts) == 1:
            return parts[0]
        return AndCondition(parts=tuple(parts))

    def _parse_not(self) -> Condition:
        if self._accept_keyword("NOT"):
            return NotCondition(part=self._parse_not())
        if self._accept_symbol("("):
            inner = self._parse_condition()
            self._expect_symbol(")")
            return inner
        return self._parse_comparison()

    def _parse_comparison(self) -> Condition:
        left = self._parse_operand()
        # column [NOT] IN (SELECT ...)
        if isinstance(left, ColumnRef):
            negated = False
            if self._at_keywords("NOT", "IN"):
                self._pos += 2
                negated = True
            elif not self._accept_keyword("IN"):
                return self._finish_comparison(left)
            self._expect_symbol("(")
            subquery = self._parse_query()
            self._expect_symbol(")")
            return InCondition(column=left, query=subquery, negated=negated)
        return self._finish_comparison(left)

    def _finish_comparison(self, left) -> CompareCondition:
        token = self._tokens[self._pos]
        if token[0] is not _SYMBOL or token[1] not in _COMPARE_OPS:
            raise self._error("expected a comparison operator")
        self._pos += 1
        right = self._parse_operand()
        return CompareCondition(left=left, op=token[1], right=right)

    def _parse_operand(self) -> Union[ColumnRef, "AggregateCall", int, float, str]:
        token = self._tokens[self._pos]
        kind = token[0]
        if kind is _NUMBER or kind is _STRING:
            self._pos += 1
            return token[1]
        if kind is _KEYWORD and token[1] in _AGGREGATE_KEYWORDS:
            # Aggregate operands are only meaningful in HAVING; the planner
            # rejects them elsewhere with a clear error.
            return self._parse_aggregate_call()
        if kind is _IDENT:
            return self._parse_column_ref()
        raise self._error("expected a column reference, aggregate, or literal")


_STATEMENTS = {
    "CREATE": _Parser._parse_create,
    "INSERT": _Parser._parse_insert,
    "DELETE": _Parser._parse_delete,
    "SELECT": _Parser._parse_query,
    "DROP": _Parser._parse_drop,
    "SHOW": _Parser._parse_show,
    "ADVANCE": _Parser._parse_advance,
    "TICK": _Parser._parse_tick,
    "VACUUM": _Parser._parse_vacuum,
    "RENEW": _Parser._parse_renew,
    "UPDATE": _Parser._parse_override,
    "DESCRIBE": _Parser._parse_describe,
    "EXPLAIN": _Parser._parse_explain,
}


#: One value row of the scan: integer literals only.
_INT_ROW = r"\( *[0-9]+(?: *, *[0-9]+)* *\)"
#: ``INSERT INTO t VALUES (int, ..), .. [EXPIRES IN|AT int]``, keywords in
#: upper case and blanks that are spaces.  ``[0-9]`` and ``\Z``, not ``\d``
#: and ``$``: a Unicode digit or a trailing newline is for the lexer.
_INSERT_INTS = re.compile(
    r" *INSERT +INTO +([A-Za-z_][A-Za-z0-9_]*) +VALUES *"
    rf"({_INT_ROW}(?: *, *{_INT_ROW})*)"
    r"(?: *EXPIRES +(IN|AT) +([0-9]+))? *\Z"
).match
_ROW_BODIES = re.compile(r"\(([^)]*)\)").findall


def _scan_insert(text: str) -> Optional[InsertStatement]:
    """The statement of an ``INSERT .. VALUES`` of integer literals, read
    by one anchored match, or ``None``: lex and parse ``text``.

    The served write path's statement, every text distinct, at a fifth of
    the general path's cost.  What the match takes, the lexer and parser
    would read as the same :class:`InsertStatement` (a table name that is
    a keyword is theirs to refuse); ``int`` converts the literals in text
    order, as the lexer does, so an int past Python's digit limit raises
    the same ``ValueError``.
    """
    match = _INSERT_INTS(text)
    if match is None:
        return None
    table, rows, unit, number = match.groups()
    if table.upper() in KEYWORDS:
        return None
    rows = tuple([tuple(map(int, body.split(","))) for body in _ROW_BODIES(rows)])
    if unit is None:
        return InsertStatement(table=table, rows=rows)
    if unit == "IN":
        return InsertStatement(table=table, rows=rows, ttl=int(number))
    return InsertStatement(table=table, rows=rows, expires_at=int(number))


def parse_statements(text: str) -> List[Statement]:
    """Parse a ``;``-separated script into statements."""
    insert = _scan_insert(text)
    if insert is not None:
        return [insert]
    return parse_tokens(tokenize(text))


def parse_tokens(tokens: List[Token]) -> List[Statement]:
    """:func:`parse_statements` for a text already lexed by ``tokenize``."""
    return _Parser(tokens).parse_all()


def parse_sql(text: str) -> Statement:
    """Parse exactly one statement."""
    statements = parse_statements(text)
    if not statements:
        raise SqlParseError("empty statement")
    if len(statements) > 1:
        raise SqlParseError(
            f"expected one statement, got {len(statements)}; use parse_statements"
        )
    return statements[0]
