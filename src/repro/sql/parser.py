"""Recursive-descent parser for the SQL subset.

See :mod:`repro.sql.ast` for the grammar.  The parser is strict about the
supported dialect and raises :class:`~repro.errors.SqlParseError` with the
offending token position; deliberately unsupported features (outer joins,
NULLs) raise :class:`~repro.errors.UnsupportedSqlError`.
"""

from __future__ import annotations

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
from repro.sql.tokens import Token, TokenType

__all__ = ["parse_sql", "parse_statements"]

_AGGREGATE_KEYWORDS = ("COUNT", "MIN", "MAX", "SUM", "AVG")
_COMPARE_OPS = ("=", "!=", "<", "<=", ">", ">=")


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- cursor helpers -------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _error(self, message: str) -> SqlParseError:
        token = self._peek()
        return SqlParseError(f"{message} (near {token.value!r}, offset {token.position})")

    def _expect_keyword(self, *names: str) -> Token:
        token = self._peek()
        if not token.is_keyword(*names):
            raise self._error(f"expected {' or '.join(names)}")
        return self._advance()

    def _expect_symbol(self, symbol: str) -> Token:
        token = self._peek()
        if not token.is_symbol(symbol):
            raise self._error(f"expected {symbol!r}")
        return self._advance()

    def _expect_ident(self) -> str:
        token = self._peek()
        if token.type is not TokenType.IDENT:
            raise self._error("expected an identifier")
        self._advance()
        return token.value

    def _expect_int(self) -> int:
        token = self._peek()
        if token.type is not TokenType.NUMBER or not isinstance(token.value, int):
            raise self._error("expected an integer")
        self._advance()
        return token.value

    def _accept_keyword(self, *names: str) -> bool:
        if self._peek().is_keyword(*names):
            self._advance()
            return True
        return False

    def _accept_symbol(self, symbol: str) -> bool:
        if self._peek().is_symbol(symbol):
            self._advance()
            return True
        return False

    # -- entry points -----------------------------------------------------------

    def parse_all(self) -> List[Statement]:
        statements: List[Statement] = []
        while self._peek().type is not TokenType.EOF:
            statements.append(self.parse_statement())
            while self._accept_symbol(";"):
                pass
        return statements

    def parse_statement(self) -> Statement:
        token = self._peek()
        if token.is_keyword("CREATE"):
            return self._parse_create()
        if token.is_keyword("INSERT"):
            return self._parse_insert()
        if token.is_keyword("DELETE"):
            return self._parse_delete()
        if token.is_keyword("SELECT"):
            return self._parse_query()
        if token.is_keyword("DROP"):
            return self._parse_drop()
        if token.is_keyword("SHOW"):
            return self._parse_show()
        if token.is_keyword("ADVANCE"):
            return self._parse_advance()
        if token.is_keyword("TICK"):
            self._advance()
            return AdvanceTime(by=1)
        if token.is_keyword("VACUUM"):
            self._advance()
            name = None
            if self._peek().type is TokenType.IDENT:
                name = self._expect_ident()
            return VacuumStatement(table=name)
        if token.is_keyword("RENEW"):
            return self._parse_renew()
        if token.is_keyword("UPDATE"):
            return self._parse_override()
        if token.is_keyword("DESCRIBE"):
            self._advance()
            return DescribeStatement(name=self._expect_ident())
        if token.is_keyword("EXPLAIN"):
            self._advance()
            analyze = False
            if self._peek().is_keyword("ANALYZE"):
                self._advance()
                analyze = True
            return ExplainStatement(query=self._parse_query(), analyze=analyze)
        raise self._error("expected a statement")

    def _parse_renew(self) -> "RenewStatement":
        self._expect_keyword("RENEW")
        table = self._expect_ident()
        self._expect_keyword("EXPIRES")
        expires_at = None
        ttl = None
        if self._accept_keyword("AT"):
            expires_at = self._expect_int()
        elif self._accept_keyword("IN"):
            ttl = self._expect_int()
        else:
            raise self._error("expected AT or IN after EXPIRES")
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_condition()
        return RenewStatement(table=table, expires_at=expires_at, ttl=ttl, where=where)

    def _parse_override(self) -> "OverrideStatement":
        # The dialect's UPDATE touches only expirations (the one mutable
        # "column" the model adds); value updates stay delete+insert.
        self._expect_keyword("UPDATE")
        table = self._expect_ident()
        self._expect_keyword("EXPIRES")
        expires_at = None
        ttl = None
        if self._accept_keyword("AT"):
            expires_at = self._expect_int()
        elif self._accept_keyword("IN"):
            ttl = self._expect_int()
        else:
            raise self._error("expected AT or IN after EXPIRES")
        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_condition()
        return OverrideStatement(
            table=table, expires_at=expires_at, ttl=ttl, where=where
        )

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
                policy = policy_token.value.lower()
            return CreateView(name=name, query=query, policy=policy)
        if self._peek().is_keyword("VIEW"):
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
        elif self._peek().is_keyword("SELECT"):
            query = self._parse_query()
        else:
            raise self._error("expected VALUES or SELECT after INSERT INTO")
        expires_at: Optional[int] = None
        ttl: Optional[int] = None
        if self._accept_keyword("EXPIRES"):
            if self._accept_keyword("AT"):
                expires_at = self._expect_int()
            elif self._accept_keyword("IN"):
                ttl = self._expect_int()
            else:
                raise self._error("expected AT or IN after EXPIRES")
        return InsertStatement(
            table=table, rows=tuple(rows), query=query,
            expires_at=expires_at, ttl=ttl,
        )

    def _parse_value_row(self) -> Tuple[object, ...]:
        self._expect_symbol("(")
        values = [self._parse_literal()]
        while self._accept_symbol(","):
            values.append(self._parse_literal())
        self._expect_symbol(")")
        return tuple(values)

    def _parse_literal(self) -> object:
        token = self._peek()
        if token.type in (TokenType.NUMBER, TokenType.STRING):
            self._advance()
            return token.value
        raise self._error("expected a number or string literal")

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
            token = self._peek()
            if token.is_keyword("UNION", "EXCEPT", "INTERSECT"):
                self._advance()
                if self._peek().is_keyword("ALL"):
                    raise UnsupportedSqlError(
                        "UNION/EXCEPT ALL: the model is set-based (SPCU)"
                    )
                right = self._parse_select_block()
                left = SetOperation(operator=token.value.lower(), left=left, right=right)
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
            if self._peek().is_keyword("LEFT", "RIGHT", "FULL", "OUTER"):
                raise UnsupportedSqlError(
                    "outer joins introduce nulls, which the paper's model "
                    "deliberately excludes (Section 2.4); use JOIN"
                )
            if not self._peek().is_keyword("JOIN"):
                break
            self._advance()
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
        if self._peek().is_keyword("WITH") and self._peek(1).is_keyword("STRATEGY"):
            self._advance()
            self._advance()
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
        elif self._peek().type is TokenType.IDENT:
            alias = self._expect_ident()
        return TableSource(name=name, alias=alias)

    def _parse_select_item(self) -> SelectItem:
        token = self._peek()
        if token.is_symbol("*"):
            self._advance()
            return SelectItem(expression=Star())
        if token.is_keyword(*_AGGREGATE_KEYWORDS):
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
        token = self._advance()  # the aggregate keyword
        function = token.value.lower()
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
            if self._peek().is_keyword("NOT") and self._peek(1).is_keyword("IN"):
                self._advance()
                self._advance()
                negated = True
            elif self._peek().is_keyword("IN"):
                self._advance()
            else:
                return self._finish_comparison(left)
            self._expect_symbol("(")
            subquery = self._parse_query()
            self._expect_symbol(")")
            return InCondition(column=left, query=subquery, negated=negated)
        return self._finish_comparison(left)

    def _finish_comparison(self, left) -> CompareCondition:
        token = self._peek()
        if token.type is not TokenType.SYMBOL or token.value not in _COMPARE_OPS:
            raise self._error("expected a comparison operator")
        self._advance()
        right = self._parse_operand()
        return CompareCondition(left=left, op=token.value, right=right)

    def _parse_operand(self) -> Union[ColumnRef, "AggregateCall", int, float, str]:
        token = self._peek()
        if token.type in (TokenType.NUMBER, TokenType.STRING):
            self._advance()
            return token.value
        if token.is_keyword(*_AGGREGATE_KEYWORDS):
            # Aggregate operands are only meaningful in HAVING; the planner
            # rejects them elsewhere with a clear error.
            return self._parse_aggregate_call()
        if token.type is TokenType.IDENT:
            return self._parse_column_ref()
        raise self._error("expected a column reference, aggregate, or literal")


def parse_statements(text: str) -> List[Statement]:
    """Parse a ``;``-separated script into statements."""
    return _Parser(tokenize(text)).parse_all()


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
