"""Statement AST for the SQL subset.

Grammar summary (the planner in :mod:`repro.sql.planner` maps queries to
the expiration-time algebra; ``EXPIRES`` clauses are the only place the
dialect surfaces expiration times, matching the paper's design)::

    CREATE TABLE name (col, col, ...) ;   CREATE TABLE name AS query ;
    INSERT INTO name { VALUES (v, ...) [, (v, ...)]* | query }
        [EXPIRES AT <time> | EXPIRES IN <ticks>] ;
    DELETE FROM name [WHERE predicate] ;
    RENEW name EXPIRES {AT <time> | IN <ticks>} [WHERE predicate] ;
    UPDATE name EXPIRES {AT <time> | IN <ticks>} [WHERE predicate] ;
    SELECT items FROM source [JOIN source ON eq [AND eq]*]*
        [WHERE predicate]          -- incl. col [NOT] IN (SELECT ...)
        [GROUP BY cols] [HAVING condition]
        [ORDER BY col [ASC|DESC], ...] [LIMIT n]
        [WITH STRATEGY name]
        [{UNION | EXCEPT | INTERSECT} SELECT ...]* ;
    CREATE MATERIALIZED VIEW name AS query
        [WITH POLICY {RECOMPUTE | SCHRODINGER | PATCH | DELTA}] ;
        -- a monotonic query (σ/π/⋈ naming each table once) folds base
        -- inserts whatever the policy; DELTA asks for the same on
        -- ``a EXCEPT b`` over disjoint tables and on a GROUP BY whose
        -- select list keeps the group columns, and is what an omitted
        -- policy means on those shapes (SCHRODINGER on any other)
    DROP TABLE name ;   DROP VIEW name ;
    SHOW TABLES ;       SHOW VIEWS ;
    DESCRIBE name ;     EXPLAIN [ANALYZE] query ;
    ADVANCE TO <time> ; ADVANCE BY <ticks> ; TICK ;
    VACUUM [name] ;
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

__all__ = [
    "Statement",
    "ColumnRef",
    "AggregateCall",
    "Star",
    "SelectItem",
    "CompareCondition",
    "AndCondition",
    "OrCondition",
    "NotCondition",
    "InCondition",
    "Condition",
    "TableSource",
    "JoinClause",
    "SelectQuery",
    "SetOperation",
    "QueryNode",
    "CreateTable",
    "InsertStatement",
    "DeleteStatement",
    "CreateView",
    "DropTable",
    "DropView",
    "ShowTables",
    "ShowViews",
    "AdvanceTime",
    "VacuumStatement",
    "OrderItem",
    "RenewStatement",
    "OverrideStatement",
    "DescribeStatement",
    "ExplainStatement",
]


class Statement:
    """Base class for parsed statements."""


# -- value / column expressions ------------------------------------------------


@dataclass(frozen=True)
class ColumnRef:
    """A possibly qualified column reference: ``deg`` or ``P.deg``."""

    name: str
    qualifier: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class AggregateCall:
    """``COUNT(*)``, ``SUM(col)``, ``AVG(col)``, ``MIN(col)``, ``MAX(col)``."""

    function: str  # lower-case
    argument: Optional[ColumnRef]  # None for COUNT(*)

    def __str__(self) -> str:
        body = "*" if self.argument is None else str(self.argument)
        return f"{self.function}({body})"


@dataclass(frozen=True)
class Star:
    """``SELECT *``."""


@dataclass(frozen=True)
class SelectItem:
    """One output column, with an optional ``AS`` alias."""

    expression: Union[ColumnRef, AggregateCall, Star]
    alias: Optional[str] = None


# -- conditions --------------------------------------------------------------------


class Condition:
    """Base class for WHERE / ON conditions."""


@dataclass(frozen=True)
class CompareCondition(Condition):
    """``left op right`` where each side is a column or a literal."""

    left: Union[ColumnRef, int, float, str]
    op: str  # "=", "!=", "<", "<=", ">", ">="
    right: Union[ColumnRef, int, float, str]


@dataclass(frozen=True)
class AndCondition(Condition):
    parts: Tuple[Condition, ...]


@dataclass(frozen=True)
class OrCondition(Condition):
    parts: Tuple[Condition, ...]


@dataclass(frozen=True)
class NotCondition(Condition):
    part: Condition


@dataclass(frozen=True)
class InCondition(Condition):
    """``column [NOT] IN (SELECT ...)`` -- planned as a (anti-)semijoin.

    Only valid as a top-level conjunct of WHERE; the subquery must produce
    a single column.
    """

    column: ColumnRef
    query: "QueryNode"
    negated: bool = False


# -- FROM sources --------------------------------------------------------------------


@dataclass(frozen=True)
class TableSource:
    """``name [AS alias]`` in a FROM clause (table or view name)."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class JoinClause:
    """``JOIN source ON condition``."""

    source: TableSource
    condition: Condition


# -- queries ------------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key (a column of the select list) and its direction."""

    column: ColumnRef
    descending: bool = False


@dataclass(frozen=True)
class SelectQuery(Statement):
    """One SELECT block (without set operations)."""

    items: Tuple[SelectItem, ...]
    source: TableSource
    joins: Tuple[JoinClause, ...] = ()
    where: Optional[Condition] = None
    group_by: Tuple[ColumnRef, ...] = ()
    having: Optional[Condition] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    strategy: Optional[str] = None  # aggregate expiration strategy name


@dataclass(frozen=True)
class SetOperation(Statement):
    """``left {UNION|EXCEPT|INTERSECT} right``."""

    operator: str  # "union" | "except" | "intersect"
    left: "QueryNode"
    right: "QueryNode"


QueryNode = Union[SelectQuery, SetOperation]


# -- DDL / DML ---------------------------------------------------------------------------------


@dataclass(frozen=True)
class CreateTable(Statement):
    """``CREATE TABLE name (cols)`` or ``CREATE TABLE name AS query``.

    The CTAS form derives the schema from the query and carries each
    result tuple's derived expiration time into the new table.  The
    column-list form accepts trailing ``PARTITION BY HASH (col)
    PARTITIONS n`` and ``LAYOUT COLUMNAR`` clauses (in either order).
    """

    name: str
    columns: Tuple[str, ...] = ()
    query: Optional["QueryNode"] = None
    partitions: Optional[int] = None
    partition_key: Optional[str] = None
    layout: str = "row"


@dataclass(frozen=True)
class InsertStatement(Statement):
    """``INSERT INTO t VALUES ...`` or ``INSERT INTO t SELECT ...``.

    The SELECT form carries each result tuple's *derived* expiration time
    into the target table (materialising a query as base data), unless an
    explicit ``EXPIRES`` clause overrides it.
    """

    table: str
    rows: Tuple[Tuple[object, ...], ...] = ()
    query: Optional["QueryNode"] = None
    expires_at: Optional[int] = None
    ttl: Optional[int] = None


@dataclass(frozen=True)
class DeleteStatement(Statement):
    table: str
    where: Optional[Condition] = None


@dataclass(frozen=True)
class CreateView(Statement):
    name: str
    query: QueryNode
    policy: Optional[str] = None  # a MaintenancePolicy value, lower-case


@dataclass(frozen=True)
class DropTable(Statement):
    name: str


@dataclass(frozen=True)
class DropView(Statement):
    name: str


@dataclass(frozen=True)
class ShowTables(Statement):
    pass


@dataclass(frozen=True)
class ShowViews(Statement):
    pass


@dataclass(frozen=True)
class AdvanceTime(Statement):
    """``ADVANCE TO n``, ``ADVANCE BY n``, or ``TICK``."""

    to: Optional[int] = None
    by: Optional[int] = None


@dataclass(frozen=True)
class VacuumStatement(Statement):
    table: Optional[str] = None  # None = all tables


@dataclass(frozen=True)
class RenewStatement(Statement):
    """``RENEW table EXPIRES AT t | EXPIRES IN n [WHERE condition]``.

    Re-inserts the matching unexpired rows with the new expiration -- the
    model's lifetime-extension idiom surfaced in SQL (the max-merge rule
    means a RENEW can only lengthen lifetimes, never shorten them).
    """

    table: str
    expires_at: Optional[int] = None
    ttl: Optional[int] = None
    where: Optional[Condition] = None


@dataclass(frozen=True)
class OverrideStatement(Statement):
    """``UPDATE table EXPIRES AT t | EXPIRES IN n [WHERE condition]``.

    Sets the matching rows' expirations *unconditionally* (last-write,
    not max-merge) -- the revocation path: unlike RENEW, an UPDATE can
    shorten a lifetime, down to ``AT now`` / ``IN 0`` for an immediate
    revoke.
    """

    table: str
    expires_at: Optional[int] = None
    ttl: Optional[int] = None
    where: Optional[Condition] = None


@dataclass(frozen=True)
class DescribeStatement(Statement):
    """``DESCRIBE name`` -- table or view metadata."""

    name: str


@dataclass(frozen=True)
class ExplainStatement(Statement):
    """``EXPLAIN [ANALYZE] query`` -- the algebra plan (raw and rewritten),
    its monotonicity class, and the materialisation's expiration/validity.
    With ``ANALYZE``, the query is executed under tracing and the span
    tree (per-operator wall time and tuple counts) is appended."""

    query: "QueryNode"
    analyze: bool = False
