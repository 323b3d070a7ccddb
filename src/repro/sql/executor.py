"""Execution of parsed SQL statements against a Database.

The executor is the thin glue between the SQL front end and the engine:
DDL manipulates the catalog, DML goes through the tables (so triggers and
statistics apply), and queries are planned to the algebra and evaluated
at the database's current logical time.

``EXPIRES AT`` / ``EXPIRES IN`` on INSERT is the dialect's only
expiration-time surface, mirroring the paper's "exposed to users only on
insertion and update" principle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.algebra.compiler import compile_predicate
from repro.core.algebra.expressions import Expression, Literal
from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.engine.database import Database
from repro.engine.statement_cache import MAX_TEXT_LENGTH
from repro.engine.views import MaintenancePolicy
from repro.errors import EvaluationError, SessionError, SqlPlanError
from repro.sql.ast import (
    AdvanceTime,
    CreateTable,
    CreateView,
    DeleteStatement,
    DescribeStatement,
    DropTable,
    DropView,
    ExplainStatement,
    InsertStatement,
    OverrideStatement,
    QueryNode,
    RenewStatement,
    SelectQuery,
    SetOperation,
    ShowTables,
    ShowViews,
    Statement,
    VacuumStatement,
)
from repro.sql.lexer import tokenize
from repro.sql.parser import parse_statements, parse_tokens
from repro.sql.planner import _Environment, _plan_condition, plan_query
from repro.sql.shapes import shape_of, slot

__all__ = ["SqlResult", "execute_sql", "execute_script", "execute_statement"]

#: A text worth lexing for its shape: one that starts with ``SELECT``.
_QUERY_HEAD = re.compile(r"[ \t\r\n]*select\b", re.IGNORECASE | re.ASCII).match


@dataclass
class SqlResult:
    """The outcome of one statement.

    ``relation`` is set for queries (the full, set-semantics result);
    ``rows`` is its *presentation* -- ordered per ORDER BY and truncated
    per LIMIT (equal to the unordered rows otherwise).  ``rowcount`` is
    set for DML, ``names`` for SHOW statements, and ``message`` always
    carries a human-readable summary.
    """

    kind: str
    message: str = ""
    relation: Optional[Relation] = None
    rows: Optional[list] = None
    rowcount: int = 0
    names: Tuple[str, ...] = ()

    def __repr__(self) -> str:
        return f"SqlResult({self.kind!r}, {self.message!r})"


def _source_resolver(db: Database):
    """FROM-clause resolution: tables by reference, views by inlining."""

    def resolve(name: str) -> Tuple[Expression, Schema]:
        if db.has_table(name):
            return db.table_expr(name), db.table(name).schema
        if db.has_view(name):
            view = db.view(name)
            expression = view.expression
            return expression, expression.infer_schema(db.schema_resolver)
        raise SqlPlanError(f"unknown table or view {name!r}")

    return resolve


def _execute_query(
    db: Database, query: QueryNode, expression: Optional[Expression] = None
) -> SqlResult:
    if expression is None:
        expression = plan_query(query, _source_resolver(db))
    result = db.evaluate(expression)
    rows = _present_rows(result.relation, query)
    return SqlResult(
        kind="select",
        message=f"{len(rows)} row(s)",
        relation=result.relation,
        rows=rows,
        rowcount=len(rows),
    )


def _present_rows(relation: Relation, query: QueryNode) -> list:
    """Apply ORDER BY / LIMIT presentation to a query result.

    Without ORDER BY a result is a set, presented in tuple order (by
    ``repr`` when its values do not compare, as ints and strings do not)
    so that every run and every transport shows the same list.
    """
    rows = list(relation.rows())
    if not isinstance(query, SelectQuery):
        return _in_set_order(rows)
    if query.order_by:
        schema = relation.schema
        keys = []
        for item in query.order_by:
            if not schema.has(item.column.name):
                raise SqlPlanError(
                    f"ORDER BY column {item.column} is not in the select list"
                )
            keys.append(
                (item.column, schema.index(item.column.name), item.descending)
            )
        for column, index, descending in reversed(keys):
            try:
                rows.sort(key=lambda row: row[index], reverse=descending)
            except TypeError:
                types = " and ".join(
                    sorted({type(row[index]).__name__ for row in rows})
                )
                raise EvaluationError(
                    f"cannot order by {column}: cannot compare {types}"
                ) from None
    else:
        rows = _in_set_order(rows)
    if query.limit is not None:
        rows = rows[: query.limit]
    return rows


def _in_set_order(rows: list) -> list:
    """``rows`` sorted: by tuple order, or by ``repr`` if that fails."""
    try:
        rows.sort()
    except TypeError:
        rows.sort(key=repr)
    return rows


def execute_statement(
    db: Database, statement: Statement, expression: Optional[Expression] = None
) -> SqlResult:
    """Execute one already-parsed statement.

    ``expression`` is a query's plan when the caller already holds it
    (:func:`_prepare` does for every single-query text, cached or not), so
    that a query is planned at most once on its way here.
    """
    if isinstance(statement, (SelectQuery, SetOperation)):
        result = _execute_query(db, statement, expression)
    else:
        result = _dispatch_statement(db, statement)
    db.metrics.counter(
        "repro_sql_statements_total",
        "SQL statements executed, by result kind.",
        labels=("kind",),
    ).labels(result.kind).inc()
    return result


def _dispatch_statement(db: Database, statement: Statement) -> SqlResult:
    if isinstance(statement, CreateTable):
        if statement.query is not None:
            expression = plan_query(statement.query, _source_resolver(db))
            evaluated = db.evaluate(expression)
            table = db.create_table(statement.name, evaluated.relation.schema)
            table.insert_many(evaluated.relation.items())
            return SqlResult(
                kind="create_table",
                message=(
                    f"table {statement.name} created from query "
                    f"({len(evaluated.relation)} row(s))"
                ),
                rowcount=len(evaluated.relation),
            )
        db.create_table(
            statement.name,
            list(statement.columns),
            partitions=statement.partitions,
            partition_key=statement.partition_key,
            layout=statement.layout,
        )
        layout_note = " columnar" if statement.layout == "columnar" else ""
        if statement.partitions is not None:
            return SqlResult(
                kind="create_table",
                message=(
                    f"table {statement.name} created{layout_note} "
                    f"({statement.partitions} hash partition(s) on "
                    f"{statement.partition_key or statement.columns[0]})"
                ),
            )
        return SqlResult(
            kind="create_table",
            message=f"table {statement.name} created{layout_note}",
        )

    if isinstance(statement, InsertStatement):
        table = db.table(statement.table)
        relation = None
        if statement.query is not None:
            expression = plan_query(statement.query, _source_resolver(db))
            relation = db.evaluate(expression).relation
            if relation.arity != table.schema.arity:
                raise SqlPlanError(
                    f"INSERT ... SELECT arity mismatch: query yields "
                    f"{relation.arity} column(s), table "
                    f"{statement.table!r} has {table.schema.arity}"
                )
        if relation is not None and statement.expires_at is None and statement.ttl is None:
            # Carry the query's derived expiration times along.
            pairs = relation.items()
        else:
            stamp = table.expiration_for(statement.expires_at, statement.ttl)
            rows = statement.rows if relation is None else relation.rows()
            pairs = [(row, stamp) for row in rows]
        # The whole statement passes the table's door before a row is stored.
        inserted = table.insert_many(pairs)
        return SqlResult(
            kind="insert",
            message=f"{inserted} row(s) inserted into {statement.table}",
            rowcount=inserted,
        )

    if isinstance(statement, DeleteStatement):
        table = db.table(statement.table)
        victims = _victims(db, statement)
        for row in victims:
            table.delete(row)
        return SqlResult(
            kind="delete",
            message=f"{len(victims)} row(s) deleted from {statement.table}",
            rowcount=len(victims),
        )

    if isinstance(statement, CreateView):
        expression = plan_query(statement.query, _source_resolver(db))
        policy = (
            None if statement.policy is None
            else MaintenancePolicy(statement.policy)
        )
        view = db.materialise(statement.name, expression, policy=policy)
        return SqlResult(
            kind="create_view",
            message=(
                f"materialized view {statement.name} created "
                f"({view.policy.value})"
            ),
        )

    if isinstance(statement, DropTable):
        db.drop_table(statement.name)
        return SqlResult(kind="drop_table", message=f"table {statement.name} dropped")

    if isinstance(statement, DropView):
        db.drop_view(statement.name)
        return SqlResult(kind="drop_view", message=f"view {statement.name} dropped")

    if isinstance(statement, ShowTables):
        names = tuple(db.table_names())
        return SqlResult(kind="show_tables", message=", ".join(names) or "(none)", names=names)

    if isinstance(statement, ShowViews):
        names = tuple(db.view_names())
        return SqlResult(kind="show_views", message=", ".join(names) or "(none)", names=names)

    if isinstance(statement, AdvanceTime):
        if statement.to is not None:
            now = db.advance_to(statement.to)
        else:
            now = db.tick(statement.by)
        return SqlResult(kind="advance", message=f"now = {now}")

    if isinstance(statement, VacuumStatement):
        if statement.table is not None:
            reclaimed = db.table(statement.table).vacuum()
        else:
            reclaimed = db.vacuum_all()
        return SqlResult(
            kind="vacuum", message=f"{reclaimed} tuple(s) reclaimed", rowcount=reclaimed
        )

    if isinstance(statement, RenewStatement):
        table = db.table(statement.table)
        victims = _victims(db, statement)
        for row in victims:
            table.insert(row, expires_at=statement.expires_at, ttl=statement.ttl)
        return SqlResult(
            kind="renew",
            message=f"{len(victims)} row(s) renewed in {statement.table}",
            rowcount=len(victims),
        )

    if isinstance(statement, OverrideStatement):
        table = db.table(statement.table)
        victims = _victims(db, statement)
        for row in victims:
            table.override(row, expires_at=statement.expires_at, ttl=statement.ttl)
        return SqlResult(
            kind="override",
            message=f"{len(victims)} row(s) overridden in {statement.table}",
            rowcount=len(victims),
        )

    if isinstance(statement, DescribeStatement):
        return _describe(db, statement.name)

    if isinstance(statement, ExplainStatement):
        return _explain(db, statement)

    raise SqlPlanError(f"unsupported statement {type(statement).__name__}")


def _explain(db: Database, statement: ExplainStatement) -> SqlResult:
    from repro.core.monotonicity import classify, nonmonotonic_count

    expression = plan_query(statement.query, _source_resolver(db))
    result = db.evaluate(expression, trace=statement.analyze)
    cache = db.plan_cache.stats
    lines = [
        f"plan:       {expression!r}",
        f"class:      {classify(expression).value} "
        f"({nonmonotonic_count(expression)} non-monotonic operator(s))",
        f"rows now:   {len(result.relation)}",
        f"texp(e):    {result.expiration}",
        f"valid in:   {result.validity!r}",
        f"cache:      {cache.hits} hit(s) / {cache.misses} miss(es) "
        f"overall (hit rate {cache.hit_rate:.0%}), "
        f"{cache.validity_served} served by validity alone",
    ]
    if statement.analyze:
        trace = db.trace_last_query()
        if trace is not None:
            lines.append("analyze:")
            lines.append(trace.render(indent=1))
    return SqlResult(kind="explain", message="\n".join(lines))


def _describe(db: Database, name: str) -> SqlResult:
    if db.has_table(name):
        table = db.table(name)
        upcoming = table.next_expiration()
        partitioned = ""
        if table.partitions is not None:
            partitioned = (
                f"; partitions={table.partitions} "
                f"by hash({table.partition_key})"
            )
        layout_note = ""
        if table.layout != "row":
            layout_note = f"; layout={table.layout}"
        message = (
            f"table {name}({', '.join(table.schema.names)}); "
            f"{len(table)} live tuple(s), {table.physical_size} stored; "
            f"removal={table.removal_policy.value}; "
            f"next expiration={upcoming if upcoming is not None else 'none'}"
            f"{partitioned}{layout_note}"
        )
        return SqlResult(kind="describe", message=message, names=table.schema.names)
    if db.has_view(name):
        view = db.view(name)
        schema = view.expression.infer_schema(db.schema_resolver)
        message = (
            f"materialized view {name}({', '.join(schema.names)}); "
            f"policy={view.policy.value}; monotonic={view.is_monotonic}; "
            f"texp(e)={view.expiration}; recomputations={view.recomputations}"
        )
        return SqlResult(kind="describe", message=message, names=schema.names)
    raise SqlPlanError(f"unknown table or view {name!r}")


def _victims(db: Database, statement) -> list:
    """The live rows of a DELETE's, RENEW's or UPDATE's table that its
    ``WHERE`` selects (all of them without one), in stored order."""
    table = db.table(statement.table)
    now = table.clock.now
    if statement.where is None:
        return [row for row, texp in table.relation.items() if now < texp]
    # Plan the predicate against the table's schema in a one-source
    # environment, as a SELECT's WHERE would be.
    env = _Environment()
    env.add(statement.table, table.schema)
    matches = compile_predicate(_plan_condition(statement.where, env), table.schema)
    return [
        row for row, texp in table.relation.items() if now < texp and matches(row)
    ]


def _prepare(db: Database, text: str) -> List[Tuple[Statement, Optional[Expression]]]:
    """SQL text as ``(statement, plan or None)`` pairs, ready to execute.

    The one place text becomes statements, behind the database's statement
    cache.  Only a text that is a single row-producing statement carries a
    plan, and only such a pair is kept: it is a pure function of the text
    and the catalog (``schema_version``).  Everything else -- DML and DDL,
    ``ADVANCE``, ``EXPLAIN``, scripts, and whatever fails to parse or plan
    -- costs the one failed probe and is parsed every time; script members
    are planned when their turn comes, after the statements before them.

    A text that starts with ``SELECT`` and has no ``;`` is lexed first: if
    its shape (:mod:`repro.sql.shapes`) is known, its literals are bound
    into the shape's statement and plan; if not, it is parsed and planned
    from those tokens and its shape recorded.  Any other text -- DML, DDL,
    a script -- is parsed as is, with no per-token key work.
    """
    schema_version = db.schema_version
    cache = db.statement_cache
    prepared = cache.get(text, schema_version)
    if prepared is not None:
        return [prepared]
    shaped = len(text) <= MAX_TEXT_LENGTH and ";" not in text and _QUERY_HEAD(text)
    if shaped:
        tokens = tokenize(text)
        key, literals = shape_of(tokens)
        slotted = cache.get_shape(key)
        if slotted:
            prepared = slotted.bind(literals)
            cache.put(text, schema_version, prepared)
            return [prepared]
        statements = parse_tokens(tokens)
    else:
        statements = parse_statements(text)
    if len(statements) == 1 and isinstance(statements[0], (SelectQuery, SetOperation)):
        query = statements[0]
        resolver = _source_resolver(db)
        prepared = (query, plan_query(query, resolver))
        cache.put(text, schema_version, prepared)
        if shaped and slotted is None:
            found = slot(tokens, literals, *prepared, lambda q: plan_query(q, resolver))
            cache.put_shape(key, schema_version, found or False)
        return [prepared]
    return [(statement, None) for statement in statements]


def execute_sql(db: Database, text: str, require_rows: bool = False) -> SqlResult:
    """Execute exactly one statement.

    ``require_rows`` is the sessions' ``query()`` verb: anything but a
    single row-producing statement is refused *before* it executes
    (catching it afterwards would leave the side effects applied).
    """
    prepared = _prepare(db, text)
    if require_rows and (len(prepared) != 1 or prepared[0][1] is None):
        raise SessionError(
            "query expects exactly one row-producing statement; "
            "use execute() for DDL and DML"
        )
    if len(prepared) != 1:
        raise SqlPlanError(
            f"execute_sql expects one statement, got {len(prepared)}; "
            f"use execute_script"
        )
    return execute_statement(db, *prepared[0])


def execute_script(db: Database, text: str) -> List[SqlResult]:
    """Execute a ``;``-separated script, returning all results."""
    return [execute_statement(db, *pair) for pair in _prepare(db, text)]
