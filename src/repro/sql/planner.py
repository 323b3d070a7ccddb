"""Planning: SQL query AST → expiration-time algebra expressions.

Name resolution works over *bindings*: each FROM/JOIN source contributes
its schema at an offset into the concatenated row, and column references
(qualified or not) resolve to 1-based positions, which is all the algebra
needs.  Views referenced in FROM clauses are inlined (replaced by their
defining expressions), so planned queries always bottom out at base
relations -- ``SELECT ... FROM v`` is equivalent to querying ``v``'s
definition; reading the *materialisation* of ``v`` is the Python API's
``view.read()``.

Aggregates map to the paper's ``agg`` operator (which keeps all input
attributes and appends the value) followed by a projection onto the
grouping columns and aggregate outputs -- giving exactly SQL's GROUP BY
shape while inheriting the algebra's expiration semantics, including the
max-of-duplicates rule that makes group tuples outlive individual source
rows correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.aggregates import ExpirationStrategy
from repro.core.algebra.expressions import (
    Aggregate,
    AggregateSpec,
    Difference,
    Expression,
    Intersect,
    Join,
    Rename,
    Select,
    Union as AlgebraUnion,
)
from repro.core.algebra.predicates import (
    And,
    Attribute,
    Comparison,
    Constant,
    Not,
    Or,
    Predicate,
)
from repro.core.algebra.expressions import Project
from repro.core.schema import Schema
from repro.errors import SqlPlanError, UnsupportedSqlError
from repro.sql.ast import (
    AggregateCall,
    AndCondition,
    ColumnRef,
    CompareCondition,
    Condition,
    InCondition,
    JoinClause,
    NotCondition,
    OrCondition,
    QueryNode,
    SelectQuery,
    SetOperation,
    Star,
)


def _has_presentation(query: "QueryNode") -> bool:
    return isinstance(query, SelectQuery) and bool(query.order_by or query.limit)

__all__ = ["SourceResolver", "plan_query"]

#: Resolves a FROM-clause name to (expression, schema).
SourceResolver = Callable[[str], Tuple[Expression, Schema]]

_STRATEGIES = {
    "conservative": ExpirationStrategy.CONSERVATIVE,
    "neutral_sets": ExpirationStrategy.NEUTRAL_SETS,
    "neutral": ExpirationStrategy.NEUTRAL_SETS,
    "exact": ExpirationStrategy.EXACT,
}


@dataclass
class _Binding:
    """One FROM-clause source: its alias, schema, and position offset."""

    name: str
    schema: Schema
    offset: int


class _Environment:
    """Column-name resolution over the concatenated FROM row."""

    def __init__(self) -> None:
        self._bindings: List[_Binding] = []
        self._width = 0

    def add(self, name: str, schema: Schema) -> None:
        if any(b.name == name for b in self._bindings):
            raise SqlPlanError(f"duplicate FROM binding {name!r}; use AS aliases")
        self._bindings.append(_Binding(name, schema, self._width))
        self._width += schema.arity

    @property
    def width(self) -> int:
        return self._width

    def resolve(self, column: ColumnRef) -> int:
        """The 1-based position of ``column`` in the concatenated row."""
        if column.qualifier is not None:
            for binding in self._bindings:
                if binding.name == column.qualifier:
                    if not binding.schema.has(column.name):
                        raise SqlPlanError(
                            f"no column {column.name!r} in {column.qualifier!r}"
                        )
                    return binding.offset + binding.schema.position(column.name)
            raise SqlPlanError(f"unknown qualifier {column.qualifier!r}")
        matches = [
            binding.offset + binding.schema.position(column.name)
            for binding in self._bindings
            if binding.schema.has(column.name)
        ]
        if not matches:
            raise SqlPlanError(f"unknown column {column.name!r}")
        if len(matches) > 1:
            raise SqlPlanError(f"ambiguous column {column.name!r}; qualify it")
        return matches[0]

    def output_name(self, column: ColumnRef) -> str:
        return column.name


def _operand(value: Union[ColumnRef, int, float, str], env: _Environment):
    if isinstance(value, AggregateCall):
        raise SqlPlanError(
            f"aggregate {value} is only allowed in HAVING (or the select list)"
        )
    if isinstance(value, ColumnRef):
        return Attribute(env.resolve(value))
    return Constant(value)


def _plan_condition(condition: Condition, env: _Environment) -> Predicate:
    if isinstance(condition, CompareCondition):
        return Comparison(
            _operand(condition.left, env), condition.op, _operand(condition.right, env)
        )
    if isinstance(condition, AndCondition):
        return And(*(_plan_condition(part, env) for part in condition.parts))
    if isinstance(condition, OrCondition):
        return Or(*(_plan_condition(part, env) for part in condition.parts))
    if isinstance(condition, NotCondition):
        return Not(_plan_condition(condition.part, env))
    if isinstance(condition, InCondition):
        raise SqlPlanError(
            "[NOT] IN subqueries are only supported as top-level AND-ed "
            "conditions of WHERE"
        )
    raise SqlPlanError(f"unsupported condition node {type(condition).__name__}")


def _split_equi_join(
    condition: Condition, env: _Environment, left_width: int
) -> Tuple[List[Tuple[int, int]], List[Condition]]:
    """Split an ON clause into hash-joinable pairs and a residual.

    Top-level AND-ed ``a = b`` conjuncts whose columns resolve to opposite
    sides of the join boundary become ``on`` pairs (1-based positions,
    each relative to its own side), so both evaluation engines run a hash
    join instead of a filtered Cartesian product.  Everything else stays a
    residual predicate with identical semantics (Equation 5's rewrite).
    """
    conjuncts = (
        list(condition.parts) if isinstance(condition, AndCondition) else [condition]
    )
    on: List[Tuple[int, int]] = []
    residual: List[Condition] = []
    for conjunct in conjuncts:
        if (
            isinstance(conjunct, CompareCondition)
            and conjunct.op == "="
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            first = env.resolve(conjunct.left)
            second = env.resolve(conjunct.right)
            if first <= left_width < second:
                on.append((first, second - left_width))
                continue
            if second <= left_width < first:
                on.append((second, first - left_width))
                continue
        residual.append(conjunct)
    return on, residual


def _plan_select(query: SelectQuery, resolver: SourceResolver) -> Expression:
    strategy = ExpirationStrategy.EXACT
    if query.strategy is not None:
        try:
            strategy = _STRATEGIES[query.strategy]
        except KeyError:
            raise SqlPlanError(
                f"unknown strategy {query.strategy!r}; "
                f"known: {sorted(_STRATEGIES)}"
            ) from None
    env = _Environment()
    expression, schema = resolver(query.source.name)
    env.add(query.source.binding, schema)

    for join in query.joins:
        right_expr, right_schema = resolver(join.source.name)
        left_width = env.width
        env.add(join.source.binding, right_schema)
        on, residual = _split_equi_join(join.condition, env, left_width)
        predicate = (
            _plan_condition(residual[0], env)
            if len(residual) == 1
            else And(*(_plan_condition(part, env) for part in residual))
            if residual
            else None
        )
        expression = Join(expression, right_expr, on=on, predicate=predicate)

    if query.where is not None:
        expression = _plan_where(query.where, expression, env, resolver)

    aggregates = [
        item for item in query.items if isinstance(item.expression, AggregateCall)
    ]
    if aggregates or query.group_by:
        return _plan_grouped(query, expression, env, strategy)

    if query.having is not None:
        raise SqlPlanError("HAVING needs GROUP BY or aggregates in the select list")
    return _plan_plain_projection(query, expression, env)


def _plan_where(
    where: Condition,
    expression: Expression,
    env: _Environment,
    resolver: SourceResolver,
) -> Expression:
    """Apply a WHERE clause; [NOT] IN conjuncts become (anti-)semijoins."""
    from repro.core.algebra.expressions import AntiSemiJoin, SemiJoin

    conjuncts = (
        list(where.parts) if isinstance(where, AndCondition) else [where]
    )
    plain: List[Condition] = []
    for conjunct in conjuncts:
        if isinstance(conjunct, InCondition):
            position = env.resolve(conjunct.column)
            if isinstance(conjunct.query, SelectQuery) and (
                conjunct.query.order_by or conjunct.query.limit
            ):
                raise SqlPlanError("ORDER BY / LIMIT are not valid in subqueries")
            subplan = plan_query(conjunct.query, resolver)
            if subplan.infer_schema(lambda n: resolver(n)[1]).arity != 1:
                raise SqlPlanError(
                    f"the subquery of {conjunct.column} [NOT] IN (...) must "
                    f"produce exactly one column"
                )
            if conjunct.negated:
                expression = AntiSemiJoin(expression, subplan, on=[(position, 1)])
            else:
                expression = SemiJoin(expression, subplan, on=[(position, 1)])
        else:
            plain.append(conjunct)
    if plain:
        predicate = (
            _plan_condition(plain[0], env)
            if len(plain) == 1
            else And(*(_plan_condition(part, env) for part in plain))
        )
        expression = Select(expression, predicate)
    return expression


def _plan_plain_projection(
    query: SelectQuery, expression: Expression, env: _Environment
) -> Expression:
    if len(query.items) == 1 and isinstance(query.items[0].expression, Star):
        return expression
    refs: List[int] = []
    aliases: Dict[str, str] = {}
    for item in query.items:
        if isinstance(item.expression, Star):
            raise SqlPlanError("SELECT * cannot be mixed with named columns")
        if not isinstance(item.expression, ColumnRef):
            raise SqlPlanError("aggregates require GROUP BY handling")
        refs.append(env.resolve(item.expression))
        if item.alias:
            aliases[item.expression.name] = item.alias
    projected: Expression = Project(expression, refs)
    if aliases:
        projected = _rename_outputs(projected, query, env)
    return projected


def _rename_outputs(
    projected: Expression, query: SelectQuery, env: _Environment
) -> Expression:
    # Compute the projection's output names, then rename aliased ones.
    mapping: Dict[str, str] = {}
    for item in query.items:
        if item.alias and isinstance(item.expression, ColumnRef):
            mapping[item.expression.name] = item.alias
    if not mapping:
        return projected
    return Rename(projected, mapping)


def _plan_grouped(
    query: SelectQuery,
    expression: Expression,
    env: _Environment,
    strategy: ExpirationStrategy,
) -> Expression:
    group_positions = [env.resolve(column) for column in query.group_by]
    group_names = {column.name for column in query.group_by}

    # Validate the select list: every plain column must be a grouping column.
    output_plan: List[Tuple[str, object]] = []  # ("column", pos) | ("agg", call)
    for item in query.items:
        if isinstance(item.expression, Star):
            raise SqlPlanError("SELECT * is not valid with GROUP BY")
        if isinstance(item.expression, ColumnRef):
            if item.expression.name not in group_names:
                raise SqlPlanError(
                    f"column {item.expression} must appear in GROUP BY"
                )
            output_plan.append(("column", env.resolve(item.expression)))
        else:
            output_plan.append(("agg", item.expression))

    # Stack one paper-style agg operator per aggregate call; each appends
    # one value column.  Positions of earlier columns are unaffected.
    width = env.width
    agg_positions: Dict[int, int] = {}  # index in query.items -> position
    current: Expression = expression
    appended = 0
    for index, item in enumerate(query.items):
        if not isinstance(item.expression, AggregateCall):
            continue
        call = item.expression
        attribute = None
        if call.argument is not None:
            attribute = env.resolve(call.argument)
        spec = AggregateSpec(call.function, attribute, item.alias)
        current = Aggregate(current, group_positions, spec, strategy=strategy)
        appended += 1
        agg_positions[index] = width + appended

    refs: List[int] = []
    for index, item in enumerate(query.items):
        if isinstance(item.expression, ColumnRef):
            refs.append(env.resolve(item.expression))
        else:
            refs.append(agg_positions[index])
    if not refs:
        raise SqlPlanError("GROUP BY queries need a select list")
    projected: Expression = Project(current, refs)
    if query.having is not None:
        predicate = _plan_having(query.having, query)
        projected = Select(projected, predicate)
    return _rename_outputs(projected, query, env)


def _plan_having(condition: Condition, query: SelectQuery) -> Predicate:
    """Resolve a HAVING condition against the projected output columns.

    Operands may name grouping columns (by name or alias) or repeat an
    aggregate call from the select list (``HAVING COUNT(*) > 2``).
    """
    positions: dict = {}
    for index, item in enumerate(query.items, start=1):
        if item.alias:
            positions[("name", item.alias)] = index
        if isinstance(item.expression, ColumnRef):
            positions.setdefault(("name", item.expression.name), index)
        else:
            call = item.expression
            argument = call.argument.name if call.argument else None
            positions.setdefault(("agg", call.function, argument), index)

    def resolve(value):
        if isinstance(value, ColumnRef):
            key = ("name", value.name)
            if key not in positions:
                raise SqlPlanError(
                    f"HAVING column {value} must appear in the select list"
                )
            return Attribute(positions[key])
        if isinstance(value, AggregateCall):
            argument = value.argument.name if value.argument else None
            key = ("agg", value.function, argument)
            if key not in positions:
                raise SqlPlanError(
                    f"HAVING aggregate {value} must appear in the select list"
                )
            return Attribute(positions[key])
        return Constant(value)

    def build(node: Condition) -> Predicate:
        if isinstance(node, CompareCondition):
            return Comparison(resolve(node.left), node.op, resolve(node.right))
        if isinstance(node, AndCondition):
            return And(*(build(part) for part in node.parts))
        if isinstance(node, OrCondition):
            return Or(*(build(part) for part in node.parts))
        if isinstance(node, NotCondition):
            return Not(build(node.part))
        raise SqlPlanError(f"unsupported HAVING node {type(node).__name__}")

    return build(condition)


def plan_query(query: QueryNode, resolver: SourceResolver) -> Expression:
    """Translate a parsed query to an algebra expression."""
    if isinstance(query, SelectQuery):
        return _plan_select(query, resolver)
    if isinstance(query, SetOperation):
        for side in (query.left, query.right):
            if _has_presentation(side):
                raise SqlPlanError(
                    "ORDER BY / LIMIT are not supported inside set operations"
                )
        left = plan_query(query.left, resolver)
        right = plan_query(query.right, resolver)
        if query.operator == "union":
            return AlgebraUnion(left, right)
        if query.operator == "except":
            return Difference(left, right)
        if query.operator == "intersect":
            return Intersect(left, right)
        raise SqlPlanError(f"unknown set operator {query.operator!r}")
    raise SqlPlanError(f"unsupported query node {type(query).__name__}")
