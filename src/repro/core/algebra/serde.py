"""Serialisation of algebra expressions and predicates to plain dicts.

Expressions are immutable trees over JSON-friendly leaves, so they
round-trip losslessly through ``dict`` (and hence JSON).  Used by the
persistence layer to store view definitions and by applications that ship
query plans between loosely-coupled nodes (the paper's setting: a client
can hand a server the exact expression it wants materialised).

>>> from repro.core.algebra.expressions import BaseRef
>>> from repro.core.algebra.predicates import col
>>> expr = BaseRef("Pol").select(col("deg") == 25).project(1)
>>> expression_from_dict(expression_to_dict(expr)) == expr
True
"""

from __future__ import annotations

from typing import Any, Dict

from repro.codec import decode_items, encode_items
from repro.core.aggregates import ExpirationStrategy
from repro.core.algebra.expressions import (
    Aggregate,
    AggregateSpec,
    AntiSemiJoin,
    BaseRef,
    Difference,
    Expression,
    Intersect,
    Join,
    Literal,
    Product,
    Project,
    Rename,
    Select,
    SemiJoin,
    Union,
)
from repro.core.algebra.predicates import (
    And,
    Attribute,
    Comparison,
    Constant,
    Not,
    Operand,
    Or,
    Predicate,
    TruePredicate,
)
from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.errors import AlgebraError

__all__ = [
    "predicate_to_dict",
    "predicate_from_dict",
    "expression_to_dict",
    "expression_from_dict",
]


# -- predicates ----------------------------------------------------------------


def _operand_to_dict(operand: Operand) -> Dict[str, Any]:
    if isinstance(operand, Attribute):
        return {"kind": "attribute", "ref": operand.ref}
    if isinstance(operand, Constant):
        return {"kind": "constant", "value": operand.value}
    raise AlgebraError(f"cannot serialise operand {operand!r}")


def _operand_from_dict(data: Dict[str, Any]) -> Operand:
    kind = data.get("kind")
    if kind == "attribute":
        return Attribute(data["ref"])
    if kind == "constant":
        return Constant(data["value"])
    raise AlgebraError(f"unknown operand kind {kind!r}")


def predicate_to_dict(predicate: Predicate) -> Dict[str, Any]:
    """Serialise a predicate tree."""
    if isinstance(predicate, Comparison):
        return {
            "kind": "comparison",
            "left": _operand_to_dict(predicate.left),
            "op": predicate.op,
            "right": _operand_to_dict(predicate.right),
        }
    if isinstance(predicate, And):
        return {"kind": "and", "children": [predicate_to_dict(c) for c in predicate.children]}
    if isinstance(predicate, Or):
        return {"kind": "or", "children": [predicate_to_dict(c) for c in predicate.children]}
    if isinstance(predicate, Not):
        return {"kind": "not", "child": predicate_to_dict(predicate.child)}
    if isinstance(predicate, TruePredicate):
        return {"kind": "true"}
    raise AlgebraError(f"cannot serialise predicate {predicate!r}")


def predicate_from_dict(data: Dict[str, Any]) -> Predicate:
    """Rebuild a predicate tree."""
    kind = data.get("kind")
    if kind == "comparison":
        return Comparison(
            _operand_from_dict(data["left"]), data["op"], _operand_from_dict(data["right"])
        )
    if kind == "and":
        return And(*(predicate_from_dict(c) for c in data["children"]))
    if kind == "or":
        return Or(*(predicate_from_dict(c) for c in data["children"]))
    if kind == "not":
        return Not(predicate_from_dict(data["child"]))
    if kind == "true":
        return TruePredicate()
    raise AlgebraError(f"unknown predicate kind {kind!r}")


# -- expressions ------------------------------------------------------------------


def expression_to_dict(expression: Expression) -> Dict[str, Any]:
    """Serialise an expression tree (Literal relations included inline)."""
    if isinstance(expression, BaseRef):
        return {"kind": "base", "name": expression.name}
    if isinstance(expression, Literal):
        relation = expression.relation
        return {
            "kind": "literal",
            "schema": list(relation.schema.names),
            "rows": encode_items(relation.items()),
        }
    if isinstance(expression, Select):
        return {
            "kind": "select",
            "child": expression_to_dict(expression.child),
            "predicate": predicate_to_dict(expression.predicate),
        }
    if isinstance(expression, Project):
        return {
            "kind": "project",
            "child": expression_to_dict(expression.child),
            "refs": list(expression.refs),
        }
    if isinstance(expression, Rename):
        return {
            "kind": "rename",
            "child": expression_to_dict(expression.child),
            "mapping": dict(expression.mapping),
        }
    if isinstance(expression, Aggregate):
        return {
            "kind": "aggregate",
            "child": expression_to_dict(expression.child),
            "group_by": list(expression.group_by),
            "function": expression.spec.function_name,
            "attribute": expression.spec.attribute,
            "output_name": expression.spec.output_name,
            "strategy": expression.strategy.value,
        }
    if isinstance(expression, (Product, Union, Difference, Intersect)):
        kind = type(expression).__name__.lower()
        return {
            "kind": kind,
            "left": expression_to_dict(expression.left),
            "right": expression_to_dict(expression.right),
        }
    if isinstance(expression, Join):
        return {
            "kind": "join",
            "left": expression_to_dict(expression.left),
            "right": expression_to_dict(expression.right),
            "on": [list(pair) for pair in expression.on],
            "predicate": (
                predicate_to_dict(expression.predicate)
                if expression.predicate is not None
                else None
            ),
        }
    if isinstance(expression, (SemiJoin, AntiSemiJoin)):
        return {
            "kind": "semijoin" if isinstance(expression, SemiJoin) else "antijoin",
            "left": expression_to_dict(expression.left),
            "right": expression_to_dict(expression.right),
            "on": [list(pair) for pair in expression.on],
        }
    raise AlgebraError(f"cannot serialise expression {type(expression).__name__}")


def expression_from_dict(data: Dict[str, Any]) -> Expression:
    """Rebuild an expression tree from its dict form."""
    kind = data.get("kind")
    if kind == "base":
        return BaseRef(data["name"])
    if kind == "literal":
        relation = Relation(Schema(data["schema"]))
        for row, texp in decode_items(data["rows"]):
            relation.insert(row, expires_at=texp)
        return Literal(relation)
    if kind == "select":
        return Select(
            expression_from_dict(data["child"]), predicate_from_dict(data["predicate"])
        )
    if kind == "project":
        return Project(expression_from_dict(data["child"]), tuple(data["refs"]))
    if kind == "rename":
        return Rename(expression_from_dict(data["child"]), dict(data["mapping"]))
    if kind == "aggregate":
        spec = AggregateSpec(data["function"], data["attribute"], data["output_name"])
        return Aggregate(
            expression_from_dict(data["child"]),
            tuple(data["group_by"]),
            spec,
            strategy=ExpirationStrategy(data["strategy"]),
        )
    binary = {
        "product": Product,
        "union": Union,
        "difference": Difference,
        "intersect": Intersect,
    }
    if kind in binary:
        return binary[kind](
            expression_from_dict(data["left"]), expression_from_dict(data["right"])
        )
    if kind == "join":
        predicate = (
            predicate_from_dict(data["predicate"])
            if data.get("predicate") is not None
            else None
        )
        return Join(
            expression_from_dict(data["left"]),
            expression_from_dict(data["right"]),
            on=[tuple(pair) for pair in data["on"]],
            predicate=predicate,
        )
    if kind in ("semijoin", "antijoin"):
        cls = SemiJoin if kind == "semijoin" else AntiSemiJoin
        return cls(
            expression_from_dict(data["left"]),
            expression_from_dict(data["right"]),
            on=[tuple(pair) for pair in data["on"]],
        )
    raise AlgebraError(f"unknown expression kind {kind!r}")
