"""Selection and join predicates.

The paper (Equation 1) restricts selection predicates to ∧/∨-connected
compositions of two comparison forms:

* *correlated*:   ``j = k`` -- two attribute positions of the same tuple;
* *uncorrelated*: ``j = a`` -- an attribute position and a constant.

Because selection passes expiration times through unchanged regardless of
the predicate, the algebraic treatment extends without change to the other
comparison operators and to negation; we support the full set but
:meth:`Predicate.is_paper_form` reports whether a predicate stays within
the paper's fragment (used by tests and the SQL planner's strict mode).

Predicates are built with a small DSL::

    >>> p = (col(1) == col(3)) & (col("deg") > 50)
    >>> q = ~(col(2) == val(25)) | (col(2) == val(35))

``col`` yields an :class:`Attribute` (1-based position or name), ``val`` a
:class:`Constant`; Python's comparison operators build :class:`Comparison`
nodes, ``& | ~`` build the boolean connectives.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Iterator, Tuple

from repro.core.schema import AttributeRef, Schema
from repro.core.tuples import Row
from repro.errors import EvaluationError, PredicateError

__all__ = [
    "Operand",
    "Attribute",
    "Constant",
    "Predicate",
    "Comparison",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "col",
    "val",
    "OPERATORS",
    "compare",
]

OPERATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_NEGATED: dict[str, str] = {
    "=": "!=",
    "!=": "=",
    "<": ">=",
    "<=": ">",
    ">": "<=",
    ">=": "<",
}


class Operand:
    """Base class for the two sides of a comparison."""

    __slots__ = ()

    def resolve(self, schema: Schema) -> "Operand":
        """Return a copy with attribute names resolved to positions."""
        raise NotImplementedError

    def evaluate(self, row: Row) -> Any:
        """The operand's value when applied to ``row``."""
        raise NotImplementedError

    # Comparison operators build Comparison nodes (query-DSL style).

    def __eq__(self, other: object) -> "Comparison":  # type: ignore[override]
        return Comparison(self, "=", _operand(other))

    def __ne__(self, other: object) -> "Comparison":  # type: ignore[override]
        return Comparison(self, "!=", _operand(other))

    def __lt__(self, other: object) -> "Comparison":
        return Comparison(self, "<", _operand(other))

    def __le__(self, other: object) -> "Comparison":
        return Comparison(self, "<=", _operand(other))

    def __gt__(self, other: object) -> "Comparison":
        return Comparison(self, ">", _operand(other))

    def __ge__(self, other: object) -> "Comparison":
        return Comparison(self, ">=", _operand(other))

    __hash__ = None  # type: ignore[assignment]


class Attribute(Operand):
    """A reference to an attribute of the input tuple (1-based or by name)."""

    __slots__ = ("ref",)

    def __init__(self, ref: AttributeRef) -> None:
        if isinstance(ref, bool) or not isinstance(ref, (int, str)):
            raise PredicateError(f"attribute refs are positions or names, got {ref!r}")
        if isinstance(ref, int) and ref < 1:
            raise PredicateError(f"attribute positions are 1-based, got {ref}")
        object.__setattr__(self, "ref", ref)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Attribute operands are immutable")

    def resolve(self, schema: Schema) -> "Attribute":
        return Attribute(schema.position(self.ref))

    def shifted(self, offset: int) -> "Attribute":
        """This attribute re-addressed ``offset`` positions to the right.

        Used to turn a join predicate's right-hand-side references into
        positions over the concatenated product schema (the paper's ``p'``,
        Equation 5).
        """
        if not isinstance(self.ref, int):
            raise PredicateError("only positional attributes can be shifted")
        return Attribute(self.ref + offset)

    def evaluate(self, row: Row) -> Any:
        """The operand's value when applied to ``row``."""
        if not isinstance(self.ref, int):
            raise PredicateError(
                f"unresolved attribute name {self.ref!r}; resolve() against a schema first"
            )
        if not 1 <= self.ref <= len(row):
            raise PredicateError(
                f"attribute position {self.ref} out of range for arity {len(row)}"
            )
        return row[self.ref - 1]

    def __repr__(self) -> str:
        return f"col({self.ref!r})"


class Constant(Operand):
    """A literal value from the attribute domain."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        object.__setattr__(self, "value", value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Constant operands are immutable")

    def resolve(self, schema: Schema) -> "Constant":
        return self

    def evaluate(self, row: Row) -> Any:
        """The operand's value when applied to ``row``."""
        return self.value

    def __repr__(self) -> str:
        return f"val({self.value!r})"


def compare(op: str, left: Any, right: Any) -> bool:
    """``left op right``; values the operator cannot compare raise an
    :class:`~repro.errors.EvaluationError` naming it and both types."""
    try:
        return OPERATORS[op](left, right)
    except TypeError:
        raise EvaluationError(f"cannot compare {type(left).__name__} {op} "
                              f"{type(right).__name__}") from None


def _operand(value: object) -> Operand:
    if isinstance(value, Operand):
        return value
    return Constant(value)


def col(ref: AttributeRef) -> Attribute:
    """Build an attribute operand: ``col(1)`` or ``col("deg")``."""
    return Attribute(ref)


def val(value: Any) -> Constant:
    """Build a constant operand (usually optional: bare values coerce)."""
    return Constant(value)


class Predicate:
    """Base class of the predicate AST."""

    __slots__ = ()

    def matches(self, row: Row) -> bool:
        """Evaluate against a row (all attribute refs must be positional)."""
        raise NotImplementedError

    def resolve(self, schema: Schema) -> "Predicate":
        """Resolve attribute names to positions against ``schema``."""
        raise NotImplementedError

    def attributes(self) -> Iterator[Attribute]:
        """Yield every attribute operand in the predicate tree."""
        raise NotImplementedError

    def is_paper_form(self) -> bool:
        """Whether the predicate stays within the paper's ∧/∨-of-equalities."""
        raise NotImplementedError

    def negate(self) -> "Predicate":
        """Push a logical negation through this predicate (De Morgan)."""
        raise NotImplementedError

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, _predicate(other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, _predicate(other))

    def __invert__(self) -> "Predicate":
        return Not(self)

    __hash__ = None  # type: ignore[assignment]


def _predicate(value: object) -> Predicate:
    if isinstance(value, Predicate):
        return value
    raise PredicateError(f"expected a Predicate, got {value!r}")


class Comparison(Predicate):
    """A binary comparison between two operands."""

    __slots__ = ("left", "op", "right")

    def __init__(self, left: Operand, op: str, right: Operand) -> None:
        if op not in OPERATORS:
            raise PredicateError(f"unknown comparison operator {op!r}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "right", right)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Comparison predicates are immutable")

    def matches(self, row: Row) -> bool:
        return compare(self.op, self.left.evaluate(row), self.right.evaluate(row))

    def resolve(self, schema: Schema) -> "Comparison":
        return Comparison(self.left.resolve(schema), self.op, self.right.resolve(schema))

    def attributes(self) -> Iterator[Attribute]:
        for side in (self.left, self.right):
            if isinstance(side, Attribute):
                yield side

    def is_paper_form(self) -> bool:
        return self.op == "="

    @property
    def is_correlated(self) -> bool:
        """Attribute-to-attribute comparison (the paper's ``j = k`` form)."""
        return isinstance(self.left, Attribute) and isinstance(self.right, Attribute)

    @property
    def is_uncorrelated(self) -> bool:
        """Attribute-to-constant comparison (the paper's ``j = a`` form)."""
        return (
            isinstance(self.left, Attribute) and isinstance(self.right, Constant)
        ) or (isinstance(self.left, Constant) and isinstance(self.right, Attribute))

    def negate(self) -> "Comparison":
        return Comparison(self.left, _NEGATED[self.op], self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"

    def __bool__(self) -> bool:
        # Guard against accidental use of a Comparison where a truth value
        # is expected, e.g. ``if col(1) == col(2): ...``.
        raise PredicateError(
            "a Comparison has no truth value; call .matches(row) to evaluate"
        )


class And(Predicate):
    """Conjunction of two or more predicates."""

    __slots__ = ("children",)

    def __init__(self, *children: Predicate) -> None:
        flattened: list[Predicate] = []
        for child in children:
            if isinstance(child, And):
                flattened.extend(child.children)
            else:
                flattened.append(_predicate(child))
        if len(flattened) < 2:
            raise PredicateError("And needs at least two children")
        object.__setattr__(self, "children", tuple(flattened))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("And predicates are immutable")

    def matches(self, row: Row) -> bool:
        return all(child.matches(row) for child in self.children)

    def resolve(self, schema: Schema) -> "And":
        return And(*(child.resolve(schema) for child in self.children))

    def attributes(self) -> Iterator[Attribute]:
        for child in self.children:
            yield from child.attributes()

    def is_paper_form(self) -> bool:
        return all(child.is_paper_form() for child in self.children)

    def negate(self) -> Predicate:
        return Or(*(child.negate() for child in self.children))

    def __repr__(self) -> str:
        return "(" + " & ".join(repr(child) for child in self.children) + ")"


class Or(Predicate):
    """Disjunction of two or more predicates."""

    __slots__ = ("children",)

    def __init__(self, *children: Predicate) -> None:
        flattened: list[Predicate] = []
        for child in children:
            if isinstance(child, Or):
                flattened.extend(child.children)
            else:
                flattened.append(_predicate(child))
        if len(flattened) < 2:
            raise PredicateError("Or needs at least two children")
        object.__setattr__(self, "children", tuple(flattened))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Or predicates are immutable")

    def matches(self, row: Row) -> bool:
        return any(child.matches(row) for child in self.children)

    def resolve(self, schema: Schema) -> "Or":
        return Or(*(child.resolve(schema) for child in self.children))

    def attributes(self) -> Iterator[Attribute]:
        for child in self.children:
            yield from child.attributes()

    def is_paper_form(self) -> bool:
        return all(child.is_paper_form() for child in self.children)

    def negate(self) -> Predicate:
        return And(*(child.negate() for child in self.children))

    def __repr__(self) -> str:
        return "(" + " | ".join(repr(child) for child in self.children) + ")"


class Not(Predicate):
    """Logical negation (outside the paper's fragment, but harmless)."""

    __slots__ = ("child",)

    def __init__(self, child: Predicate) -> None:
        object.__setattr__(self, "child", _predicate(child))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Not predicates are immutable")

    def matches(self, row: Row) -> bool:
        return not self.child.matches(row)

    def resolve(self, schema: Schema) -> "Not":
        return Not(self.child.resolve(schema))

    def attributes(self) -> Iterator[Attribute]:
        yield from self.child.attributes()

    def is_paper_form(self) -> bool:
        return False

    def negate(self) -> Predicate:
        return self.child

    def __repr__(self) -> str:
        return f"~{self.child!r}"


class TruePredicate(Predicate):
    """The always-true predicate (identity of conjunction)."""

    __slots__ = ()

    def matches(self, row: Row) -> bool:
        return True

    def resolve(self, schema: Schema) -> "TruePredicate":
        return self

    def attributes(self) -> Iterator[Attribute]:
        return iter(())

    def is_paper_form(self) -> bool:
        return True

    def negate(self) -> Predicate:
        raise PredicateError("the constant-false predicate is not representable")

    def __repr__(self) -> str:
        return "TRUE"
