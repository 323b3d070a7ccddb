"""Literals as slots: one prepared SELECT for every text of its shape.

A text's *shape* is its token list with each number and string literal
replaced by the literal's Python type: ``SELECT v FROM R WHERE k = 7`` and
``... WHERE k = 8`` share one, ``... WHERE k = 'a'`` has another.  The
first text of a shape is parsed and planned as usual; :func:`slot` then
finds where each of its literals went -- which leaf of the statement's AST,
which constants of the plan -- so that a later text of the shape is only
*bound* (:meth:`Shape.bind`): its literals go into fresh copies of the
statement and the expression, and nothing is parsed or planned.

:func:`slot` does not trust the parser or the planner to keep literals
apart.  It parses and plans the tokens a second time with every literal
replaced by a *marker*, a value of the same type that no literal of the
text has.  The two ASTs must differ at exactly one leaf per literal, and
the two plans must have equal
:func:`~repro.core.algebra.compiler.template_of` templates whose differing
constants are each a literal and its marker.  Anything else -- a literal
that steers planning (``LIMIT 0`` in a subquery plans, ``LIMIT 1`` there
is refused), a literal copied or folded away -- leaves the shape unslotted,
and its texts are parsed and planned as before.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.algebra.compiler import instantiate, template_of
from repro.core.algebra.expressions import Expression
from repro.errors import ReproError
from repro.sql.ast import QueryNode
from repro.sql.parser import parse_tokens
from repro.sql.tokens import Token, TokenType

__all__ = ["Shape", "shape_of", "slot"]

_NUMBER = TokenType.NUMBER
_STRING = TokenType.STRING

#: Marker ``k`` of each literal type.  No lexed number is negative, so
#: the int and float markers never occur in a text; a string one might,
#: and :func:`_markers` skips any value the text holds.
_MARKERS = {int: lambda k: -k, float: lambda k: -k - 0.5, str: lambda k: f"\x00{k}"}


def shape_of(tokens: Sequence[Token]) -> Tuple[tuple, tuple]:
    """``(key, literals)`` of one statement's tokens (no ``;``).

    The key holds each token's value, a literal's type in its place.  The
    values alone are unambiguous: keywords are upper case words no
    identifier can be, symbols are not words, and only a literal is
    replaced by a type.
    """
    key: List[Any] = []
    literals: List[Any] = []
    for kind, value, _ in tokens:
        if kind is _NUMBER or kind is _STRING:
            key.append(type(value))
            literals.append(value)
        else:
            key.append(value)
    return tuple(key), tuple(literals)


class Shape:
    """A slotted query: the first text's statement and plan template, and
    where each literal of a text of the shape goes in them."""

    __slots__ = ("statement", "ast_slots", "template", "constants", "plan_slots")

    def __init__(self, statement, ast_slots, template, constants, plan_slots) -> None:
        self.statement = statement
        #: Nested ``{field or index: ...}`` paths down to a literal's index.
        self.ast_slots = ast_slots
        self.template = template
        #: The first text's template constants: those no literal fills
        #: (a view's, inlined) are kept as they are.
        self.constants = constants
        #: ``(template constant, literal)`` index pairs.
        self.plan_slots = plan_slots

    def bind(self, literals: tuple) -> Tuple[QueryNode, Expression]:
        """``(statement, expression)`` of the text with ``literals``; the
        template is copied where a literal goes, never changed."""
        constants = list(self.constants)
        for position, literal in self.plan_slots:
            constants[position] = literals[literal]
        return (
            _rebind(self.statement, self.ast_slots, literals),
            instantiate(self.template, tuple(constants)),
        )


def slot(
    tokens: Sequence[Token],
    literals: tuple,
    statement: QueryNode,
    expression: Expression,
    plan: Callable[[QueryNode], Expression],
) -> Optional[Shape]:
    """The :class:`Shape` of a query parsed from ``tokens`` and planned by
    ``plan``, or ``None`` where its literals cannot be told apart."""
    markers = _markers(literals)
    which = {marker: index for index, marker in enumerate(markers)}
    unused = iter(markers)
    marked = []
    for token in tokens:
        if token[0] is _NUMBER or token[0] is _STRING:
            token = tuple.__new__(Token, (token[0], next(unused), token[2]))
        marked.append(token)
    try:
        (other,) = parse_tokens(marked)
        other_expression = plan(other)
    except ReproError:
        return None

    def literal_of(ours, theirs) -> Optional[int]:
        index = which.get(theirs)
        if index is None or type(theirs) is not type(markers[index]):
            return None
        mine = literals[index]
        return index if type(ours) is type(mine) and ours == mine else None

    differing: List[Tuple[tuple, Any, Any]] = []
    if not _differences(statement, other, (), differing):
        return None
    ast_slots: Dict[Any, Any] = {}
    seen = set()
    for path, ours, theirs in differing:
        index = literal_of(ours, theirs)
        if index is None or index in seen:
            return None
        seen.add(index)
        node = ast_slots
        for step in path[:-1]:
            node = node.setdefault(step, {})
        node[path[-1]] = index
    if len(seen) != len(literals):
        return None

    template, constants = template_of(expression)
    other_template, other_constants = template_of(other_expression)
    if template != other_template:
        return None
    plan_slots = []
    for position, (ours, theirs) in enumerate(zip(constants, other_constants)):
        if type(ours) is type(theirs) and ours == theirs:
            continue  # not from the text
        index = literal_of(ours, theirs)
        if index is None:
            return None
        plan_slots.append((position, index))
    return Shape(statement, ast_slots, template, constants, tuple(plan_slots))


def _markers(literals: tuple) -> List[Any]:
    """One marker per literal, of its type, distinct and none in the text."""
    taken = set(literals)
    markers = []
    count = 0
    for literal in literals:
        while True:
            count += 1
            marker = _MARKERS[type(literal)](count)
            if marker not in taken:
                break
        markers.append(marker)
    return markers


def _differences(ours, theirs, path: tuple, found: list) -> bool:
    """Walk two ASTs in step, adding ``(path, ours, theirs)`` for each leaf
    that differs; ``False`` when the two differ in anything but leaves."""
    if type(ours) is not type(theirs):
        return False
    if is_dataclass(ours):
        return all(
            _differences(getattr(ours, field.name), getattr(theirs, field.name),
                         path + (field.name,), found)
            for field in fields(ours)
        )
    if type(ours) is tuple:
        return len(ours) == len(theirs) and all(
            _differences(mine, other, path + (index,), found)
            for index, (mine, other) in enumerate(zip(ours, theirs))
        )
    if ours != theirs:
        found.append((path, ours, theirs))
    return True


def _rebind(node, slots, literals: tuple):
    """``node`` with the literal of each path in ``slots`` put in place,
    copying only the nodes on those paths (the AST is frozen dataclasses
    and tuples)."""
    if type(slots) is int:
        return literals[slots]
    if type(node) is tuple:
        items = list(node)
        for step, below in slots.items():
            items[step] = _rebind(items[step], below, literals)
        return tuple(items)
    clone = object.__new__(type(node))
    values = clone.__dict__
    values.update(node.__dict__)
    for step, below in slots.items():
        values[step] = _rebind(values[step], below, literals)
    return clone
