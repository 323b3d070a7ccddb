"""The operator AST of the expiration-time algebra (Sections 2.3-2.6).

Primitive operators (each with the paper's equation number):

* :class:`Select`     -- ``σexp_p`` (1): result tuples keep their expirations;
* :class:`Product`    -- ``×exp`` (2): minimum of the participating tuples;
* :class:`Project`    -- ``πexp`` (3): maximum over merged duplicates;
* :class:`Union`      -- ``∪exp`` (4): maximum for tuples in both arguments;
* :class:`Aggregate`  -- ``aggexp`` (8)/(9) + Table 1, non-monotonic;
* :class:`Difference` -- ``−exp`` (10)/(11), non-monotonic.

Derived operators:

* :class:`Join`       -- ``⋈exp_p = σexp_p' (R ×exp S)`` (5);
* :class:`Intersect`  -- (6), tuples get the minima of their expirations;
* :class:`Rename`     -- schema-level renaming (pass-through semantics).

Expressions are immutable and composable; they reference base relations by
name (:class:`BaseRef`, resolved against a catalog at evaluation time) or
hold a relation inline (:class:`Literal`).  Every node answers
:meth:`Expression.is_monotonic`, the classification that drives the whole
maintenance story: monotonic expressions never need recomputation
(Theorem 1), non-monotonic ones are valid until ``texp(e)`` (Theorem 2).

A fluent builder API keeps client code close to the paper's notation::

    pol.project(2)                                # πexp_2(Pol)
    pol.join(el, on=[(1, 1)])                     # Pol ⋈exp_{1=3} El
    pol.project(1).difference(el.project(1))      # πexp_1(Pol) −exp πexp_1(El)
    pol.aggregate(group_by=[2], function="count")  # aggexp_{2},count(Pol)
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple, Union as TypingUnion

from repro.core.aggregates import ExpirationStrategy, get_aggregate
from repro.core.algebra.predicates import Predicate
from repro.core.relation import Relation
from repro.core.schema import AttributeRef, Schema
from repro.errors import AlgebraError, SchemaError

__all__ = [
    "Expression",
    "BaseRef",
    "Literal",
    "Select",
    "Project",
    "Product",
    "Union",
    "Difference",
    "Intersect",
    "Join",
    "SemiJoin",
    "AntiSemiJoin",
    "Rename",
    "AggregateSpec",
    "Aggregate",
    "SchemaResolver",
]

#: Resolves a base-relation name to its schema (usually a database catalog).
SchemaResolver = Callable[[str], Schema]


class Expression:
    """Base class for algebra expressions.

    Sub-classes are immutable value objects; the fluent methods below build
    larger expressions without mutating their receivers.  The two slots
    here are memos, not part of the value: ``_template`` is the compiler's
    :func:`~repro.core.algebra.compiler.template_of` for this node, and
    ``_hash`` is the node's hash, so a plan-cache lookup builds
    :meth:`_key` (a σ's is its predicate's ``repr``) once per node.
    """

    __slots__ = ("_template", "_hash")

    # -- structure -----------------------------------------------------------

    def children(self) -> Tuple["Expression", ...]:
        """The immediate sub-expressions."""
        raise NotImplementedError

    def infer_schema(self, resolver: SchemaResolver) -> Schema:
        """The output schema, resolving base references via ``resolver``."""
        raise NotImplementedError

    def is_monotonic(self) -> bool:
        """Section 2.5: does the expression use only monotonic operators?"""
        return all(child.is_monotonic() for child in self.children())

    def walk(self) -> Iterator["Expression"]:
        """Depth-first pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def base_names(self) -> set[str]:
        """Names of all base relations referenced anywhere in the tree."""
        return {node.name for node in self.walk() if isinstance(node, BaseRef)}

    def depth(self) -> int:
        """Height of the operator tree (a base reference has depth 1)."""
        kids = self.children()
        if not kids:
            return 1
        return 1 + max(child.depth() for child in kids)

    # -- fluent builders -------------------------------------------------------

    def select(self, predicate: Predicate) -> "Select":
        """``σexp_p(self)``."""
        return Select(self, predicate)

    def project(self, *refs: AttributeRef) -> "Project":
        """``πexp_{refs}(self)`` -- accepts positions or names."""
        return Project(self, refs)

    def product(self, other: "Expression") -> "Product":
        """``self ×exp other``."""
        return Product(self, other)

    def union(self, other: "Expression") -> "Union":
        """``self ∪exp other``."""
        return Union(self, other)

    def difference(self, other: "Expression") -> "Difference":
        """``self −exp other``."""
        return Difference(self, other)

    def intersect(self, other: "Expression") -> "Intersect":
        """``self ∩exp other``."""
        return Intersect(self, other)

    def join(
        self,
        other: "Expression",
        on: Sequence[Tuple[AttributeRef, AttributeRef]] = (),
        predicate: Optional[Predicate] = None,
    ) -> "Join":
        """``self ⋈exp other`` with equi-join pairs and/or a raw predicate.

        ``on`` pairs reference the *left* and *right* schemas respectively;
        a raw ``predicate`` references the concatenated product schema.
        """
        return Join(self, other, on=on, predicate=predicate)

    def semijoin(
        self,
        other: "Expression",
        on: Sequence[Tuple[AttributeRef, AttributeRef]],
    ) -> "SemiJoin":
        """``self ⋉exp other``: my tuples with a match in ``other``."""
        return SemiJoin(self, other, on=on)

    def antijoin(
        self,
        other: "Expression",
        on: Sequence[Tuple[AttributeRef, AttributeRef]],
    ) -> "AntiSemiJoin":
        """``self ▷exp other``: my tuples without a match in ``other``."""
        return AntiSemiJoin(self, other, on=on)

    def rename(self, mapping: dict[str, str]) -> "Rename":
        """Rename output attributes (old name -> new name)."""
        return Rename(self, mapping)

    def aggregate(
        self,
        group_by: Sequence[AttributeRef],
        function: str,
        attribute: Optional[AttributeRef] = None,
        strategy: ExpirationStrategy = ExpirationStrategy.EXACT,
        output_name: Optional[str] = None,
    ) -> "Aggregate":
        """``aggexp_{group_by, function_attribute}(self)``."""
        spec = AggregateSpec(function, attribute, output_name)
        return Aggregate(self, group_by, spec, strategy=strategy)

    # -- misc -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash((type(self).__name__, self._key()))
            self._set("_hash", value)
            return value

    def _key(self) -> tuple:
        raise NotImplementedError

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} expressions are immutable")

    def _set(self, name: str, value: object) -> None:
        object.__setattr__(self, name, value)


class BaseRef(Expression):
    """A reference to a named base relation, resolved at evaluation time.

    The expiration time of a base relation, as an expression, is ``∞``
    (Section 2.3): the relation itself never becomes invalid; only its
    tuples expire.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not isinstance(name, str) or not name:
            raise AlgebraError(f"base relation names are non-empty strings, got {name!r}")
        self._set("name", name)

    def children(self) -> Tuple[Expression, ...]:
        return ()

    def infer_schema(self, resolver: SchemaResolver) -> Schema:
        return resolver(self.name)

    def _key(self) -> tuple:
        return (self.name,)

    def __repr__(self) -> str:
        return self.name


class Literal(Expression):
    """An inline relation (used by tests and examples)."""

    __slots__ = ("relation",)

    def __init__(self, relation: Relation) -> None:
        if not isinstance(relation, Relation):
            raise AlgebraError(f"Literal wraps a Relation, got {relation!r}")
        self._set("relation", relation)

    def children(self) -> Tuple[Expression, ...]:
        return ()

    def infer_schema(self, resolver: SchemaResolver) -> Schema:
        return self.relation.schema

    def _key(self) -> tuple:
        return (id(self.relation),)

    def __repr__(self) -> str:
        return f"Literal({self.relation!r})"


class Select(Expression):
    """``σexp_p(R)`` -- Equation (1); result tuples keep their expirations."""

    __slots__ = ("child", "predicate")

    def __init__(self, child: Expression, predicate: Predicate) -> None:
        if not isinstance(predicate, Predicate):
            raise AlgebraError(f"Select needs a Predicate, got {predicate!r}")
        self._set("child", child)
        self._set("predicate", predicate)

    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def infer_schema(self, resolver: SchemaResolver) -> Schema:
        schema = self.child.infer_schema(resolver)
        # Validate attribute references early for clearer errors.
        for attribute in self.predicate.attributes():
            schema.position(attribute.ref)
        return schema

    def _key(self) -> tuple:
        return (self.child, repr(self.predicate))

    def __repr__(self) -> str:
        return f"σ[{self.predicate!r}]({self.child!r})"


class Project(Expression):
    """``πexp_{j1..jn}(R)`` -- Equation (3); duplicates merge to max texp."""

    __slots__ = ("child", "refs")

    def __init__(self, child: Expression, refs: Sequence[AttributeRef]) -> None:
        if not refs:
            raise AlgebraError("projection needs at least one attribute")
        self._set("child", child)
        self._set("refs", tuple(refs))

    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def infer_schema(self, resolver: SchemaResolver) -> Schema:
        return self.child.infer_schema(resolver).project(self.refs)

    def _key(self) -> tuple:
        return (self.child, self.refs)

    def __repr__(self) -> str:
        attrs = ",".join(str(ref) for ref in self.refs)
        return f"π[{attrs}]({self.child!r})"


class Product(Expression):
    """``R ×exp S`` -- Equation (2); tuples get the min of their parents."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression) -> None:
        self._set("left", left)
        self._set("right", right)

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def infer_schema(self, resolver: SchemaResolver) -> Schema:
        return self.left.infer_schema(resolver).concat(self.right.infer_schema(resolver))

    def _key(self) -> tuple:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} × {self.right!r})"


class Union(Expression):
    """``R ∪exp S`` -- Equation (4); shared tuples get the max expiration."""

    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression) -> None:
        self._set("left", left)
        self._set("right", right)

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def infer_schema(self, resolver: SchemaResolver) -> Schema:
        left_schema = self.left.infer_schema(resolver)
        right_schema = self.right.infer_schema(resolver)
        left_schema.check_union_compatible(right_schema)
        return left_schema

    def _key(self) -> tuple:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} ∪ {self.right!r})"


class Difference(Expression):
    """``R −exp S`` -- Equation (10); the non-monotonic set difference.

    Result tuples keep ``texp_R``; the *expression* expires at the first
    time a tuple of R should re-appear because its match in S expired
    first (Table 2 case 3a, Equation 11).
    """

    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression) -> None:
        self._set("left", left)
        self._set("right", right)

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def infer_schema(self, resolver: SchemaResolver) -> Schema:
        left_schema = self.left.infer_schema(resolver)
        right_schema = self.right.infer_schema(resolver)
        left_schema.check_union_compatible(right_schema)
        return left_schema

    def is_monotonic(self) -> bool:
        return False

    def _key(self) -> tuple:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} − {self.right!r})"


class Intersect(Expression):
    """``R ∩exp S`` -- Equation (6); tuples get the min of the two sides.

    Derived from ``π(σ(R × S))`` in the paper; implemented directly with
    the same semantics (the composition only creates new expirations in the
    inner product, i.e. minima).
    """

    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression) -> None:
        self._set("left", left)
        self._set("right", right)

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def infer_schema(self, resolver: SchemaResolver) -> Schema:
        left_schema = self.left.infer_schema(resolver)
        right_schema = self.right.infer_schema(resolver)
        left_schema.check_union_compatible(right_schema)
        return left_schema

    def _key(self) -> tuple:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} ∩ {self.right!r})"


class Join(Expression):
    """``R ⋈exp_p S = σexp_p'(R ×exp S)`` -- Equation (5).

    Stored as a first-class node (rather than desugared immediately) so
    plans print and classify as joins; the evaluator uses a hash join for
    pure equi-joins and falls back to filter-over-product otherwise, both
    with identical semantics.
    """

    __slots__ = ("left", "right", "on", "predicate")

    def __init__(
        self,
        left: Expression,
        right: Expression,
        on: Sequence[Tuple[AttributeRef, AttributeRef]] = (),
        predicate: Optional[Predicate] = None,
    ) -> None:
        if not on and predicate is None:
            raise AlgebraError("a join needs `on` pairs and/or a predicate")
        if predicate is not None and not isinstance(predicate, Predicate):
            raise AlgebraError(f"Join predicate must be a Predicate, got {predicate!r}")
        self._set("left", left)
        self._set("right", right)
        self._set("on", tuple((l, r) for l, r in on))
        self._set("predicate", predicate)

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def infer_schema(self, resolver: SchemaResolver) -> Schema:
        left_schema = self.left.infer_schema(resolver)
        right_schema = self.right.infer_schema(resolver)
        for left_ref, right_ref in self.on:
            left_schema.position(left_ref)
            right_schema.position(right_ref)
        return left_schema.concat(right_schema)

    def _key(self) -> tuple:
        return (self.left, self.right, self.on, repr(self.predicate))

    def __repr__(self) -> str:
        conditions = ",".join(f"{l}={r}" for l, r in self.on)
        if self.predicate is not None:
            conditions = conditions + ("," if conditions else "") + repr(self.predicate)
        return f"({self.left!r} ⋈[{conditions}] {self.right!r})"


class SemiJoin(Expression):
    """``R ⋉exp_on S`` -- tuples of R with at least one match in S.

    Derived: ``π_{1..α(R)}(R ⋈exp_on S)``.  By composition, a result tuple
    keeps the *maximum over its matches* of ``min(texp_R(r), texp_S(s))``
    (the projection's duplicate-merge rule applied to the join's minima) --
    it stays as long as ``r`` is alive *and* some match is alive.
    Monotonic.
    """

    __slots__ = ("left", "right", "on")

    def __init__(
        self,
        left: Expression,
        right: Expression,
        on: Sequence[Tuple[AttributeRef, AttributeRef]],
    ) -> None:
        if not on:
            raise AlgebraError("a semijoin needs at least one `on` pair")
        self._set("left", left)
        self._set("right", right)
        self._set("on", tuple((l, r) for l, r in on))

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def infer_schema(self, resolver: SchemaResolver) -> Schema:
        left_schema = self.left.infer_schema(resolver)
        right_schema = self.right.infer_schema(resolver)
        for left_ref, right_ref in self.on:
            left_schema.position(left_ref)
            right_schema.position(right_ref)
        return left_schema

    def _key(self) -> tuple:
        return (self.left, self.right, self.on)

    def __repr__(self) -> str:
        conditions = ",".join(f"{l}={r}" for l, r in self.on)
        return f"({self.left!r} ⋉[{conditions}] {self.right!r})"


class AntiSemiJoin(Expression):
    """``R ▷exp_on S`` -- tuples of R with *no* match in S.  Non-monotonic.

    The generalisation of difference the paper's §3.4.2 alludes to ("the
    difference operator can be implemented ... as a left outer
    anti-semijoin"): matching happens on key attributes instead of whole
    tuples.  Result tuples keep ``texp_R``; a tuple whose entire match set
    expires before it does must *re-appear*, so the expression expires at
    the earliest such time -- exactly the Table 2 case (3a) with
    ``texp_S(t)`` replaced by ``max`` over the match set.
    """

    __slots__ = ("left", "right", "on")

    def __init__(
        self,
        left: Expression,
        right: Expression,
        on: Sequence[Tuple[AttributeRef, AttributeRef]],
    ) -> None:
        if not on:
            raise AlgebraError("an anti-semijoin needs at least one `on` pair")
        self._set("left", left)
        self._set("right", right)
        self._set("on", tuple((l, r) for l, r in on))

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def infer_schema(self, resolver: SchemaResolver) -> Schema:
        left_schema = self.left.infer_schema(resolver)
        right_schema = self.right.infer_schema(resolver)
        for left_ref, right_ref in self.on:
            left_schema.position(left_ref)
            right_schema.position(right_ref)
        return left_schema

    def is_monotonic(self) -> bool:
        return False

    def _key(self) -> tuple:
        return (self.left, self.right, self.on)

    def __repr__(self) -> str:
        conditions = ",".join(f"{l}={r}" for l, r in self.on)
        return f"({self.left!r} ▷[{conditions}] {self.right!r})"


class Rename(Expression):
    """Attribute renaming; semantics (tuples and expirations) pass through."""

    __slots__ = ("child", "mapping")

    def __init__(self, child: Expression, mapping: dict[str, str]) -> None:
        if not mapping:
            raise AlgebraError("rename needs a non-empty mapping")
        self._set("child", child)
        self._set("mapping", dict(mapping))

    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def infer_schema(self, resolver: SchemaResolver) -> Schema:
        return self.child.infer_schema(resolver).rename(self.mapping)

    def _key(self) -> tuple:
        return (self.child, tuple(sorted(self.mapping.items())))

    def __repr__(self) -> str:
        body = ",".join(f"{old}→{new}" for old, new in self.mapping.items())
        return f"ρ[{body}]({self.child!r})"


class AggregateSpec:
    """One aggregate application: function name + aggregated attribute.

    ``attribute`` is ``None`` for ``count`` (which aggregates whole tuples);
    ``output_name`` defaults to ``count`` or ``{function}_{attribute}``.
    """

    __slots__ = ("function_name", "attribute", "output_name")

    def __init__(
        self,
        function_name: str,
        attribute: Optional[AttributeRef] = None,
        output_name: Optional[str] = None,
    ) -> None:
        function = get_aggregate(function_name)  # validates the name
        if function.needs_attribute and attribute is None:
            raise AlgebraError(f"aggregate {function_name!r} needs an attribute")
        object.__setattr__(self, "function_name", function.name)
        object.__setattr__(self, "attribute", attribute)
        object.__setattr__(self, "output_name", output_name)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("AggregateSpec is immutable")

    def default_output_name(self, schema: Schema) -> str:
        """The output column name (explicit, or derived from the spec)."""
        if self.output_name is not None:
            return self.output_name
        if self.attribute is None:
            return self.function_name
        return f"{self.function_name}_{schema.name(schema.position(self.attribute))}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AggregateSpec):
            return NotImplemented
        return (
            self.function_name == other.function_name
            and self.attribute == other.attribute
            and self.output_name == other.output_name
        )

    def __hash__(self) -> int:
        return hash((self.function_name, self.attribute, self.output_name))

    def __repr__(self) -> str:
        if self.attribute is None:
            return self.function_name
        return f"{self.function_name}_{self.attribute}"


class Aggregate(Expression):
    """``aggexp_{j1..jn, f}(R)`` -- Equations (7)-(9); non-monotonic.

    Follows Klug's framework as the paper does: the output keeps **all**
    input attributes and appends the aggregate value, one result tuple per
    input tuple (Figure 3(a) then projects onto the interesting columns).
    Partitioning is the *stable* kind only -- tuple-wise equality on the
    ``group_by`` attributes (SQL ``GROUP BY``, Definition 1).

    ``strategy`` selects the expiration-time rule: Equation (8)
    (:attr:`ExpirationStrategy.CONSERVATIVE`), Table 1
    (:attr:`ExpirationStrategy.NEUTRAL_SETS`) or the exact change point
    ``ν`` of Equation (9) (:attr:`ExpirationStrategy.EXACT`, the default).
    """

    __slots__ = ("child", "group_by", "spec", "strategy")

    def __init__(
        self,
        child: Expression,
        group_by: Sequence[AttributeRef],
        spec: AggregateSpec,
        strategy: ExpirationStrategy = ExpirationStrategy.EXACT,
    ) -> None:
        if not isinstance(spec, AggregateSpec):
            raise AlgebraError(f"Aggregate needs an AggregateSpec, got {spec!r}")
        if not isinstance(strategy, ExpirationStrategy):
            raise AlgebraError(f"unknown expiration strategy {strategy!r}")
        self._set("child", child)
        self._set("group_by", tuple(group_by))
        self._set("spec", spec)
        self._set("strategy", strategy)

    def children(self) -> Tuple[Expression, ...]:
        return (self.child,)

    def infer_schema(self, resolver: SchemaResolver) -> Schema:
        schema = self.child.infer_schema(resolver)
        for ref in self.group_by:
            schema.position(ref)
        if self.spec.attribute is not None:
            schema.position(self.spec.attribute)
        return schema.extend(self.spec.default_output_name(schema))

    def is_monotonic(self) -> bool:
        return False

    def _key(self) -> tuple:
        return (self.child, self.group_by, self.spec, self.strategy)

    def __repr__(self) -> str:
        groups = ",".join(str(ref) for ref in self.group_by)
        return f"agg[{{{groups}}},{self.spec!r}]({self.child!r})"
