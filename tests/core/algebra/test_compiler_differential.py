"""Differential tests: the compiled evaluator against the interpreter.

The compiled fused-pipeline evaluator (:mod:`repro.core.algebra.compiler`)
must be *observationally identical* to the reference tree-walking
interpreter on every expression: same rows, same per-tuple expiration
times, same expression-level ``texp(e)``, and the same exact validity
interval set ``I(e)``.  These tests enforce that over randomly generated
catalogs and expression trees spanning every operator, plus targeted
shapes where the two implementations take the most different code paths
(duplicate-producing projections feeding joins, differences, and
aggregates).
"""

import random

import pytest

from repro.core.aggregates import ExpirationStrategy
from repro.core.algebra.compiler import (
    CompiledEvaluator,
    compile_expression,
    evaluate_compiled,
    instantiate,
    template_of,
)
from repro.core.algebra.evaluator import evaluate
from repro.core.algebra.expressions import BaseRef, Expression
from repro.core.algebra.predicates import col, val
from repro.core.columnar import ColumnarRelation
from repro.core.relation import Relation
from repro.core.timestamps import ts
from repro.core.validity import recompute_equals_materialised, relevant_times
from repro.engine.database import Database
from repro.errors import CatalogError, EvaluationError


# ---------------------------------------------------------------------------
# Random catalog / expression generation
# ---------------------------------------------------------------------------

#: Storage layouts every differential property must hold over: the row
#: dict and the columnar layout (batch kernels).
BACKENDS = ["row", "columnar"]


def make_relation(arity, backend: str):
    return Relation(arity) if backend == "row" else ColumnarRelation(arity)


def mixed_type_catalog(backend: str):
    """Two relations whose key column holds ints and strings side by side.

    ``1`` and ``"1"`` are different keys: a kernel that coerces a column to
    one element type (an ndarray of ``<U`` did) matches the wrong rows.
    """
    catalog = {}
    for name, rows in (
        ("M", [((1, 10), 5), (("a", 11), 9), ((2, 12), None), (("1", 13), 7)]),
        ("N", [((1, 20), 8), (("a", 21), 4), (("b", 22), 6), (("1", 23), None)]),
    ):
        relation = make_relation(2, backend)
        for row, expires in rows:
            relation.insert(row, expires_at=expires)
        catalog[name] = relation
    return catalog


def random_catalog(rng: random.Random, backend: str = "row"):
    """Three small base relations with colliding keys and mixed lifetimes."""
    catalog = {}
    for name, arity in (("R", 2), ("S", 2), ("T", 3)):
        relation = make_relation(arity, backend)
        for _ in range(rng.randrange(3, 12)):
            row = tuple(rng.randrange(5) for _ in range(arity))
            # Mix finite lifetimes with a few immortal tuples.
            expires = None if rng.random() < 0.2 else rng.randrange(1, 40)
            relation.insert(row, expires_at=expires)
        catalog[name] = relation
    return catalog


def random_expression(rng: random.Random, depth: int = 3) -> Expression:
    """A random well-formed expression over the ``random_catalog`` schemas."""
    if depth <= 0:
        return BaseRef(rng.choice(["R", "S", "T"]))
    choice = rng.randrange(10)
    if choice == 0:
        return BaseRef(rng.choice(["R", "S", "T"]))
    child = random_expression(rng, depth - 1)
    # Binary set operators need union-compatible sides; easiest to build
    # them over the same random subtree shape with a fresh right side of
    # matching arity: use two-column bases R/S for those.
    if choice == 1:
        return child.select(col(1) >= rng.randrange(5))
    if choice == 2:
        return child.project(1)
    if choice == 3:
        left = BaseRef("R").select(col(2) >= rng.randrange(3))
        right = BaseRef("S").select(col(1) >= rng.randrange(3))
        op = rng.choice(["union", "difference", "intersect"])
        return getattr(left, op)(right)
    if choice == 4:
        return child.product(BaseRef(rng.choice(["R", "S"])))
    if choice == 5:
        return child.join(BaseRef("S"), on=[(1, 1)])
    if choice == 6:
        return child.semijoin(BaseRef("S"), on=[(1, 1)])
    if choice == 7:
        return child.antijoin(BaseRef("S"), on=[(1, 2)])
    if choice == 8:
        strategy = rng.choice(list(ExpirationStrategy))
        return child.aggregate([1], "count", strategy=strategy)
    return child.select((col(1) >= 1) | ~(col(1) == 3))


def assert_equivalent(expression: Expression, catalog, tau) -> None:
    reference = evaluate(expression, catalog, tau=tau)
    compiled = evaluate_compiled(expression, catalog, tau=tau)
    assert compiled.relation.same_content(reference.relation), (
        f"rows/texp diverge at tau={tau}:\n"
        f"interpreted: {sorted(reference.relation.items())}\n"
        f"compiled:    {sorted(compiled.relation.items())}"
    )
    assert compiled.relation.schema.names == reference.relation.schema.names
    assert compiled.expiration == reference.expiration, (
        f"texp(e) diverges at tau={tau}: "
        f"{reference.expiration} vs {compiled.expiration}"
    )
    assert compiled.validity == reference.validity, (
        f"I(e) diverges at tau={tau}: "
        f"{reference.validity!r} vs {compiled.validity!r}"
    )


# ---------------------------------------------------------------------------
# The random sweep
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(60))
def test_random_expressions_agree(seed, backend):
    rng = random.Random(seed)
    catalog = random_catalog(rng, backend)
    expression = random_expression(rng, depth=rng.randrange(1, 5))
    for tau in (0, rng.randrange(1, 20), rng.randrange(20, 45)):
        assert_equivalent(expression, catalog, tau)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(8))
def test_compiled_validity_matches_ground_truth(seed, backend):
    """Both engines' I(e) is the *true* validity, not merely mutual agreement."""
    rng = random.Random(1000 + seed)
    catalog = random_catalog(rng, backend)
    expression = random_expression(rng, depth=2)
    tau = rng.randrange(0, 10)
    result = evaluate_compiled(expression, catalog, tau=tau)
    for point in relevant_times(expression, catalog, result.tau):
        expected = recompute_equals_materialised(
            expression, catalog, result, point
        )
        assert result.validity.contains(point) == expected, (
            f"compiled I(e) wrong at {point} for tau={tau}"
        )


# ---------------------------------------------------------------------------
# Targeted shapes: where fused pipelines differ most from the interpreter
# ---------------------------------------------------------------------------


def figure1_catalog():
    pol = Relation(["uid", "deg"])
    pol.insert((1, 25), expires_at=10)
    pol.insert((3, 35), expires_at=10)
    pol.insert((2, 25), expires_at=15)
    return {"Pol": pol}


def test_projection_duplicates_take_max_expiration():
    """Figure 1's projection: duplicate rows keep the max texp."""
    result = evaluate_compiled(BaseRef("Pol").project(2), figure1_catalog(), tau=0)
    assert result.relation.expiration_of((25,)).value == 15
    assert result.relation.expiration_of((35,)).value == 10


def test_duplicates_through_difference():
    """A duplicate-emitting projection feeding a difference must behave as
    if the projection had been deduplicated first (max-merge rule)."""
    left = Relation(1)
    left.insert((1,), expires_at=5)
    left.insert((2,), expires_at=30)
    catalog = {**figure1_catalog(), "D": left}
    expression = BaseRef("Pol").project(1).difference(BaseRef("D"))
    for tau in (0, 4, 7, 12):
        assert_equivalent(expression, catalog, tau)


def test_duplicates_through_aggregate_count():
    """Aggregates must count *distinct* rows of the (fused) child stream."""
    pol = figure1_catalog()["Pol"]
    pol.insert((4, 25), expires_at=8)  # second tuple projecting to (25,)
    expression = BaseRef("Pol").project(2).aggregate([1], "count")
    for tau in (0, 7, 9, 12):
        assert_equivalent(expression, {"Pol": pol}, tau)
    result = evaluate_compiled(expression, {"Pol": pol}, tau=0)
    # Three tuples project onto two distinct rows: counts are of the set.
    assert sorted(result.relation.rows()) == [(25, 1), (35, 1)]


def test_duplicates_through_semijoin_and_antijoin():
    catalog = figure1_catalog()
    other = Relation(1)
    other.insert((25,), expires_at=12)
    catalog["K"] = other
    projected = BaseRef("Pol").project(2)
    for expression in (
        projected.semijoin(BaseRef("K"), on=[(1, 1)]),
        projected.antijoin(BaseRef("K"), on=[(1, 1)]),
    ):
        for tau in (0, 9, 11, 13):
            assert_equivalent(expression, catalog, tau)


def test_join_residual_predicate_agrees():
    rng = random.Random(7)
    catalog = random_catalog(rng)
    expression = BaseRef("R").join(
        BaseRef("S"), on=[(1, 1)], predicate=col(2) >= col(4)
    )
    for tau in (0, 5, 15):
        assert_equivalent(expression, catalog, tau)


@pytest.mark.parametrize("backend", BACKENDS)
def test_mixed_type_column_agrees(backend):
    """Selection, projection and join over a column of ints *and* strings."""
    catalog = mixed_type_catalog(backend)
    select = BaseRef("M").select(col(1) == 1)
    project = BaseRef("M").project(1)
    join = BaseRef("M").join(BaseRef("N"), on=[(1, 1)])
    for expression in (select, project, join, join.project(1)):
        for tau in (0, 4, 6, 8):
            assert_equivalent(expression, catalog, tau)
    assert sorted(evaluate_compiled(select, catalog).relation.items()) == [
        ((1, 10), ts(5))
    ]
    assert set(evaluate_compiled(project, catalog).relation.rows()) == {
        (1,), ("a",), (2,), ("1",)
    }
    assert len(evaluate_compiled(join, catalog).relation) == 3


def test_rename_is_pass_through():
    catalog = figure1_catalog()
    expression = BaseRef("Pol").rename({"deg": "temperature"})
    assert_equivalent(expression, catalog, 0)
    result = evaluate_compiled(expression, catalog, tau=0)
    assert result.relation.schema.names == ("uid", "temperature")


def test_all_strategies_aggregate_sum():
    rng = random.Random(11)
    catalog = random_catalog(rng)
    for strategy in ExpirationStrategy:
        expression = BaseRef("T").aggregate([1], "sum", attribute=3, strategy=strategy)
        for tau in (0, 6, 18):
            assert_equivalent(expression, catalog, tau)


def test_compiled_evaluator_memoises_plans():
    catalog = figure1_catalog()
    evaluator = CompiledEvaluator(catalog, tau=0)
    expression = BaseRef("Pol").project(2)
    first = evaluator.plan_for(expression)
    evaluator.evaluate(expression)
    assert evaluator.plan_for(expression) is first


def test_unknown_base_relation_fails_at_compile_time():
    with pytest.raises(CatalogError):
        compile_expression(
            BaseRef("Nope").project(1),
            lambda name: (_ for _ in ()).throw(CatalogError(name)),
        )


# ---------------------------------------------------------------------------
# Constants as slots: one compiled template, bound per expression
# ---------------------------------------------------------------------------


def assert_same_result(bound, fresh) -> None:
    """Two ``EvalResult``s agree on rows, ``texp``, ``texp(e)`` and ``I(e)``."""
    assert bound.relation.same_content(fresh.relation), (
        f"rows/texp diverge:\nbound: {sorted(bound.relation.items())}\n"
        f"fresh: {sorted(fresh.relation.items())}"
    )
    assert bound.relation.schema.names == fresh.relation.schema.names
    assert bound.expiration == fresh.expiration
    assert bound.validity == fresh.validity


def outcome(run):
    """``run()``'s result, or the type and message of what it raised."""
    try:
        return run()
    except EvaluationError as error:
        return type(error).__name__, str(error)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", range(40))
def test_template_bound_to_redrawn_constants_agrees(seed, backend):
    """The template's one compiled plan, bound to re-drawn constants, runs
    what a fresh compilation of the literal tree runs."""
    rng = random.Random(5000 + seed)
    catalog = random_catalog(rng, backend)
    expression = random_expression(rng, depth=rng.randrange(1, 5))
    template, constants = template_of(expression)
    resolver = lambda name: catalog[name].schema  # noqa: E731
    shared = compile_expression(template, resolver)
    for _ in range(3):
        redrawn = tuple(rng.randrange(-1, 6) for _ in constants)
        literal = instantiate(template, redrawn)
        bound = shared.bind(literal, redrawn)
        fresh = compile_expression(literal, resolver)
        for tau in (0, rng.randrange(1, 20), rng.randrange(20, 45)):
            assert_same_result(bound.execute(catalog, tau), fresh.execute(catalog, tau))
            assert_equivalent(literal, catalog, tau)


def test_template_abstracts_constants_by_type():
    base = BaseRef("R")
    assert template_of(base.select(col(1) >= 3))[0] == template_of(base.select(col(1) >= 4))[0]
    ints, strings = (template_of(base.select(col(1) == value)) for value in (1, "a"))
    assert ints[0] != strings[0]
    assert (ints[1], strings[1]) == ((1,), ("a",))
    # Anything but int, float and str stays in the template by value.
    assert template_of(base.select(col(1) == True))[1] == ()  # noqa: E712
    assert instantiate(*template_of(base.select(col(1) == 2))) == base.select(col(1) == 2)


PROBES = [
    lambda c, d: BaseRef("B").select(col(1) == c),
    lambda c, d: BaseRef("B").select(val(c) == col(1)),
    lambda c, d: BaseRef("B").select((col(1) >= c) & (col(1) < d)),
    lambda c, d: BaseRef("B").select((col(1) > c) & (col(1) <= d) & (col(2) != c)),
    lambda c, d: BaseRef("B").select(col(2) < d).project(2),
]


@pytest.mark.parametrize("shape", [{}, {"partitions": 3}, {"layout": "columnar"}])
def test_template_bound_on_probe_and_scan_selections(shape):
    """Through the plan cache, on tables large enough for column lookups:
    every expression of a probe shape shares one compilation, and each
    agrees with a fresh compilation of its literal tree -- errors too."""
    db = Database()
    table = db.create_table("B", ["k", "v"], **shape)
    for i in range(200):
        table.insert((i % 20, i), expires_at=5 + i % 7)
    values = [(3, 9), (0, 19), (25, -1), (7.5, 12.0), ("x", "y"), (19, 3)]
    for build in PROBES:
        compilations = db.plan_cache.stats.compilations
        for c, d in values:
            literal = build(c, d)
            for _ in range(2):  # the second probe builds the lookup
                bound = outcome(lambda: db.evaluate(literal, cached=False))
            fresh = outcome(lambda: compile_expression(
                literal, db.schema_resolver).execute(db.catalog, db.now))
            if isinstance(fresh, tuple):
                assert bound == fresh, (literal, bound, fresh)
            else:
                assert_same_result(bound, fresh)
        kinds = {tuple(map(type, pair)) for pair in values}
        assert db.plan_cache.stats.compilations - compilations <= len(kinds)
    if not shape:
        db.evaluate(PROBES[0](4, 0), cached=False)
        assert db.last_eval_stats.lookup_probes == 1
