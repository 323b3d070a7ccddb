"""The reference interpreter's work, pinned.

The interpreter is the oracle the compiled evaluator, the view maintainers
and the recovery audit are checked against.  Its ``EvalStats`` counters are
part of what it reports, so they are pinned per plan; and it builds its
results itself, so no output row goes through the public ``insert`` path
or through ``bulk_load``, the door of the code it checks.
"""

import ast
import inspect

import pytest

from repro.core.aggregates import ExpirationStrategy
from repro.core.algebra import evaluator as evaluator_module
from repro.core.algebra.evaluator import Evaluator
from repro.core.algebra.expressions import BaseRef
from repro.core.algebra.predicates import col
from repro.core.relation import Relation, relation_from_rows


def catalog():
    return {
        "Pol": relation_from_rows(
            ["uid", "deg"], [((1, 25), 10), ((2, 25), 15), ((3, 35), 10)]
        ),
        "El": relation_from_rows(
            ["uid", "deg"], [((1, 75), 5), ((2, 85), 3), ((4, 90), 2)]
        ),
        "R": relation_from_rows(
            ["k", "g"], [((k, k % 3), 4 + 3 * k) for k in range(8)]
        ),
        "S": relation_from_rows(
            ["k", "w"],
            [((k % 5, w), 6 + w) for k in range(8) for w in (1, 2) if (k + w) % 3],
        ),
        "T": relation_from_rows(["k"], [((k,), 2 + 2 * k) for k in (1, 4, 6)]),
    }


POL, EL = BaseRef("Pol"), BaseRef("El")
PROJECTION = POL.project(2)
JOIN = POL.join(EL, on=[(1, 1)])
HISTOGRAM = POL.aggregate(
    group_by=[2], function="count", strategy=ExpirationStrategy.CONSERVATIVE
).project(2, 3)
DIFFERENCE = POL.project(1).difference(EL.project(1))
PLAN = (
    BaseRef("R").join(BaseRef("S"), on=[(1, 1)])
    .antijoin(BaseRef("T"), on=[(1, 1)])
    .aggregate(group_by=[2], function="min", attribute=4,
               strategy=ExpirationStrategy.EXACT)
)
REST = (
    POL.select(col(2) >= 25).union(EL)
    .intersect(POL.semijoin(EL, on=[(1, 1)]))
    .rename({"deg": "d"})
)
PRODUCT = POL.product(EL).join(POL, predicate=col(1) == col(5))

#: (label, expression, τ, tuples_scanned, tuples_emitted, partitions_built,
#: hash_probes, operators_evaluated); every other counter reads 0.
CASES = [
    ("F2 (c)", PROJECTION, 0, 6, 5, 0, 0, 2),
    ("F2 (d)", PROJECTION, 10, 4, 2, 0, 0, 2),
    ("F2 (e)", JOIN, 0, 12, 8, 0, 2, 3),
    ("F2 (f)", JOIN, 3, 10, 5, 0, 1, 3),
    ("F2 (g)", JOIN, 5, 9, 3, 0, 0, 3),
    ("F3 (a)", HISTOGRAM, 0, 9, 8, 2, 0, 3),
    ("F3 (b)", DIFFERENCE, 0, 15, 13, 0, 0, 5),
    ("F3 (c)", DIFFERENCE, 3, 13, 10, 0, 0, 5),
    ("F3 (d)", DIFFERENCE, 5, 12, 9, 0, 0, 5),
    ("join-antijoin-agg", PLAN, 0, 55, 41, 2, 9, 6),
    ("join-antijoin-agg", PLAN, 7, 36, 18, 2, 2, 6),
    ("select-union-intersect-semijoin-rename", REST, 0, 35, 27, 0, 0, 9),
    ("product-theta-join", PRODUCT, 0, 45, 27, 0, 0, 5),
]


@pytest.mark.parametrize(
    "label, expression, tau, scanned, emitted, partitions, probes, operators",
    CASES,
    ids=[f"{case[0]}@{case[2]}" for case in CASES],
)
def test_counters_and_no_public_insert(
    monkeypatch, label, expression, tau, scanned, emitted, partitions, probes,
    operators,
):
    relations = catalog()
    calls = []

    def refuse(name):
        def counted(self, *args, **kwargs):
            calls.append(name)
        return counted

    monkeypatch.setattr(Relation, "insert", refuse("insert"))
    monkeypatch.setattr(Relation, "bulk_load", refuse("bulk_load"))
    evaluator = Evaluator(relations, tau)
    evaluator.evaluate(expression)
    assert evaluator.stats.as_dict() == {
        "tuples_scanned": scanned,
        "tuples_emitted": emitted,
        "partitions_built": partitions,
        "hash_probes": probes,
        "operators_evaluated": operators,
        "cache_hits": 0,
        "cache_misses": 0,
        "columnar_batches": 0,
        "columnar_rows": 0,
        "lookup_probes": 0,
    }
    assert calls == []


def test_the_oracle_imports_none_of_what_it_checks():
    tree = ast.parse(inspect.getsource(evaluator_module))
    imported = {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
    }
    checked = {
        "repro.core.algebra.compiler",
        "repro.engine.maintenance",
        "repro.engine.views",
    }
    assert not imported & checked
