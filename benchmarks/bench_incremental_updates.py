"""Experiment X2 (extension, paper §5): view maintenance under updates.

Paper future work: "it would be interesting to lift this restriction
[no updates] and integrate view update techniques".  The bench streams
inserts into the base relations of three view shapes and compares the
insert-folding view (``materialise(..., policy=DELTA)``) against
recompute-on-read, counting evaluator work (tuples scanned) and wall time.

Expected shape: the incremental view touches O(delta) per insert and
answers identically; recompute-on-read rescans the bases for every read.
"""

import random
import time

from repro.core.algebra.evaluator import Evaluator
from repro.core.algebra.predicates import col
from repro.engine.database import Database
from repro.engine.views import MaintenancePolicy

try:
    from benchmarks._tables import emit
except ImportError:  # direct script execution
    from _tables import emit


def make_db():
    db = Database()
    db.create_table("R", ["k", "v"])
    db.create_table("S", ["k", "v"])
    return db


def view_expressions(db):
    return {
        "select-project": db.table_expr("R").select(col(2) > 20).project(1),
        "difference": db.table_expr("R").difference(db.table_expr("S")),
        "group-count": db.table_expr("R").aggregate(group_by=[2], function="count"),
    }


def workload(operations, seed):
    rng = random.Random(seed)
    ops = []
    for step in range(operations):
        table = "R" if rng.random() < 0.7 else "S"
        row = (rng.randrange(60), rng.randrange(8) * 10)
        ops.append((step // 4, table, row, step // 4 + rng.randint(5, 60)))
    return ops


def run_shape(shape, operations=400, reads_every=8, seed=151):
    # Incremental maintainer.
    db = make_db()
    expr = view_expressions(db)[shape]
    view = db.materialise("v", expr, policy=MaintenancePolicy.DELTA)
    started = time.perf_counter()
    answers_inc = []
    for index, (when, table, row, texp) in enumerate(workload(operations, seed)):
        if when > db.now.value:
            db.advance_to(when)
        db.table(table).insert(row, expires_at=texp)
        if index % reads_every == 0:
            answers_inc.append(frozenset(view.read().rows()))
    incremental_ms = (time.perf_counter() - started) * 1000

    # Recompute-on-read baseline (same stream, fresh evaluation per read).
    db2 = make_db()
    expr2 = view_expressions(db2)[shape]
    started = time.perf_counter()
    scanned = 0
    answers_base = []
    for index, (when, table, row, texp) in enumerate(workload(operations, seed)):
        if when > db2.now.value:
            db2.advance_to(when)
        db2.table(table).insert(row, expires_at=texp)
        if index % reads_every == 0:
            evaluator = Evaluator(db2.catalog, db2.now)
            answers_base.append(
                frozenset(evaluator.evaluate(expr2).relation.rows())
            )
            scanned += evaluator.stats.tuples_scanned
    baseline_ms = (time.perf_counter() - started) * 1000

    assert answers_inc == answers_base, shape
    return {
        "shape": shape,
        "inserts": operations,
        "reads": len(answers_inc),
        "incremental_ms": round(incremental_ms, 1),
        "recompute_ms": round(baseline_ms, 1),
        "baseline_tuples_scanned": scanned,
        "deltas": view.delta_applications,
        "recomputations": view.recomputations,
    }


def run_all(operations=400, seed=151):
    return [
        run_shape(shape, operations=operations, seed=seed)
        for shape in ("select-project", "difference", "group-count")
    ]


def print_incremental(rows=None):
    rows = rows if rows is not None else run_all()
    emit(
        "Extension: incremental maintenance under base inserts",
        ["view shape", "inserts", "reads", "incremental ms", "recompute ms",
         "baseline tuples scanned", "deltas", "recomputations"],
        [
            (r["shape"], r["inserts"], r["reads"], r["incremental_ms"],
             r["recompute_ms"], r["baseline_tuples_scanned"], r["deltas"],
             r["recomputations"])
            for r in rows
        ],
    )


def test_incremental_answers_match_everywhere():
    # run_shape asserts answer equality internally for every read.
    for report in run_all(operations=200, seed=7):
        # One delta per insert into a *referenced* base, never a rebuild.
        assert 0 < report["deltas"] <= report["inserts"]
        assert report["recomputations"] == 0


def test_incremental_benchmark(benchmark):
    report = benchmark(run_shape, "difference", operations=200, seed=13)
    assert report["recomputations"] == 0
    print_incremental()


if __name__ == "__main__":
    print_incremental()
