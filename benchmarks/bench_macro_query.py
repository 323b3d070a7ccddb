"""Experiment X6: a macro query through the whole evaluator.

Not a paper artefact -- a performance-regression guard for the evaluator
as a system: a realistic plan (join + selection + grouped aggregation +
difference) over 10k-row relations, with the full expiration machinery
(per-tuple texps, exact change points, validity interval sets) engaged.

Reported: wall time and the size of the validity interval set, across
input sizes; asserted: the analytic texp(e)/validity stay consistent with
spot recomputation checks even at scale.

``--smoke`` runs the observability overhead gate instead: the macro query
through a fully-instrumented :class:`Database` versus one whose registry
is disabled (no-op instruments), failing when the instrumented median is
more than 5% slower.  ``--dump FILE`` writes the instrumented run's
Prometheus text dump (the CI artifact).
"""

import statistics
import time

from repro.core.aggregates import ExpirationStrategy
from repro.core.algebra.evaluator import Evaluator
from repro.core.algebra.expressions import BaseRef
from repro.core.algebra.predicates import col
from repro.core.validity import recompute_equals_materialised

try:
    from benchmarks._tables import emit
    from benchmarks.fixtures import UniformLifetime, random_relation
except ImportError:  # direct script execution
    from _tables import emit
    from fixtures import UniformLifetime, random_relation


def build_catalog(size, seed=223):
    return {
        "Users": random_relation(["uid", "segment"], size, UniformLifetime(10, 400),
                                 seed=seed, key_range=size, value_domain=20),
        "Events": random_relation(["uid", "kind"], size, UniformLifetime(5, 300),
                                  seed=seed + 1, key_range=size, value_domain=8),
        "Banned": random_relation(["uid"], size // 10, UniformLifetime(50, 500),
                                  seed=seed + 2, key_range=size),
    }


def macro_plan():
    """Active segments histogram, excluding banned users."""
    engaged = (
        BaseRef("Users")
        .join(BaseRef("Events"), on=[(1, 1)])
        .select(col(4) >= 2)
        .project(1, 2)
        .antijoin(BaseRef("Banned"), on=[(1, 1)])
    )
    return engaged.aggregate(
        group_by=[2], function="count", strategy=ExpirationStrategy.EXACT
    ).project(2, 3)


def run_once(size, seed=223):
    catalog = build_catalog(size, seed)
    evaluator = Evaluator(catalog, 0)
    started = time.perf_counter()
    result = evaluator.evaluate(macro_plan())
    elapsed_ms = (time.perf_counter() - started) * 1000
    return {
        "size": size,
        "ms": round(elapsed_ms, 1),
        "rows": len(result.relation),
        "validity_intervals": len(result.validity),
        "tuples_scanned": evaluator.stats.tuples_scanned,
        "result": result,
        "catalog": catalog,
    }


def run_sweep(sizes=(1_000, 4_000, 10_000), seed=223):
    return [
        {k: v for k, v in run_once(size, seed).items() if k not in ("result", "catalog")}
        for size in sizes
    ]


def print_macro(rows=None):
    rows = rows if rows is not None else run_sweep()
    emit(
        "Macro query: join + select + antijoin + exact-strategy GROUP BY",
        ["|base|", "ms", "result rows", "validity intervals", "tuples scanned"],
        [(r["size"], r["ms"], r["rows"], r["validity_intervals"],
          r["tuples_scanned"]) for r in rows],
    )


def build_database(size, seed=223, metrics_enabled=True):
    """The X6 catalog loaded into an instrumented (or no-op) Database."""
    from repro.engine.database import Database
    from repro.obs.registry import MetricsRegistry

    db = Database(metrics=MetricsRegistry(enabled=metrics_enabled))
    for name, relation in build_catalog(size, seed).items():
        table = db.create_table(name, relation.schema)
        for row, texp in relation.items():
            table.insert(row, expires_at=texp if texp.is_finite else None)
    return db


def overhead_gate(size=1_500, iterations=3, reps=5, threshold=0.05):
    """Instrumented vs no-op registry on the macro query; returns a report.

    Each rep times ``iterations`` full re-executions (the result cache is
    defeated with ``note_data_change`` so every run exercises the whole
    pipeline) in both modes, interleaved to decorrelate machine drift;
    the gate compares medians.
    """
    plan = macro_plan()
    databases = {
        mode: build_database(size, metrics_enabled=mode) for mode in (True, False)
    }
    samples = {True: [], False: []}
    for _ in range(reps):
        for mode in (True, False):
            db = databases[mode]
            started = time.perf_counter()
            for _ in range(iterations):
                db.note_data_change()  # defeat the result cache, keep the plan
                db.evaluate(plan)
            samples[mode].append(time.perf_counter() - started)
    instrumented = statistics.median(samples[True])
    baseline = statistics.median(samples[False])
    overhead = (instrumented - baseline) / baseline if baseline else 0.0
    return {
        "instrumented_s": instrumented,
        "baseline_s": baseline,
        "overhead": overhead,
        "passed": overhead <= threshold,
        "threshold": threshold,
        "metrics": databases[True].metrics,
    }


def test_macro_validity_spot_checks():
    report = run_once(800, seed=7)
    result, catalog = report["result"], report["catalog"]
    plan = macro_plan()
    # Spot-check the analytic validity at a handful of time points.
    for when in (0, 5, 25, 60, 120, 300):
        expected = result.validity.contains(when)
        actual = recompute_equals_materialised(plan, catalog, result, when)
        assert expected == actual, when


def test_macro_scales_subquadratically():
    rows = run_sweep(sizes=(1_000, 4_000), seed=7)
    small, large = rows
    # 4x input must cost well under 16x (i.e. nothing quadratic sneaked in).
    assert large["ms"] < max(small["ms"], 0.5) * 12


def test_macro_query_benchmark(benchmark):
    report = benchmark(run_once, 4_000, 17)
    assert report["rows"] >= 0
    print_macro()


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        report = overhead_gate()
        print(
            f"instrumented {report['instrumented_s'] * 1000:.1f} ms vs "
            f"no-op {report['baseline_s'] * 1000:.1f} ms -- overhead "
            f"{report['overhead']:+.1%} (gate: {report['threshold']:.0%})"
        )
        if "--dump" in sys.argv:
            path = sys.argv[sys.argv.index("--dump") + 1]
            with open(path, "w") as handle:
                handle.write(report["metrics"].to_prom_text())
            print(f"prom dump written to {path}")
        if not report["passed"]:
            print("FAIL: instrumentation overhead above the gate")
            raise SystemExit(1)
        print("OK: instrumentation overhead within the gate")
    else:
        print_macro()
