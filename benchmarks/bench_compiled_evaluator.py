"""Experiment X7: the compiled fused-pipeline evaluator vs the interpreter.

Measures the tentpole of the compiled evaluation path on the repo's two
workload families:

* the Figure 1-3 micro-expressions (projection duplicate handling, a
  difference with critical tuples, a grouped exact-strategy aggregation)
  evaluated on scaled-up random bases; and
* the X6 macro query (join + select + antijoin + exact GROUP BY).

Reported per workload: interpreter and compiled wall time (median of
``repeat`` runs), the speedup, and the plan cache's hit rate for a
repeated-evaluation loop at times inside ``I(e)``.

Asserted (also exercised reduced-size by the CI smoke step): the compiled
engine beats the interpreter on the macro query, and re-evaluating a
cached expression within its validity set hits the cache.

Run directly for the full table:  PYTHONPATH=src python benchmarks/bench_compiled_evaluator.py
"""

import statistics
import time

from repro.core.aggregates import ExpirationStrategy
from repro.core.algebra.compiler import compile_expression
from repro.core.algebra.evaluator import EvalStats, Evaluator
from repro.core.algebra.expressions import BaseRef
from repro.core.algebra.plan_cache import PlanCache
from repro.core.algebra.predicates import col
from repro.obs.registry import MetricsRegistry

try:
    from benchmarks.bench_macro_query import build_catalog, macro_plan
    from benchmarks._tables import emit
    from benchmarks.fixtures import UniformLifetime, random_relation
except ImportError:  # direct script execution
    from bench_macro_query import build_catalog, macro_plan
    from _tables import emit
    from fixtures import UniformLifetime, random_relation


def figure_catalog(size, seed=31):
    """Scaled-up bases shaped like the paper's Figures 1-3 examples."""
    return {
        "Pol": random_relation(["uid", "deg"], size, UniformLifetime(10, 300),
                               seed=seed, key_range=size, value_domain=40),
        "Adm": random_relation(["uid", "deg"], size, UniformLifetime(10, 300),
                               seed=seed + 1, key_range=size, value_domain=40),
    }


def figure_plans():
    return {
        "fig1 project": BaseRef("Pol").project(2),
        "fig2 difference": BaseRef("Pol").difference(BaseRef("Adm")),
        "fig3 histogram": BaseRef("Pol").aggregate(
            group_by=[2], function="count", strategy=ExpirationStrategy.EXACT
        ),
    }


def _median_ms(action, repeat):
    samples = []
    for _ in range(repeat):
        started = time.perf_counter()
        action()
        samples.append((time.perf_counter() - started) * 1000)
    return statistics.median(samples)


def compare(name, plan, catalog, tau=0, repeat=5):
    """One row of the comparison: interpreter vs (pre-compiled) plan."""
    interpreted_ms = _median_ms(
        lambda: Evaluator(catalog, tau).evaluate(plan), repeat
    )
    compiled_plan = compile_expression(plan, lambda n: catalog[n].schema)
    compiled_ms = _median_ms(
        lambda: compiled_plan.execute(catalog, tau), repeat
    )
    # Cache behaviour: evaluate once, then re-ask at later times; hits
    # happen whenever the later time is inside the cached validity set.
    # Counts are read back from the metrics registry -- the same series
    # EXPLAIN and ``db.metrics.to_prom_text()`` report.
    registry = MetricsRegistry()
    cache = PlanCache(registry=registry)
    first = cache.evaluate(plan, catalog, tau=tau)
    probes = 0
    for offset in (1, 2, 3, 5, 8):
        later = first.tau + offset
        cache.evaluate(plan, catalog, tau=later)
        probes += 1
    hits = registry.snapshot().get("repro_plan_cache_hits_total", 0)
    return {
        "workload": name,
        "interpreted_ms": round(interpreted_ms, 2),
        "compiled_ms": round(compiled_ms, 2),
        "speedup": round(interpreted_ms / compiled_ms, 2) if compiled_ms else float("inf"),
        "cache_hit_rate": round(hits / probes, 2),
        "result_rows": len(first.relation),
    }


def run_comparison(size=4_000, repeat=5, seed=223):
    rows = []
    figures = figure_catalog(size)
    for name, plan in figure_plans().items():
        rows.append(compare(name, plan, figures, repeat=repeat))
    rows.append(
        compare("macro query (X6)", macro_plan(), build_catalog(size, seed), repeat=repeat)
    )
    return rows


def print_comparison(rows=None, size=4_000, repeat=5):
    rows = rows if rows is not None else run_comparison(size=size, repeat=repeat)
    emit(
        f"Compiled evaluator vs interpreter (|base| = {size})",
        ["workload", "interp ms", "compiled ms", "speedup", "cache hit rate", "rows"],
        [(r["workload"], r["interpreted_ms"], r["compiled_ms"],
          f"{r['speedup']}x", r["cache_hit_rate"], r["result_rows"]) for r in rows],
    )
    return rows


def check(rows):
    """The acceptance gates, shared by the tests and the CI smoke run."""
    macro = next(r for r in rows if r["workload"].startswith("macro"))
    assert macro["speedup"] > 1.0, (
        f"compiled slower than interpreter on the macro query: {macro}"
    )
    assert any(r["cache_hit_rate"] > 0 for r in rows), (
        f"no cache hits on repeated evaluation within I(e): {rows}"
    )


def test_compiled_beats_interpreter_on_macro():
    rows = run_comparison(size=2_000, repeat=3, seed=7)
    check(rows)


def test_compiled_matches_interpreter_rows():
    catalog = build_catalog(1_000, seed=17)
    plan = macro_plan()
    interpreted = Evaluator(catalog, 0).evaluate(plan)
    compiled = compile_expression(plan, lambda n: catalog[n].schema).execute(catalog, 0)
    assert compiled.relation.same_content(interpreted.relation)
    assert compiled.expiration == interpreted.expiration
    assert compiled.validity == interpreted.validity


def test_cache_hit_is_cheaper_than_recompute():
    catalog = build_catalog(2_000, seed=5)
    plan = macro_plan()
    cache = PlanCache()
    stats = EvalStats()
    cache.evaluate(plan, catalog, tau=0, stats=stats)
    miss_scanned = stats.tuples_scanned
    hit_stats = EvalStats()
    cache.evaluate(plan, catalog, tau=1, stats=hit_stats)
    if hit_stats.cache_hits:  # inside I(e): the hit touches no base tuples
        assert hit_stats.tuples_scanned == 0
        assert miss_scanned > 0


def test_compiled_evaluator_benchmark(benchmark):
    catalog = build_catalog(2_000, seed=17)
    plan = compile_expression(macro_plan(), lambda n: catalog[n].schema)
    result = benchmark(plan.execute, catalog, 0)
    assert len(result.relation) >= 0


if __name__ == "__main__":
    import sys

    smoke = "--smoke" in sys.argv
    table = print_comparison(
        size=1_000 if smoke else 4_000, repeat=3 if smoke else 5
    )
    check(table)
    print("OK: compiled faster than interpreter on the macro query; "
          "cache hits observed within I(e).")
