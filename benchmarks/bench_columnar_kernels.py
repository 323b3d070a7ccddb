"""Experiment X11: columnar batch kernels vs the row fused pipeline.

Not a paper artefact -- the acceptance harness for the columnar storage
layout (``core/columnar.py``) and its batch kernels in the compiled
evaluator: the same compiled plans run against row-layout and columnar
catalogs, results are checked equivalent (rows *and* expirations), and
the wall-time ratio is reported per workload.  The workloads are shaped
after the paper's figures and the macro query: a Figure-1-style
``exp_τ`` scan of a profile table, selection, duplicate-eliminating
projection, and fact-to-dimension equijoin/semijoin as in the authz
macro plan, each at τ=0 (everything live, as in the figures) and at a
mid-life τ where a large share of tuples has expired.

Full runs also report the per-row memory footprint of row vs columnar
storage at 1M rows.

``--smoke`` runs a reduced-size equivalence-and-speedup gate: every
workload must produce identical results across layouts, each gate
workload must clear its own floor in ``GATE_FLOORS`` (the bulk join is
where the layout pays most; the row scan filter runs on raw ticks since
PR 14, so a plain scan gains less than it did when X11 was first
recorded), and no workload may fall below ``WORST_RATIO`` of the row
pipeline.
"""

import random
import statistics
import time
import tracemalloc

from repro.core.algebra.compiler import compile_expression
from repro.core.algebra.expressions import BaseRef
from repro.core.algebra.predicates import col
from repro.core.columnar import ColumnarRelation
from repro.core.relation import Relation
from repro.core.timestamps import ts

try:
    from benchmarks._tables import emit
    from benchmarks.fixtures import UniformLifetime, random_relation
except ImportError:  # direct script execution
    from _tables import emit
    from fixtures import UniformLifetime, random_relation

#: Minimum columnar-over-row speedup per gate workload.
GATE_FLOORS = {"authz dim join": 3.0, "fig1 scan": 1.5, "project dedup": 1.5}
GATE_WORKLOADS = tuple(GATE_FLOORS)
#: No workload, gated or not, may run slower than this share of row speed.
WORST_RATIO = 0.85


def build_catalog(size, seed=71):
    """Row-layout base relations shaped after the figure/macro tables.

    ``Pol`` is the Figure-1-style profile fact table (uniform lifetimes,
    duplicate-heavy value attributes); ``Grp`` is an authz dimension
    keyed by a *unique* uid, the shape the macro plan joins against.
    """
    life = UniformLifetime(10, 400)
    fact = random_relation(
        ["uid", "deg", "seg"], size, life,
        seed=seed, key_range=size, value_domain=50,
    )
    rng = random.Random(seed + 3)
    dim = Relation(["uid", "grp"])
    for i in range(size):
        dim.insert((i, rng.randrange(50)), expires_at=rng.randrange(10, 400))
    return {"Pol": fact, "Grp": dim}


def columnar_catalog(catalog):
    return {
        name: ColumnarRelation.from_relation(relation)
        for name, relation in catalog.items()
    }


def workloads():
    """``name -> (expression, tau)``; figure workloads run at τ=0."""
    return {
        "fig1 scan": (BaseRef("Pol"), 0),
        "selective select": (
            BaseRef("Pol").select((col(2) >= 10) & (col(3) < 40)), 0,
        ),
        "project dedup": (BaseRef("Pol").project(2, 3), 0),
        "authz dim join": (
            BaseRef("Pol").join(BaseRef("Grp"), on=[(1, 1)]), 0,
        ),
        "dim semijoin": (
            BaseRef("Pol").semijoin(BaseRef("Grp"), on=[(1, 1)]), 0,
        ),
        "mid-life scan": (BaseRef("Pol"), 200),
        "mid-life join": (
            BaseRef("Pol").join(BaseRef("Grp"), on=[(1, 1)]), 200,
        ),
    }


def _time_plans(expression, catalogs, tau, reps):
    """Min milliseconds and result per catalog, the catalogs timed in turn.

    Each repetition runs every catalog once (row, columnar, row, ...), so
    a drift in the box's speed lands on both sides of a ratio instead of
    on whichever side happened to be timed during it.
    """
    schemas = {name: relation.schema for name, relation in catalogs[0].items()}
    plans = [
        compile_expression(expression, lambda name: schemas[name]) for _ in catalogs
    ]
    stamp = ts(tau)
    results = [plan.execute(catalog, stamp) for plan, catalog in zip(plans, catalogs)]
    samples = [[] for _ in catalogs]
    for _ in range(reps):
        for plan, catalog, times in zip(plans, catalogs, samples):
            started = time.perf_counter()
            plan.execute(catalog, stamp)
            times.append(time.perf_counter() - started)
    return [min(times) * 1000 for times in samples], results


def run_workloads(size, seed=71, reps=5):
    """Per-workload timings and equivalence checks across layouts.

    Returns ``name -> report`` dicts with row/columnar milliseconds and
    the speedup ratio.
    """
    row_catalog = build_catalog(size, seed)
    col_catalog = columnar_catalog(row_catalog)
    reports = {}
    for name, (expression, tau) in workloads().items():
        (row_ms, col_ms), (row_result, col_result) = _time_plans(
            expression, (row_catalog, col_catalog), tau, reps
        )
        if not col_result.relation.same_content(row_result.relation):
            raise AssertionError(f"columnar result diverged on {name!r}")
        if col_result.expiration != row_result.expiration:
            raise AssertionError(f"columnar texp(e) diverged on {name!r}")
        reports[name] = {
            "tau": tau,
            "row_ms": row_ms,
            "col_ms": col_ms,
            "speedup": row_ms / col_ms if col_ms else float("inf"),
            "rows": len(row_result.relation),
        }
    return reports


def print_report(reports, size):
    headers = ["workload", "τ", "result rows", "row ms", "columnar ms", "speedup"]
    rows = [
        [
            name, r["tau"], r["rows"],
            f"{r['row_ms']:.1f}", f"{r['col_ms']:.1f}",
            f"{r['speedup']:.2f}x",
        ]
        for name, r in reports.items()
    ]
    emit(
        f"Columnar batch kernels vs row fused pipeline (|base| = {size})",
        headers,
        rows,
    )


def memory_report(size=1_000_000, seed=9):
    """Per-row resident bytes of row-dict vs columnar storage.

    The attribute values are generated up front and shared by both
    builds, so the tracemalloc deltas isolate the *layout* cost: dict
    table + row tuples + texp objects versus three column lists + one
    raw int64 array.
    """
    rng = random.Random(seed)
    uid = list(range(size))
    deg = [rng.randrange(50) for _ in range(size)]
    seg = [rng.randrange(50) for _ in range(size)]
    texp = [rng.randrange(10, 400) for _ in range(size)]
    stamps = [ts(t) for t in texp]  # shared by both layouts
    schema = Relation(["uid", "deg", "seg"]).schema

    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    row_relation = Relation._from_trusted(
        schema,
        {
            (uid[i], deg[i], seg[i]): stamps[i]
            for i in range(size)
        },
    )
    after, _ = tracemalloc.get_traced_memory()
    row_bytes = after - before

    before, _ = tracemalloc.get_traced_memory()
    col_relation = ColumnarRelation._from_columns(
        schema,
        [list(uid), list(deg), list(seg)],
        texp,
    )
    after, _ = tracemalloc.get_traced_memory()
    col_bytes = after - before
    tracemalloc.stop()

    assert len(col_relation) == len(row_relation) == size
    return {
        "rows": size,
        "row_bytes_per_row": row_bytes / size,
        "col_bytes_per_row": col_bytes / size,
        "ratio": row_bytes / col_bytes if col_bytes else float("inf"),
    }


def print_memory(report):
    emit(
        f"Storage footprint at {report['rows']:,} rows (structure only)",
        ["layout", "bytes/row"],
        [
            ("row (dict of tuples)", f"{report['row_bytes_per_row']:.1f}"),
            ("columnar (lists + int64 texp)", f"{report['col_bytes_per_row']:.1f}"),
            ("row / columnar", f"{report['ratio']:.2f}x"),
        ],
    )


def smoke_gate(size=60_000, reps=5):
    """Equivalence on every workload + the per-workload speedup floors."""
    reports = run_workloads(size, reps=reps)
    print_report(reports, size)
    failures = [
        f"{name} {reports[name]['speedup']:.2f}x < {floor:.1f}x"
        for name, floor in GATE_FLOORS.items()
        if reports[name]["speedup"] < floor
    ] + [
        f"{name} {report['speedup']:.2f}x < {WORST_RATIO:.2f}x of row"
        for name, report in reports.items()
        if report["speedup"] < WORST_RATIO
    ]
    return {
        "passed": not failures,
        "failures": failures,
        "speedups": {
            name: round(reports[name]["speedup"], 2)
            for name in GATE_WORKLOADS
        },
    }


# -- pytest entry points (collected only when targeting benchmarks/) --------


def test_workload_equivalence_small():
    reports = run_workloads(3_000, reps=1)
    assert set(GATE_WORKLOADS) <= set(reports)
    for report in reports.values():
        assert report["rows"] >= 0


def test_memory_report_small():
    report = memory_report(size=20_000)
    assert report["col_bytes_per_row"] < report["row_bytes_per_row"]


def test_columnar_kernels_benchmark(benchmark):
    reports = benchmark(run_workloads, 10_000, 71, 1)
    assert set(workloads()) == set(reports)


if __name__ == "__main__":
    import sys

    if "--smoke" in sys.argv:
        gate = smoke_gate()
        print(
            "gate workloads: "
            + ", ".join(
                f"{name} {speed:.2f}x"
                for name, speed in gate["speedups"].items()
            )
        )
        if not gate["passed"]:
            print("FAIL: " + "; ".join(gate["failures"]))
            raise SystemExit(1)
        print(
            "OK: "
            + ", ".join(f"{n} >= {f:.1f}x" for n, f in GATE_FLOORS.items())
            + f"; no workload below {WORST_RATIO:.2f}x of row"
        )
    else:
        size = 100_000
        print_report(run_workloads(size), size)
        print_memory(memory_report())
