"""``python -m benchmarks.suite compare A.json B.json``.

One row per (metric, workload): both values, the ratio B/A (A is the
base), the metric's bound from the root ``BENCHMARK.json`` and a verdict.
``worse`` means B's value is worse than A's by more than the bound;
``unresolved`` means that in either file the value estimated from the even
and from the odd repetitions alone differ by more than the bound, so the
pair cannot be called unchanged.  Per-layer
metrics have no bound and are listed for reading only.  Exit code 1 on any
``worse`` or on a higher share of failed ops.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def load_bounds(path: Optional[Path] = None) -> Dict[str, dict]:
    """``{metric: {bound, better}}`` from the root ``BENCHMARK.json``."""
    document = json.loads((path or REPO_ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in document["end_to_end"]}


def spread(stat: dict) -> float:
    """How far apart two disjoint estimates of the value lie, as a share of it.

    ``halves`` holds the value as estimated from the even and from the odd
    repetitions alone; when those disagree by more than the bound, too few
    repetitions ran undisturbed to tell the value from a neighbour's.
    """
    halves = stat.get("halves") or []
    if len(halves) < 2 or not stat["value"]:
        return 0.0
    return abs(halves[1] - halves[0]) / abs(stat["value"])


def judge(a: dict, b: dict, bound: float, better: str) -> dict:
    """Verdict for one (metric, workload) pair of ``_stat`` dicts."""
    base, value = a["value"], b["value"]
    if base is None or value is None or base == 0:
        return {"a": base, "b": value, "ratio": None, "verdict": "unresolved"}
    change = (value - base) / abs(base)
    worsening = change if better == "lower" else -change
    width = max(spread(a), spread(b))
    if worsening > bound:
        verdict = "worse"
    elif width > bound:
        verdict = "unresolved"
    elif worsening < -bound:
        verdict = "better"
    else:
        verdict = "same"
    return {"a": base, "b": value, "ratio": value / base, "spread": width,
            "bound": bound, "verdict": verdict}


def compare_results(a: dict, b: dict, bounds: Dict[str, dict]) -> List[dict]:
    rows = []
    for workload, left in a["workloads"].items():
        right = b["workloads"].get(workload)
        if right is None:
            continue
        for metric, stat in left.get("end_to_end", {}).items():
            if metric in right.get("end_to_end", {}) and metric in bounds:
                rows.append({
                    "workload": workload, "metric": metric,
                    **judge(stat, right["end_to_end"][metric],
                            bounds[metric]["bound"], bounds[metric]["better"]),
                })
        for metric, stat in left.get("per_layer", {}).items():
            other = right.get("per_layer", {}).get(metric)
            if other is None or not stat["value"] or other["value"] is None:
                continue  # absent, null or idle on this workload
            rows.append({"workload": workload, "metric": metric,
                         "a": stat["value"], "b": other["value"],
                         "ratio": other["value"] / stat["value"],
                         "bound": None, "verdict": "-"})
        share_a = left["failed"] / left["attempted"]
        share_b = right["failed"] / right["attempted"]
        rows.append({"workload": workload, "metric": "failed_ops_share",
                     "a": share_a, "b": share_b, "ratio": None, "bound": 0.0,
                     "verdict": "worse" if share_b > share_a else "same"})
    return rows


def compare_command(args) -> int:
    a = json.loads(Path(args.a).read_text())
    b = json.loads(Path(args.b).read_text())
    rows = compare_results(a, b, load_bounds())
    print(f"{'workload':<15} {'metric':<52} {'A (base)':>14} {'B':>14} "
          f"{'B/A':>7} {'bound':>6}  verdict")
    for row in rows:
        ratio = "" if row["ratio"] is None else f"{row['ratio']:.3f}"
        bound = "" if row["bound"] is None else f"{row['bound']:.2f}"
        print(f"{row['workload']:<15} {row['metric']:<52} {row['a']:>14,.4f} "
              f"{row['b']:>14,.4f} {ratio:>7} {bound:>6}  {row['verdict']}")
    worse = [row for row in rows if row["verdict"] == "worse"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"\n{len(worse)} worse, {len(unresolved)} unresolved, "
          f"{sum(row['verdict'] == 'better' for row in rows)} better")
    return 1 if worse else 0
