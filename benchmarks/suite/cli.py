"""Command line: ``run`` (all workloads) and ``compare`` (two result files)."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from benchmarks.suite import compare, spec
from benchmarks.suite.harness import measure


def _format(value) -> str:
    if value is None:
        return "null"
    return f"{value:,.4f}" if abs(value) < 1000 else f"{value:,.1f}"


def print_report(result: dict, stream=sys.stdout) -> None:
    """Every metric by name with its unit, then one verdict line each.

    In brackets: the same quantity from single repetitions, lowest to
    highest, and how many there were.
    """
    for name, workload in result["workloads"].items():
        print(f"\n== {name}: {workload['op_count']:,} ops/repetition, "
              f"stream {workload['stream_hash']}", file=stream)
        for section in ("end_to_end", "per_layer"):
            stats = workload.get(section, {})
            idle = [m for m, stat in stats.items() if stat["value"] == 0]
            for metric, stat in stats.items():
                if metric in idle and section == "per_layer":
                    continue
                spread = ""
                if stat["samples"] > 1:
                    spread = (f"  [{_format(stat['min'])} .. "
                              f"{_format(stat['max'])}] n={stat['samples']}")
                print(f"  {metric:<54} {_format(stat['value']):>14} "
                      f"{stat['unit']}{spread}", file=stream)
            if idle and section == "per_layer":
                print(f"  ({len(idle)} per-layer metrics read 0 here: the "
                      f"workload bypasses those layers)", file=stream)
        if "layer_share" in workload:
            shares = ", ".join(f"{layer} {share:.1%}" for layer, share in sorted(
                workload["layer_share"].items(), key=lambda item: -item[1]))
            print(f"  traced op time by layer (self time): {shares}", file=stream)
    print(file=stream)
    for name, workload in result["workloads"].items():
        print(f"oracle {name}: {workload['verdict']} "
              f"({workload['failed']} of {workload['attempted']:,} ops failed)",
              file=stream)


def run_command(args) -> int:
    result = measure(list(spec.WORKLOADS), args.seed, trace=args.trace,
                     smoke=args.smoke)
    print_report(result)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 1 if any(w["failed"] for w in result["workloads"].values()) else 0


def driver_line(workload: dict, traced: bool) -> dict:
    """The ``BENCHMARK.json`` contract's result object for one workload."""
    section = workload["per_layer" if traced else "end_to_end"]
    return {
        "correct": workload["failed"] == 0,
        "attempted": workload["attempted"],
        "failed": workload["failed"],
        # An entry point that no longer resolves reads as 0 here (the line
        # carries numbers only); ``run --out`` keeps the null.
        "metrics": {
            name: {"value": stat["value"] if stat["value"] is not None else 0.0,
                   "unit": stat["unit"]}
            for name, stat in section.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure every workload")
    run.add_argument("--seed", type=int, default=12)
    run.add_argument("--trace", action="store_true",
                     help="add a traced group (the per-layer metrics)")
    run.add_argument("--smoke", action="store_true",
                     help="op counts / 50, one repetition per group")
    run.add_argument("--out", help="write the result file here")
    run.set_defaults(handler=run_command)
    cmp_parser = commands.add_parser("compare", help="judge B against A")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    cmp_parser.set_defaults(handler=compare.compare_command)
    args = parser.parse_args(argv)
    return args.handler(args)
