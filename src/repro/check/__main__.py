"""CI smoke entry point: ``python -m repro.check --ops 2000 --seed N``.

Runs the stateful fuzzer (both removal policies by default) with the full
invariant catalogue armed after every operation, prints one summary line
per run plus the ``repro_check_*`` families and the lookup count, and --
on failure -- the shrunk minimal reproducing op sequence.  Exit 1 on any failure,
so the CI step fails loudly with the repro in the log.
"""

from __future__ import annotations

import argparse
import sys

from repro.check.stateful import run_fuzz
from repro.obs.registry import MetricsRegistry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Stateful differential fuzz + invariant audit smoke run.",
    )
    parser.add_argument(
        "--ops", type=int, default=2000,
        help="operations per run (default: 2000)",
    )
    parser.add_argument(
        "--seed", type=int, default=20060405,
        help="PRNG seed (default: 20060405)",
    )
    parser.add_argument(
        "--policy", choices=("eager", "lazy", "both"), default="both",
        help="removal policy to exercise (default: both)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="report failures without minimising them",
    )
    parser.add_argument(
        "--crash-points", action="store_true",
        help="run on a write-ahead log and inject simulated crashes, "
             "torn log tails, and checkpoints",
    )
    args = parser.parse_args(argv)

    registry = MetricsRegistry()
    policies = ("eager", "lazy") if args.policy == "both" else (args.policy,)
    failed = False
    for policy in policies:
        report = run_fuzz(
            args.seed,
            ops=args.ops,
            policy=policy,
            registry=registry,
            shrink=not args.no_shrink,
            crash_points=args.crash_points,
        )
        print(report.summary())
        failed = failed or not report.ok

    print()
    for line in registry.to_prom_text().splitlines():
        if "repro_check" in line or "lookup_probes" in line:
            print(line)
        elif args.crash_points and "repro_wal" in line:
            print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
