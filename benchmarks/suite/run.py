"""The entry point ``BENCHMARK.json`` names.

``python3 benchmarks/suite/run.py --workload W --seed N --seconds S
--trace 0|1`` measures one workload and prints one JSON object as the
last line of standard output: every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``.  It needs nothing on
``PYTHONPATH``; it fails (non-zero, no result) where ``src/`` is absent.
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.suite import spec  # noqa: E402
from benchmarks.suite.cli import driver_line, print_report  # noqa: E402
from benchmarks.suite.harness import measure  # noqa: E402


def main() -> int:
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").exists():
        print("benchmarks.suite: src/repro is not in this checkout",
              file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = measure([args.workload], args.seed, args.seconds,
                     trace=bool(args.trace))
    print_report(result, stream=sys.stderr)
    line = driver_line(result["workloads"][args.workload], bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
