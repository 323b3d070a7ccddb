"""``PYTHONPATH=src python -m benchmarks.suite run|compare``."""

from benchmarks.suite.cli import main

raise SystemExit(main())
