"""Self-tests of the benchmark suite (``python -m pytest benchmarks/suite/tests``)."""
