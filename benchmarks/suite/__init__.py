"""The repo's benchmark: five workloads over the four user paths.

``python -m benchmarks.suite run`` measures every workload end to end and
(with ``--trace``) layer by layer; ``python -m benchmarks.suite compare``
judges one result file against another.  ``run.py`` is the single-workload
entry point named by the root ``BENCHMARK.json``.  See ``README.md`` here.
"""
