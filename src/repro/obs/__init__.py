"""The unified observability layer: metrics registry + evaluation tracing.

Every subsystem reports through one :class:`MetricsRegistry` under the
``repro_<subsystem>_<name>`` naming scheme, and the legacy stats surfaces
(:class:`~repro.engine.statistics.EngineStatistics`, plan-cache counters,
:class:`~repro.distributed.metrics.SyncReport` rows) are thin views over
it.  :class:`Tracer` produces the nested span trees behind
``Database.trace_last_query()`` and SQL ``EXPLAIN ANALYZE``.

Dependency-free by design: :mod:`repro.obs` imports nothing from the rest
of the package, so every layer (core, engine, sql, distributed, cli) can
instrument itself without cycles.

Quick start::

    from repro import Database

    db = Database()
    ...
    print(db.metrics.to_prom_text())      # every family, Prometheus format
    db.session().execute("EXPLAIN ANALYZE SELECT ...")  # per-operator spans
"""

from repro.obs.registry import (
    DEFAULT_BUCKETS,
    OVERFLOW_LABEL,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import NOOP_SPAN, Span, Tracer

__all__ = [
    "DEFAULT_BUCKETS",
    "OVERFLOW_LABEL",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "Span",
    "Tracer",
]
