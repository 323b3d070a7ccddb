"""Operational counters for the engine -- a view over the metrics registry.

The benchmarks quantify the paper's claims ("leaner application code, lower
transaction volume, smaller databases") by reading these counters: how many
explicit deletes were issued, how many expirations were processed eagerly
versus lazily, how often views were recomputed versus patched, and how many
tuples were shipped to remote nodes.

Since the observability redesign, :class:`EngineStatistics` no longer owns
its numbers: every attribute is a property over a counter family in a
:class:`~repro.obs.registry.MetricsRegistry` (``db.metrics`` is the single
source of truth), under the unified ``repro_<subsystem>_<name>_total``
naming scheme.  The attribute API is unchanged -- ``stats.inserts += 1``
still works and lands in the registry -- and :meth:`snapshot` now returns
a genuinely frozen :class:`StatisticsSnapshot`.  The counters are shared
registry state and are never zeroed: to measure an interval, take a
:meth:`snapshot` and :meth:`diff` against it.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.registry import MetricsRegistry

__all__ = ["EngineStatistics", "StatisticsSnapshot", "ENGINE_COUNTERS"]

#: field name -> (registry family name, help text).  The field order is the
#: stable reporting order ``as_dict`` has always promised.
ENGINE_COUNTERS: Dict[str, tuple] = {
    "inserts": (
        "repro_engine_inserts_total", "Rows inserted into base tables."),
    "explicit_deletes": (
        "repro_engine_explicit_deletes_total",
        "Explicit DELETEs issued (the traffic expiration times replace)."),
    "overrides": (
        "repro_engine_overrides_total",
        "Rows whose expiration was overridden (revocations, lockouts, "
        "admin corrections) -- last-write, not max-merge."),
    "touches": (
        "repro_engine_touches_total",
        "Renewal-on-touch hits on since-last-modification tables (each "
        "one restarted a live row's idle timer)."),
    "expirations_processed": (
        "repro_expiration_processed_total",
        "Tuples whose expiration was processed (eager drain or vacuum)."),
    "purge_passes": (
        "repro_expiration_purge_passes_total",
        "Expiration sweeps that had at least one due tuple."),
    "triggers_fired": (
        "repro_engine_triggers_fired_total", "ON-EXPIRE triggers fired."),
    "view_recomputations": (
        "repro_views_recomputations_total",
        "Materialised-view refreshes that re-ran the full expression."),
    "view_patches_applied": (
        "repro_views_patches_applied_total",
        "Tuples patched back into difference views (Theorem 3)."),
    "view_reads": (
        "repro_views_reads_total", "Materialised-view reads."),
    "view_reads_from_materialisation": (
        "repro_views_reads_from_materialisation_total",
        "View reads served from the stored result without base access."),
    "transactions_committed": (
        "repro_engine_transactions_committed_total", "Transactions committed."),
    "transactions_aborted": (
        "repro_engine_transactions_aborted_total", "Transactions aborted."),
}


class StatisticsSnapshot:
    """A frozen copy of every engine counter, for before/after diffing."""

    __slots__ = ("_values",)

    def __init__(self, values: Dict[str, int]) -> None:
        object.__setattr__(self, "_values", dict(values))

    def __getattr__(self, name: str) -> int:
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("StatisticsSnapshot is immutable")

    def as_dict(self) -> Dict[str, int]:
        """All counters by name (stable order for reporting)."""
        return dict(self._values)

    def __repr__(self) -> str:
        nonzero = {k: v for k, v in self._values.items() if v}
        return f"StatisticsSnapshot({nonzero!r})"


class EngineStatistics:
    """The engine's counters, backed by a metrics registry.

    Constructing one registers (idempotently) the engine counter families
    on ``registry`` -- or on a private registry when none is given, which
    keeps standalone :class:`~repro.engine.table.Table` objects working
    unchanged.  Keyword initial values are accepted for backward
    compatibility with the old dataclass constructor.
    """

    __slots__ = ("registry", "_counters")

    def __init__(self, registry: Optional[MetricsRegistry] = None, **initial: int) -> None:
        if registry is None:
            registry = MetricsRegistry()
        self.registry = registry
        self._counters = {
            field: registry.counter(name, help)
            for field, (name, help) in ENGINE_COUNTERS.items()
        }
        for field, value in initial.items():
            if field not in self._counters:
                raise TypeError(f"unknown counter {field!r}")
            self._counters[field].set(value)

    def as_dict(self) -> Dict[str, int]:
        """All counters by name (stable order for reporting)."""
        return {field: counter.value for field, counter in self._counters.items()}

    def snapshot(self) -> StatisticsSnapshot:
        """A frozen copy for before/after diffing."""
        return StatisticsSnapshot(self.as_dict())

    def diff(self, earlier) -> Dict[str, int]:
        """Counter deltas since ``earlier`` (only non-zero entries)."""
        result = {}
        for name, value in self.as_dict().items():
            delta = value - getattr(earlier, name)
            if delta:
                result[name] = delta
        return result


def _counter_property(field: str) -> property:
    def fget(self: EngineStatistics) -> int:
        return self._counters[field].value

    def fset(self: EngineStatistics, value: int) -> None:
        self._counters[field].set(value)

    return property(fget, fset, doc=ENGINE_COUNTERS[field][1])


for _field in ENGINE_COUNTERS:
    setattr(EngineStatistics, _field, _counter_property(_field))
del _field
