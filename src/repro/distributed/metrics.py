"""Result records for the distributed experiments.

Since the observability redesign a :class:`SyncReport` is *exported*, not
hand-tabulated: :meth:`SyncReport.publish` writes every field into a
:class:`~repro.obs.registry.MetricsRegistry` under the
``repro_replication_*`` families, labelled by strategy, and the two
tabular views (:meth:`summary_row`, :meth:`fault_tolerance_row`) derive
their shared columns from one registry snapshot instead of re-deriving
them independently -- the rows and the Prometheus dump can no longer
disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.intervals import IntervalSet
from repro.obs.registry import MetricsRegistry

__all__ = [
    "SyncReport",
    "REPLICATION_COUNTERS",
    "REPLICATION_GAUGES",
    "declare_replication_families",
]

#: SyncReport field -> (counter family, help).  Counters accumulate across
#: published runs (two simulations with the same strategy sum up).
REPLICATION_COUNTERS: Dict[str, tuple] = {
    "queries": (
        "repro_replication_queries_total",
        "Client queries probed against server-side ground truth."),
    "correct_answers": (
        "repro_replication_correct_answers_total",
        "Probed queries whose visible row set matched ground truth."),
    "incorrect_answers": (
        "repro_replication_incorrect_answers_total",
        "Probed queries that diverged from ground truth."),
    "missing_tuples": (
        "repro_replication_missing_tuples_total",
        "Ground-truth rows absent from the client across all probes."),
    "extra_tuples": (
        "repro_replication_extra_tuples_total",
        "Client rows already gone from ground truth (the dangerous kind)."),
    "messages": (
        "repro_replication_messages_total",
        "Frames shipped over the link(s) in both directions, acks excluded."),
    "bytes": (
        "repro_replication_bytes_total",
        "Bytes of the frames counted in messages."),
    "messages_lost": (
        "repro_replication_messages_lost_total",
        "Frames dropped by the link(s), acks included."),
    "recompute_requests": (
        "repro_replication_recompute_requests_total",
        "Refetches of a full snapshot requested by clients."),
    "patches_shipped": (
        "repro_replication_patches_shipped_total",
        "Theorem-3 patches shipped in a subscription's first snapshot."),
    "retransmissions": (
        "repro_replication_retransmissions_total",
        "Reliable-session retransmissions actually sent."),
    "retransmissions_avoided": (
        "repro_replication_retransmissions_avoided_total",
        "Retransmissions cancelled because the tuple had already expired."),
    "cells_avoided": (
        "repro_replication_cells_avoided_total",
        "Rows of retransmission traffic avoided via expiration."),
    "acks": (
        "repro_replication_acks_total", "Acknowledgements sent."),
}

#: SyncReport field -> (gauge family, help).  Gauges describe the *last*
#: published run for a strategy (set, not accumulated).
REPLICATION_GAUGES: Dict[str, tuple] = {
    "consistency": (
        "repro_replication_consistency_ratio",
        "Fraction of probed queries answered correctly (last run)."),
    "divergence_ticks": (
        "repro_replication_divergence_window_ticks",
        "Total measure of client-vs-truth divergence windows (last run)."),
    "max_staleness": (
        "repro_replication_max_staleness_ticks",
        "Longest single divergence window (last run)."),
    "converged": (
        "repro_replication_converged",
        "Whether the final divergence window closed before the horizon "
        "(1 = converged, last run)."),
}


def declare_replication_families(registry: MetricsRegistry) -> None:
    """Idempotently register every ``repro_replication_*`` family.

    ``Database`` calls this so ``db.metrics.to_prom_text()`` always exposes
    the replication families (with their HELP/TYPE headers) even before a
    simulation has published into them.
    """
    for name, help_text in REPLICATION_COUNTERS.values():
        registry.counter(name, help_text, labels=("strategy",))
    for name, help_text in REPLICATION_GAUGES.values():
        registry.gauge(name, help_text, labels=("strategy",))


@dataclass
class SyncReport:
    """The outcome of one loosely-coupled maintenance run.

    * Traffic: ``messages`` counts the frames crossing the links in both
      directions after the subscription's handshake, ``bytes`` their
      size; acks are counted apart, in ``acks``.
    * Consistency: a query is *correct* when the client's visible row set
      equals the server-side ground truth at the query's global time;
      ``missing_tuples`` / ``extra_tuples`` sum the per-query set
      differences (extra tuples are the dangerous kind -- the client acts
      on data that no longer exists).
    * Convergence (filled when the simulation tracks it): ``divergence``
      is the set of time windows during which the replica differed from
      ground truth, sampled every probe tick; ``converged`` says whether
      the final window closed before the horizon; ``max_staleness`` is the
      longest single window and ``divergence_ticks`` their total measure.
    * Fault tolerance: ``retransmissions`` actually resent,
      ``retransmissions_avoided`` cancelled because the tuple had already
      expired (with ``cells_avoided`` the rows thereby not resent -- the
      paper-specific win).
    """

    strategy: str
    queries: int = 0
    correct_answers: int = 0
    incorrect_answers: int = 0
    missing_tuples: int = 0
    extra_tuples: int = 0
    messages: int = 0
    bytes: int = 0
    messages_lost: int = 0
    recompute_requests: int = 0
    patches_shipped: int = 0
    retransmissions: int = 0
    retransmissions_avoided: int = 0
    cells_avoided: int = 0
    acks: int = 0
    converged: bool = True
    converged_at: Optional[int] = None
    convergence_lag: Optional[int] = None
    divergence_ticks: int = 0
    max_staleness: int = 0
    divergence: Optional[IntervalSet] = None
    detail: Dict[str, object] = field(default_factory=dict)

    @property
    def consistency(self) -> float:
        """Fraction of queries answered correctly (1.0 = always consistent)."""
        if not self.queries:
            return 1.0
        return self.correct_answers / self.queries

    def merge(self, other: "SyncReport") -> None:
        """Add ``other``'s counters to this report's (a fan-out's total).

        Every counter family sums; the total has converged only if every
        part has.
        """
        for fld in REPLICATION_COUNTERS:
            setattr(self, fld, getattr(self, fld) + getattr(other, fld))
        self.converged = self.converged and other.converged

    # -- registry export -----------------------------------------------------

    def publish(self, registry: MetricsRegistry) -> None:
        """Write this report into ``registry``, labelled by strategy.

        Counter families accumulate across publishes; gauge families are
        set to this run's values.  Publishing into ``db.metrics`` puts the
        replication numbers next to the engine's in one Prometheus dump.
        """
        declare_replication_families(registry)
        for fld, (name, _) in REPLICATION_COUNTERS.items():
            value = getattr(self, fld)
            if value:
                registry.counter(name, labels=("strategy",)).labels(
                    self.strategy).inc(value)
        for fld, (name, _) in REPLICATION_GAUGES.items():
            registry.gauge(name, labels=("strategy",)).labels(
                self.strategy).set(
                    round(float(getattr(self, fld)), 6))

    def _published_snapshot(self) -> Dict[str, object]:
        """One registry snapshot of this report (the rows' single source).

        Both tabular views read the same published numbers, so a field can
        no longer be derived two different ways in two row methods.
        """
        registry = MetricsRegistry()
        self.publish(registry)
        snapshot = registry.snapshot()
        out: Dict[str, object] = {}
        for fld, (name, _) in {**REPLICATION_COUNTERS, **REPLICATION_GAUGES}.items():
            out[fld] = snapshot.get(f'{name}{{strategy="{self.strategy}"}}', 0)
        return out

    def summary_row(self) -> Dict[str, object]:
        """A flat dict for tabular bench output."""
        snap = self._published_snapshot()
        return {
            "strategy": self.strategy,
            "messages": snap["messages"],
            "bytes": snap["bytes"],
            "queries": snap["queries"],
            "consistency": round(float(snap["consistency"]), 4),
            "missing": snap["missing_tuples"],
            "extra": snap["extra_tuples"],
            "recompute_requests": snap["recompute_requests"],
        }

    def fault_tolerance_row(self) -> Dict[str, object]:
        """The convergence/robustness columns for the fault benches."""
        snap = self._published_snapshot()
        return {
            "strategy": self.strategy,
            "messages": snap["messages"],
            "bytes": snap["bytes"],
            "lost": snap["messages_lost"],
            "retransmissions": snap["retransmissions"],
            "retrans_avoided": snap["retransmissions_avoided"],
            "cells_avoided": snap["cells_avoided"],
            "consistency": round(float(snap["consistency"]), 4),
            "converged": self.converged,
            "converged_at": self.converged_at,
            "divergence_ticks": snap["divergence_ticks"],
            "max_staleness": snap["max_staleness"],
        }
