"""End-to-end loosely-coupled maintenance simulations.

Two scenario classes, both deterministic given their seeds:

* :class:`ReplicationSimulation` (experiment D1) -- a server relation is
  replicated to a remote client over an unreliable link; compares the
  **explicit-delete** baseline, **periodic snapshots**, and
  **expiration-based** maintenance on traffic and consistency.
* :class:`DifferenceViewSimulation` (experiments TH3 / S34b over a
  network) -- a client materialises a *difference* view and keeps it
  correct by **recompute-on-invalid**, **Schrödinger** (recompute only
  when a query actually lands in an invalid gap), or the Theorem-3
  **patch stream** shipped up front.

Both accept the fault-tolerance stack as configuration:

* ``reliability=ReliabilityConfig(...)`` runs every data message through
  the reliable session layer (sequence numbers, acks on a reverse link,
  expiration-aware retransmission);
* ``anti_entropy=AntiEntropyConfig(...)`` (replication only) adds the
  periodic digest/repair exchange;
* ``faults=FaultSchedule([...])`` injects scripted crashes, link flaps,
  and loss bursts.

When any of the three is configured (or ``track_convergence=True``), the
simulation probes client-vs-truth divergence every ``probe_period`` ticks
and fills the :class:`SyncReport` convergence fields: the divergence
windows as an :class:`IntervalSet`, time-to-convergence, max staleness,
retransmissions sent, and retransmissions avoided via expiration.

The workload format is a list of ``(time, row, expires_at)`` insertions;
see :mod:`repro.workloads` for generators.
"""

from __future__ import annotations

import enum
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.intervals import IntervalSet
from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.timestamps import Timestamp, ts
from repro.core.tuples import Row
from repro.distributed.anti_entropy import (
    AntiEntropyConfig,
    bucket_hashes,
    diff_digests,
)
from repro.distributed.client import DifferenceViewClient, Replica
from repro.distributed.events import EventQueue
from repro.distributed.faults import FaultSchedule
from repro.distributed.link import Link
from repro.distributed.metrics import SyncReport
from repro.obs.registry import MetricsRegistry
from repro.distributed.protocols import (
    Ack,
    DeleteNotice,
    Digest,
    Envelope,
    Message,
    PatchShipment,
    RecomputeRequest,
    RecomputeResponse,
    RepairRequest,
    RepairResponse,
    Snapshot,
    TupleInsert,
)
from repro.distributed.reliability import (
    ReliabilityConfig,
    ReliableReceiver,
    ReliableSender,
)
from repro.distributed.server import DifferenceViewServer, OriginServer
from repro.errors import SimulationError

__all__ = [
    "ReplicationStrategy",
    "ReplicationSimulation",
    "ViewMaintenanceStrategy",
    "DifferenceViewSimulation",
    "FanOutSimulation",
    "WorkloadEntry",
]

#: One workload insertion: (arrival time, row, expiration time).
WorkloadEntry = Tuple[int, Row, int]
#: How long a message matters to the reliable sender, and the channel
#: whose pending send it supersedes.
_Terms = Tuple[Optional[Timestamp], Optional[str]]


def _mirror_link(link: Link, seed_shift: int = 7919) -> Link:
    """A reverse link with the same characteristics as ``link``.

    Partitions are shared (a flap usually severs both directions); the
    RNG is independently seeded so loss/jitter draws do not correlate.
    """
    partitions = [
        (iv.start.value, iv.end.value if iv.end.is_finite else None)
        for iv in link.down_times
    ]
    return Link(
        latency=link.latency,
        jitter=link.jitter,
        loss_probability=link.loss_probability,
        partitions=partitions,
        queue_during_partition=link.queue_during_partition,
        seed=link.seed + seed_shift,
        bandwidth=link.bandwidth,
    )


class _ConvergenceTracker:
    """Samples client-vs-truth divergence into half-open windows."""

    def __init__(self) -> None:
        self.pairs: List[Tuple[int, int]] = []
        self._open_since: Optional[int] = None

    def observe(self, at: Timestamp, diverged: bool) -> None:
        tick = at.value
        if diverged and self._open_since is None:
            self._open_since = tick
        elif not diverged and self._open_since is not None:
            self.pairs.append((self._open_since, tick))
            self._open_since = None

    def fill(self, report: SyncReport, horizon: int, quiesced_at: int) -> None:
        """Close any open window at the horizon and report the windows."""
        report.converged = self._open_since is None
        if not report.converged:
            self.pairs.append((self._open_since, horizon + 1))
            self._open_since = None
        report.divergence = IntervalSet.from_pairs(self.pairs)
        report.divergence_ticks = sum(end - start for start, end in self.pairs)
        report.max_staleness = max(
            (end - start for start, end in self.pairs), default=0
        )
        report.converged_at = self.pairs[-1][1] if self.pairs else None
        if report.converged and report.converged_at is not None:
            report.convergence_lag = max(0, report.converged_at - quiesced_at)
        report.detail["divergence_windows"] = list(self.pairs)


class _Channel:
    """The server->client channel both scenarios run over.

    It owns the forward link, the reverse link (mirrored from the forward
    one when acks or repair requests need it), the scripted faults, the
    reliable sender/receiver pair, node crashes, convergence probes and
    the report's traffic columns.  A scenario subclass brings the rest:
    its ``client`` and ``server``; ``_apply_payload(message, at)``, what
    a delivered payload does; ``_delivery_terms(message)``, the
    ``(expires_at, channel)`` the reliable sender gets; ``_schedule
    (horizon)``, its own events; ``_truth(at)``, the rows the client
    should see; ``_horizon()``, when its run is over; and optionally what
    a query or a state-losing restart does beyond the defaults.
    """

    def __init__(self, strategy: enum.Enum, link: Link,
                 reliability: Optional[ReliabilityConfig],
                 faults: Optional[FaultSchedule], back_link: Optional[Link],
                 track_convergence: Optional[bool], probe_period: int,
                 horizon: Optional[int], metrics: Optional[MetricsRegistry],
                 reverse_traffic: bool) -> None:
        if probe_period < 1:
            raise SimulationError(f"probe_period must be >= 1, got {probe_period}")
        #: When given, :meth:`run` publishes the final report here under
        #: the ``repro_replication_*`` families (pass ``db.metrics`` to
        #: land the simulation next to the engine's counters).
        self.metrics = metrics
        self.strategy = strategy
        self.link = link
        self.reliability = reliability
        self.faults = faults if faults is not None else FaultSchedule()
        self.probe_period = probe_period
        self._horizon_override = horizon
        self.track_convergence = (
            bool(reverse_traffic or len(self.faults))
            if track_convergence is None else track_convergence
        )
        # The reverse channel exists whenever something needs to travel
        # client -> server (acks, repair requests).
        if back_link is None and reverse_traffic:
            back_link = _mirror_link(self.link)
        self.back_link: Optional[Link] = back_link
        links = [self.link] + ([self.back_link] if self.back_link else [])
        self.faults.apply_to_links(links)
        self.events = EventQueue()
        self.report = SyncReport(strategy=strategy.value)
        self._crashed = False
        self._crash_drops = 0
        self._tracker = _ConvergenceTracker()
        self._sender: Optional[ReliableSender] = None
        self._receiver: Optional[ReliableReceiver] = None
        if reliability is not None:
            self._sender = ReliableSender(self._transmit, self.events,
                                          reliability.retry, reliability.seed)
            self._receiver = ReliableReceiver(
                self._apply_payload, self._send_ack, stats=self._sender.stats
            )

    # -- scenario hooks with a default --------------------------------------

    def _quiesced_at(self) -> int:
        return max(self.faults.last_activity(), 0)

    def _prepare_answer(self, at: Timestamp) -> None:
        """Runs before a live client answers a query."""

    def _on_state_lost(self, at: Timestamp) -> None:
        """Runs after a restart that lost the client's state."""

    # -- transport ------------------------------------------------------------

    def _send(self, message: Message, now: Timestamp) -> None:
        """The server's outbound hook: raw or through the session layer."""
        if self._sender is None:
            self._transmit(message, now)
            return
        expires_at, channel = self._delivery_terms(message)
        self._sender.send(message, now, expires_at=expires_at, channel=channel)

    def _transmit(self, message: Message, now: Timestamp) -> None:
        """Put one server->client message on the forward link."""
        size = message.size_cells()
        arrival = self.link.transmit(now, size)
        if arrival is None:
            return

        def deliver(at: Timestamp, message=message, size=size) -> None:
            if self._crashed:
                self._crash_drops += 1
                return
            self.link.record_delivery(size)
            if self._receiver is not None and isinstance(message, Envelope):
                self._receiver.on_envelope(message, at)
            else:
                self._apply_payload(message, at)

        self.events.schedule(arrival, deliver)

    def _up_link(self) -> Link:
        """Client->server traffic travels on the reverse link when it exists."""
        return self.back_link if self.back_link is not None else self.link

    def _send_up(self, message: Message, at: Timestamp, on_arrival) -> None:
        """Client -> server: ``message`` over :meth:`_up_link`;
        ``on_arrival(when)`` runs if it gets there."""
        up = self._up_link()
        size = message.size_cells()
        arrival = up.transmit(at, size)
        if arrival is None:
            return

        def deliver(when: Timestamp) -> None:
            up.record_delivery(size)
            on_arrival(when)

        self.events.schedule(arrival, deliver)

    def _send_ack(self, ack: Ack, at: Timestamp) -> None:
        self._send_up(ack, at, lambda when: self._sender.on_ack(ack, when))

    # -- faults -----------------------------------------------------------------

    def _schedule_crashes(self) -> None:
        for crash in self.faults.crashes:
            self.events.schedule(crash.at, self._crash)
            self.events.schedule(
                crash.restart_at,
                lambda at, lose=crash.lose_state: self._restart(at, lose),
            )

    def _crash(self, at: Timestamp) -> None:
        self._crashed = True

    def _restart(self, at: Timestamp, lose_state: bool) -> None:
        self._crashed = False
        if lose_state:
            self.client.reset_state()
            if self._receiver is not None:
                self._receiver.reset()
            self._on_state_lost(at)

    # -- run ------------------------------------------------------------------

    def run(self) -> SyncReport:
        """Execute the scenario; returns the traffic/consistency report."""
        horizon = self._horizon_override
        if horizon is None:
            horizon = self._horizon()
        self._schedule(horizon)
        self._schedule_crashes()
        if self.track_convergence:
            for when in range(self.events.now.value, horizon + 1, self.probe_period):
                self.events.schedule(when, self._probe)
        self.events.run_until(horizon)
        self._fill_report(horizon)
        if self.metrics is not None:
            self.report.publish(self.metrics)
        return self.report

    def _run_query(self, at: Timestamp) -> None:
        truth = self._truth(at)
        self.report.queries += 1
        if self._crashed:
            # The client is down: the query goes unanswered, which we
            # count as wrong-by-omission (everything live is missing).
            self.report.incorrect_answers += 1
            self.report.missing_tuples += len(truth)
            return
        self._prepare_answer(at)
        seen = self.client.visible_rows(at)
        if seen == truth:
            self.report.correct_answers += 1
        else:
            self.report.incorrect_answers += 1
            self.report.missing_tuples += len(truth - seen)
            self.report.extra_tuples += len(seen - truth)

    def _probe(self, at: Timestamp) -> None:
        truth = self._truth(at)
        seen = set() if self._crashed else self.client.visible_rows(at)
        self._tracker.observe(at, seen != truth)

    def _fill_report(self, horizon: int) -> None:
        stats = self.link.stats
        self.report.messages = stats.messages_sent
        self.report.cells = stats.cells_sent
        self.report.messages_lost = stats.messages_lost
        self.report.detail = dict(stats.as_dict())
        if self.back_link is not None:
            back = self.back_link.stats
            self.report.messages += back.messages_sent
            self.report.cells += back.cells_sent
            self.report.messages_lost += back.messages_lost
            self.report.detail["back"] = back.as_dict()
        if self._sender is not None:
            session = self._sender.stats
            self.report.retransmissions = session.retransmissions
            self.report.retransmissions_avoided = session.retransmissions_avoided
            self.report.cells_avoided = session.cells_avoided
            self.report.acks = session.acks_sent
            self.report.detail["session"] = session.as_dict()
        if self._crash_drops:
            self.report.detail["crash_drops"] = self._crash_drops
        if self.track_convergence:
            self._tracker.fill(self.report, horizon, self._quiesced_at())


class ReplicationStrategy(enum.Enum):
    """How a replicated base relation is kept in sync (experiment D1)."""

    EXPLICIT_DELETE = "explicit_delete"
    PERIODIC_SNAPSHOT = "periodic_snapshot"
    EXPIRATION = "expiration"


class ReplicationSimulation(_Channel):
    """Server-to-client replication of one relation under a strategy."""

    def __init__(
        self,
        schema: Schema | Sequence[str],
        workload: Sequence[WorkloadEntry],
        query_times: Sequence[int],
        strategy: ReplicationStrategy,
        link: Optional[Link] = None,
        snapshot_period: int = 10,
        client_skew: int = 0,
        reliability: Optional[ReliabilityConfig] = None,
        anti_entropy: Optional[AntiEntropyConfig] = None,
        faults: Optional[FaultSchedule] = None,
        back_link: Optional[Link] = None,
        track_convergence: Optional[bool] = None,
        probe_period: int = 1,
        horizon: Optional[int] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        super().__init__(
            strategy, link if link is not None else Link(), reliability,
            faults, back_link, track_convergence, probe_period, horizon,
            metrics, reverse_traffic=bool(reliability or anti_entropy),
        )
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        self.workload = sorted(workload, key=lambda entry: entry[0])
        self.query_times = sorted(query_times)
        self.snapshot_period = snapshot_period
        self.anti_entropy = anti_entropy
        self.client = Replica("client", self.schema, clock_skew=client_skew)
        self.server = OriginServer("server", self.schema, self._send)
        self._lifetimes: Dict[Row, Timestamp] = {}

    # -- payloads ---------------------------------------------------------------

    def _delivery_terms(self, message: Message) -> _Terms:
        """When the *sender* knows this message stops mattering.

        For expiration-shipped inserts the lifetime is in the message; for
        baseline inserts the server still knows it locally (the replica
        does not).  A delete notice never stops mattering -- the baseline
        must deliver it reliably, forever; that asymmetry is the paper's
        point.  A snapshot supersedes the one before it.
        """
        if isinstance(message, TupleInsert):
            if message.expires_at is not None:
                return message.expires_at, None
            return self._lifetimes.get(message.row), None
        if isinstance(message, Snapshot):
            return None, "snapshot"
        return None, None

    def _apply_payload(self, message: Message, at: Timestamp) -> None:
        """Hand one (deduplicated) payload to the replica."""
        if isinstance(message, TupleInsert):
            self.client.on_insert(message, at)
        elif isinstance(message, DeleteNotice):
            self.client.on_delete(message, at)
        elif isinstance(message, Snapshot):
            self.client.on_snapshot(message, at)
        elif isinstance(message, Digest):
            self._on_client_digest(message, at)
        elif isinstance(message, RepairResponse):
            assert self.anti_entropy is not None
            changed = self.client.on_repair(message, at, self.anti_entropy.num_buckets)
            if changed:
                self.report.repairs_applied += 1
        else:
            raise SimulationError(f"unexpected message {message!r}")

    # -- anti-entropy ----------------------------------------------------------

    def _send_digest(self, at: Timestamp) -> None:
        assert self.anti_entropy is not None
        digest = self.server.make_digest(at, self.anti_entropy.num_buckets)
        self.report.digests += 1
        self._transmit(digest, at)

    def _on_client_digest(self, digest: Digest, at: Timestamp) -> None:
        """Client compares bucket hashes and pulls diverged buckets."""
        assert self.anti_entropy is not None and self.back_link is not None
        mine = bucket_hashes(
            self.client.relation.exp_at(digest.at).rows(), digest.num_buckets
        )
        mismatched = diff_digests(mine, dict(digest.buckets))
        if not mismatched:
            return

        def serve(when: Timestamp) -> None:
            response = self.server.make_repair(
                when,
                mismatched,
                self.anti_entropy.num_buckets,
                with_expirations=self.strategy is ReplicationStrategy.EXPIRATION,
            )
            self._transmit(response, when)

        self._send_up(RepairRequest(buckets=mismatched), at, serve)

    # -- schedule -------------------------------------------------------------

    def _schedule(self, horizon: int) -> None:
        for time, row, expires_at in self.workload:
            self.events.schedule(time, self._make_insert(row, ts(expires_at)))
        if self.strategy is ReplicationStrategy.PERIODIC_SNAPSHOT:
            for snap_time in range(
                self.snapshot_period, horizon + 1, self.snapshot_period
            ):
                self.events.schedule(
                    snap_time,
                    lambda at: self.server.send_snapshot(at, with_expirations=False),
                )
        for query_time in self.query_times:
            self.events.schedule(query_time, self._run_query)
        if self.anti_entropy is not None:
            for when in range(
                self.anti_entropy.period, horizon + 1, self.anti_entropy.period
            ):
                self.events.schedule(when, self._send_digest)

    def _make_insert(self, row: Row, expires_at: Timestamp):
        def action(at: Timestamp) -> None:
            self._lifetimes[row] = expires_at
            if self.strategy is ReplicationStrategy.EXPIRATION:
                self.server.insert_expiration_based(row, expires_at, at)
            elif self.strategy is ReplicationStrategy.EXPLICIT_DELETE:
                self.server.insert_explicit_delete(row, expires_at, at)
                if expires_at.is_finite:
                    self.events.schedule(
                        expires_at,
                        lambda when, row=row: self.server.delete_explicit(row, when),
                    )
            else:  # PERIODIC_SNAPSHOT
                self.server.insert_local_only(row, expires_at)

        return action

    def _truth(self, at: Timestamp) -> set:
        return self.server.live_rows(at)

    def _quiesced_at(self) -> int:
        latest = max((time for time, _, _ in self.workload), default=0)
        return max(latest, self.faults.last_activity())

    def _horizon(self) -> int:
        latest = 0
        for time, _, expires_at in self.workload:
            latest = max(latest, time, expires_at)
        if self.query_times:
            latest = max(latest, self.query_times[-1])
        latest = max(latest, self.faults.last_activity())
        margin = self.link.latency + self.link.jitter + 1
        if self.reliability is not None:
            margin += self.reliability.retry.max_total_delay()
        if self.anti_entropy is not None:
            margin += 2 * self.anti_entropy.period + 2 * self.link.latency
        return latest + margin


class FanOutSimulation:
    """One server publishing a relation to *many* heterogeneous clients.

    The paper's open-architecture setting ("servers or lists"): each client
    has its own link (latency, loss, partitions) and possibly skewed clock.
    Under the explicit-delete baseline the server's deletion traffic scales
    with (clients × expirations); under expiration-based maintenance it is
    exactly (clients × inserts) and consistency survives any partition.

    The fault-tolerance stack applies uniformly: each client simulation
    gets its own session (seeded per client) over the shared configs.
    """

    def __init__(
        self,
        schema: Schema | Sequence[str],
        workload: Sequence[WorkloadEntry],
        query_times: Sequence[int],
        strategy: ReplicationStrategy,
        links: Sequence[Link],
        client_skews: Optional[Sequence[int]] = None,
        reliability: Optional[ReliabilityConfig] = None,
        anti_entropy: Optional[AntiEntropyConfig] = None,
        faults: Optional[FaultSchedule] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        if not links:
            raise SimulationError("a fan-out needs at least one client link")
        skews = list(client_skews or [0] * len(links))
        if len(skews) != len(links):
            raise SimulationError("client_skews must match links in length")
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        self.workload = sorted(workload, key=lambda entry: entry[0])
        self.query_times = sorted(query_times)
        self.strategy = strategy
        self.metrics = metrics
        self.simulations = [
            ReplicationSimulation(
                self.schema, self.workload, self.query_times, strategy,
                link=link, client_skew=skew,
                reliability=reliability and replace(
                    reliability, seed=reliability.seed + index
                ),
                anti_entropy=anti_entropy,
                faults=faults,
            )
            for index, (link, skew) in enumerate(zip(links, skews))
        ]

    def run(self) -> SyncReport:
        """Run every client's replication; returns the aggregate report."""
        reports = [simulation.run() for simulation in self.simulations]
        total = SyncReport(strategy=f"fanout:{self.strategy.value}")
        for report in reports:
            total.merge(report)
        total.detail = {
            "clients": len(reports),
            "worst_client_consistency": round(
                min(report.consistency for report in reports), 4
            ),
        }
        if self.metrics is not None:
            total.publish(self.metrics)
        return total


class ViewMaintenanceStrategy(enum.Enum):
    """How a remote difference view stays correct."""

    #: Request a fresh materialisation whenever ``texp(e)`` passes.
    RECOMPUTE_ON_INVALID = "recompute_on_invalid"

    #: Request a fresh materialisation only when a query lands in an
    #: invalid gap of the Schrödinger validity set.
    SCHRODINGER = "schrodinger"

    #: Theorem 3: ship materialisation + patch queue once; never ask again.
    PATCH = "patch"


class DifferenceViewSimulation(_Channel):
    """A remote client maintaining ``R −exp S`` under a strategy.

    The base relations are fixed at simulation start (the paper's
    no-updates assumption); everything that happens afterwards is driven
    purely by expirations -- which is exactly the regime where the three
    strategies differ.  The fault-tolerance stack (``reliability``,
    ``faults``) wraps the server->client data channel; a state-losing
    crash is where the strategies' recovery stories diverge: recompute /
    Schrödinger clients re-request on demand, a patch client has nothing
    left to patch and stays diverged (the Theorem-3 contract assumes the
    queue survives).
    """

    def __init__(
        self,
        left: Relation,
        right: Relation,
        query_times: Sequence[int],
        strategy: ViewMaintenanceStrategy,
        link: Optional[Link] = None,
        reliability: Optional[ReliabilityConfig] = None,
        faults: Optional[FaultSchedule] = None,
        back_link: Optional[Link] = None,
        track_convergence: Optional[bool] = None,
        probe_period: int = 1,
        horizon: Optional[int] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        left.schema.check_union_compatible(right.schema)
        super().__init__(
            strategy, link if link is not None else Link(latency=0),
            reliability, faults, back_link, track_convergence, probe_period,
            horizon, metrics, reverse_traffic=bool(reliability),
        )
        self.left = left
        self.right = right
        self.query_times = sorted(query_times)
        self.client = DifferenceViewClient("client", left.schema)
        self.server = DifferenceViewServer("server", left, right, self._send)

    # -- payloads ---------------------------------------------------------------

    def _delivery_terms(self, message: Message) -> _Terms:
        if isinstance(message, RecomputeResponse):
            # A response whose view has since expired is not worth
            # retransmitting: the client will have to re-request anyway.
            return message.expires_at, f"view:{message.view_name}"
        return None, None

    def _apply_payload(self, message: Message, at: Timestamp) -> None:
        if isinstance(message, RecomputeResponse):
            self.client.on_view_state(message, at)
        elif isinstance(message, PatchShipment):
            self.client.on_patches(message, at)
        else:
            raise SimulationError(f"unexpected message {message!r}")

    def _request_recompute(self, at: Timestamp) -> None:
        """Client -> server: please re-materialise (counted as traffic)."""
        self.report.recompute_requests += 1
        self._send_up(RecomputeRequest(view_name="diff"), at,
                      self.server.ship_materialisation)

    def _on_state_lost(self, at: Timestamp) -> None:
        if self.strategy is ViewMaintenanceStrategy.RECOMPUTE_ON_INVALID:
            # The invalidation watcher died with the old state; restart it
            # with a fresh materialisation.
            self._request_recompute(at)
            self.events.schedule(
                at + self.link.latency * 2 + 1, self._schedule_next_invalidation
            )
        # Schrödinger recovers on the next query (empty validity forces a
        # round trip); PATCH has no recovery path by design.

    # -- schedule ---------------------------------------------------------------

    def _schedule(self, horizon: int) -> None:
        # Initial shipment at time 0, installed synchronously (the client
        # bootstraps before any query arrives); traffic is still counted.
        self._install_state_synchronously(ts(0))
        if self.strategy is ViewMaintenanceStrategy.PATCH:
            self.report.patches_shipped = self.server.ship_patches(ts(0))
            self.events.run_until(self.link.latency + self.link.jitter)

        if self.strategy is ViewMaintenanceStrategy.RECOMPUTE_ON_INVALID:
            self.events.schedule(self.events.now, self._schedule_next_invalidation)

        for query_time in self.query_times:
            # Under PATCH the patch shipment consumed a little simulated
            # time; earlier query times degrade to "as soon as possible".
            effective = query_time if self.events.now < query_time else self.events.now
            self.events.schedule(effective, self._run_query)

    def _schedule_next_invalidation(self, at: Timestamp) -> None:
        expiration = self.client.expiration
        if expiration.is_finite:
            # The expiration may already have passed while the response was
            # in flight; refresh immediately in that case.
            when = expiration if self.events.now < expiration else self.events.now
            self.events.schedule(when, self._on_invalidation)

    def _on_invalidation(self, at: Timestamp) -> None:
        self._request_recompute(at)
        # After the fresh state arrives, watch for the next invalidation.
        self.events.schedule(
            at + self.link.latency * 2 + 1, self._schedule_next_invalidation
        )

    def _install_state_synchronously(self, at: Timestamp) -> None:
        """Full refresh with immediate installation; traffic still counted."""
        response = self.server.materialise(at)
        self.link.record_send(response.size_cells())
        self.link.record_delivery(response.size_cells())
        self.client.on_view_state(response, at)

    def _prepare_answer(self, at: Timestamp) -> None:
        if (
            self.strategy is ViewMaintenanceStrategy.SCHRODINGER
            and not self.client.can_answer_locally(at)
        ):
            # Synchronous round trip: the query waits for the fresh state.
            request = RecomputeRequest(view_name="diff")
            up = self._up_link()
            up.record_send(request.size_cells())
            up.record_delivery(request.size_cells())
            self.report.recompute_requests += 1
            self._install_state_synchronously(at)
            self.client.remote_answers += 1
        else:
            self.client.local_answers += 1

    def _truth(self, at: Timestamp) -> set:
        return self.server.truth_at(at)

    def _horizon(self) -> int:
        latest = max(self.query_times, default=0)
        for relation in (self.left, self.right):
            for _, texp in relation.items():
                if texp.is_finite:
                    latest = max(latest, texp.value)
        latest = max(latest, self.faults.last_activity())
        margin = self.link.latency + self.link.jitter + 2
        if self.reliability is not None:
            margin += self.reliability.retry.max_total_delay()
        return latest + margin
