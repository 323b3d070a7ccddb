"""End-to-end loosely-coupled maintenance, on the served engine's own stack.

The simulator runs the production client/server pair a third way, beside
asyncio's sockets and the in-process loopback: a real
:class:`~repro.engine.database.Database` behind a
:class:`~repro.server.server.ReproServer`, whose connection core
(:class:`~repro.server.server.ServerEnd`) exchanges real
:mod:`repro.codec` frames with the client's frame loop
(:class:`~repro.server.client._WireSessionState`) over a pair of
deterministic, lossy :class:`~repro.distributed.link.Link` s on an
:class:`~repro.distributed.events.EventQueue`.  One frame is one link
message.  Deterministic given the links' seeds.

Three scenarios, whose strategies are configurations of that one stack:

* :class:`ReplicationSimulation` (experiment D1a) -- a server relation
  ``R`` reaches a remote client.  The origin's writes are local statements
  on the server, each followed by the pump.  **Expiration**: inserts carry
  their lifetime and the client subscribes to the view ``SELECT * FROM R``;
  **explicit delete**: inserts carry none and a ``DELETE`` of each row runs
  when its lifetime ends; **periodic snapshot**: the explicit-delete
  database, which the client queries (``SELECT * FROM R``) every
  ``snapshot_period`` ticks instead of subscribing.
* :class:`FanOutSimulation` -- the same, with many clients on one server,
  each over its own links and clock skew.
* :class:`DifferenceViewSimulation` (D1b) -- the client subscribes to
  ``R EXCEPT S`` materialised under the policy of the strategy's name.
  The server pushes whatever the view changed; under PATCH the snapshot
  carries the Theorem-3 queue and nothing follows it.

**Counting.**  ``hello`` / ``hello-ok`` come before the run and are not
counted.  The subscription's ``subscribe`` + ``sub-ok`` run synchronously
at t=0 (and after a state-losing restart): they are counted, and faults do
not apply to them.  ``messages`` counts every later frame in both
directions except acks, which go in ``acks``; ``bytes`` is the size of
the frames ``messages`` counts.

**Clocks.**  Each tick: the database advances to ``t`` and the server
pumps (what ``ADVANCE`` does); the origin's writes due at ``t`` run, each
with its pump; the tick's deliveries follow, then queries and probes, then
the retransmission sweep at ``t`` -- so a lossless run retransmits
nothing.  A client reads at event time plus its skew and expires rows
itself.

**Faults** (:class:`~repro.distributed.faults.FaultSchedule`): link
flaps and loss bursts act on both links; a :class:`NodeCrash` drops what
reaches the client while it is down, and one that loses state comes back
as a fresh session that subscribes again.  Delivery is always the
server's :class:`~repro.server.session.SenderCore`.

When faults are scheduled (or ``track_convergence=True``) the run probes
client-vs-truth divergence every ``probe_period`` ticks and fills the
:class:`SyncReport` convergence fields.  The workload format is a list of
``(time, row, expires_at)`` insertions; see :mod:`repro.workloads`.
"""

from __future__ import annotations

import dataclasses
import enum
from functools import partial
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.intervals import IntervalSet
from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.timestamps import Timestamp, ts
from repro.core.tuples import Row
from repro.distributed.events import EventQueue
from repro.distributed.faults import FaultSchedule
from repro.distributed.link import Link
from repro.distributed.metrics import SyncReport
from repro.engine.database import Database
from repro.engine.views import MaintenancePolicy
from repro.errors import SimulationError
from repro.obs.registry import MetricsRegistry
from repro.server.client import _WireSessionState
from repro.server.protocol import encode_frame
from repro.server.server import ReproServer, ServerEnd
from repro.server.session import RetryPolicy

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

#: The name of the view every subscribing client follows.
_VIEW = "v"


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

    def observe(self, tick: int, diverged: bool) -> None:
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


class _SimServer(ReproServer):
    """The served engine on simulated time: retransmission timers read the
    run's tick, and each session's retry jitter is seeded by the order
    sessions open in, so a run replays exactly."""

    def __init__(self, db: Database) -> None:
        super().__init__(db=db)
        #: The tick the run is at (set by the tick loop).
        self.tick = 0
        self._opened = 0

    def _monotonic(self) -> int:
        return self.tick

    def _open_session(self, resume):
        session, resumed = super()._open_session(resume)
        if not resumed:
            self._opened += 1
            session._rng.seed(self._opened)
        return session, resumed


class _End(ServerEnd):
    """The server's end of one simulated connection: each frame it writes
    is one message on the client's forward link."""

    def __init__(self, node: "_Node") -> None:
        super().__init__(node.sim.server)
        self.node = node

    def _wake(self) -> None:
        outbox = self.session.outbox
        self._write(list(outbox))
        outbox.clear()

    def _transmit(self, frames: List[bytes]) -> None:
        for frame in frames:
            self.node.send(frame, down=True, ack=False)


class _Session(_WireSessionState):
    """The client's side of one connection: the production frame loop,
    sending over the node's reverse link, with replies taken as they come
    (a refetch's snapshot, a periodic query's result)."""

    def __init__(self, node: "_Node") -> None:
        super().__init__()
        self.node = node
        self._attach(None)  # frames go out through :meth:`_send`
        #: The last periodic query's items and the request they answer.
        self.rows: Dict[Row, Timestamp] = {}
        self._answered = 0

    def _send(self, payload: dict) -> None:
        self.node.send(encode_frame(payload), down=False,
                       ack=payload["kind"] == "ack")

    def _on_reply(self, frame: dict) -> None:
        kind = frame.get("kind")
        if kind == "result" and frame["re"] > self._answered:
            self._answered = frame["re"]
            self.rows = dict(frame.get("items", ()))
        elif kind == "snapshot":  # a refetch's: taken as a push would be
            self._handle_push(frame)

    def _refetch(self, sub) -> None:
        # A read of a degraded subscription asks again, over the link; it
        # shows what it holds until the snapshot arrives.
        self.node.report.recompute_requests += 1
        self._request({"kind": "refetch", "sub": sub.sub_id})


class _Node:
    """One remote client: its links, clock skew, crash state and report,
    and the session it currently holds (a fresh one after state loss)."""

    def __init__(self, sim: "_Simulation", link: Link, back_link: Link,
                 skew: int) -> None:
        self.sim = sim
        self.link = link
        self.back_link = back_link
        self.skew = skew
        self.report = SyncReport(strategy=sim.strategy.value)
        self.tracker = _ConvergenceTracker()
        self.crashed = False
        self.crash_drops = 0
        #: Every server session this node held, for the delivery counters.
        self.ends: List[_End] = []
        self.session: Optional[_Session] = None
        self.sub = None
        #: While a handshake runs: the frames it exchanges off the link.
        self._handshake: Optional[list] = None
        self._counting = False

    # -- transport ------------------------------------------------------------

    def send(self, frame: bytes, down: bool, ack: bool) -> None:
        """One frame onto the forward (``down``) or reverse link."""
        if self._handshake is not None:
            self._handshake.append((down, frame))
            if self._counting:
                self._count(frame, ack)
            return
        self._count(frame, ack)
        link = self.link if down else self.back_link
        arrival = link.transmit(self.sim.tick, len(frame))
        if arrival is None:
            return
        target = self.session if down else self.ends[-1]
        self.sim.events.schedule(
            arrival, lambda at: self._deliver(link, target, frame))

    def _count(self, frame: bytes, ack: bool) -> None:
        if ack:
            self.report.acks += 1
        else:
            self.report.messages += 1
            self.report.bytes += len(frame)

    def _deliver(self, link: Link, target, frame: bytes) -> None:
        if isinstance(target, _End):
            link.record_delivery(len(frame))
            if not target.session.closed:
                target._receive(frame)
            return
        if self.crashed or target is not self.session:
            self.crash_drops += 1  # nobody there to read it
            return
        link.record_delivery(len(frame))
        target._receive(frame)

    def call(self, payload: dict, counted: bool) -> dict:
        """One request answered at once, off the link (a handshake)."""
        self._handshake, self._counting = [], counted
        try:
            rid = self.session._request(payload)
            reply = None
            while self._handshake:
                down, frame = self._handshake.pop(0)
                if down:
                    reply = self.session._receive(frame, rid) or reply
                else:
                    self.ends[-1]._receive(frame)
            return reply
        finally:
            self._handshake = None

    # -- lifecycle ------------------------------------------------------------

    def connect(self) -> None:
        """Open a fresh session and, if the strategy subscribes, subscribe."""
        self.session = _Session(self)
        self.ends.append(_End(self))
        self.session._adopt_hello(
            self.call(self.session._hello(None), counted=False))
        if self.sim.subscribes:
            reply = self.session._checked(
                self.call({"kind": "subscribe", "view": _VIEW}, counted=True))
            self.sub = self.session._restore(
                self.session._open_subscription(reply, _VIEW), reply)
            self.report.patches_shipped += len(reply.get("patches", ()))

    def crash(self, at: Timestamp) -> None:
        self.crashed = True

    def restart(self, at: Timestamp, lose_state: bool) -> None:
        self.crashed = False
        if lose_state:
            # The old connection is gone; the server drops its session.
            self.sim.server._drop_session(self.ends[-1].session)
            self.connect()

    # -- reads ----------------------------------------------------------------

    def visible(self, tick: int, query: bool) -> Set[Row]:
        """The rows the client shows at ``tick`` (a query may refetch)."""
        session = self.session
        session.now = ts(max(tick + self.skew, 0))
        if self.sub is None:
            return {row for row, texp in session.rows.items()
                    if texp > session.now}
        items = self.sub.items() if query else self.sub.visible(session.now)
        return {row for row, _ in items}

    def fill(self, horizon: int, quiesced_at: int, tracked: bool) -> None:
        report = self.report
        report.messages_lost = (self.link.stats.messages_lost
                                + self.back_link.stats.messages_lost)
        report.detail = dict(self.link.stats.as_dict())
        report.detail["back"] = self.back_link.stats.as_dict()
        session: Dict[str, int] = {}
        for end in self.ends:
            for name, value in end.session.stats.as_dict().items():
                session[name] = session.get(name, 0) + value
        report.retransmissions = session["retransmissions"]
        report.retransmissions_avoided = session["retransmissions_avoided"]
        report.cells_avoided = session["cells_avoided"]
        report.detail["session"] = session
        if self.crash_drops:
            report.detail["crash_drops"] = self.crash_drops
        if tracked:
            self.tracker.fill(report, horizon, quiesced_at)


class _Simulation:
    """The tick loop every scenario runs: a database and its server, one
    node per remote client, the scripted faults and the probes.

    A scenario brings ``query_times``, ``subscribes`` (whether its clients
    follow the view), ``_write(tick)`` (the origin's writes due then),
    ``_poll(tick)`` (requests its clients send then), ``_truth(tick)``
    and ``_horizon()``.
    """

    subscribes = True

    def __init__(self, strategy: enum.Enum, faults: Optional[FaultSchedule],
                 track_convergence: Optional[bool], probe_period: int,
                 horizon: Optional[int],
                 metrics: Optional[MetricsRegistry]) -> None:
        if probe_period < 1:
            raise SimulationError(f"probe_period must be >= 1, got {probe_period}")
        self.strategy = strategy
        self.faults = faults if faults is not None else FaultSchedule()
        self.track_convergence = (
            bool(len(self.faults)) if track_convergence is None
            else track_convergence
        )
        self.probe_period = probe_period
        #: When given, :meth:`run` publishes the final report here under
        #: the ``repro_replication_*`` families.
        self.metrics = metrics
        self._horizon_override = horizon
        self.events = EventQueue()
        self.db = Database()
        self.server = _SimServer(self.db)
        self.nodes: List[_Node] = []
        self.tick = 0

    def _add_node(self, link: Link, back_link: Optional[Link], skew: int) -> _Node:
        node = _Node(self, link, back_link or _mirror_link(link), skew)
        self.faults.apply_to_links([node.link, node.back_link])
        self.nodes.append(node)
        return node

    def _retry_policy(self) -> RetryPolicy:
        """The default backoff, its first resend no earlier than the
        slowest node's round trip, so that an ack still on the wire is not
        taken for a loss (the tick loop delivers an ack due at a tick
        before it runs that tick's timers).

        The round trip is the two links' latencies: their jitter is left
        to the policy's own.  Waiting out the worst draw as well would
        hold each lost envelope, and the envelopes queued behind it, that
        much longer on a lossy link.
        """
        default = RetryPolicy()
        round_trip = max(node.link.latency + node.back_link.latency
                         for node in self.nodes)
        first = max(default.base_delay, round_trip)
        return dataclasses.replace(default, base_delay=first,
                                   max_delay=max(default.max_delay, first))

    def _margin(self, link: Link) -> int:
        return (link.latency + link.jitter + 1
                + self.server.retry.max_total_delay())

    def _quiesced_at(self) -> int:
        return max(self.faults.last_activity(), 0)

    @property
    def client(self) -> _Node:
        """The (first) remote client."""
        return self.nodes[0]

    def run(self) -> SyncReport:
        """Execute the scenario; returns the (first) client's report."""
        self.server.retry = self._retry_policy()
        horizon = self._horizon_override
        if horizon is None:
            horizon = self._horizon()
        for node in self.nodes:
            node.connect()
            for crash in self.faults.crashes:
                self.events.schedule(crash.at, node.crash)
                self.events.schedule(
                    crash.restart_at,
                    lambda at, node=node, lose=crash.lose_state:
                    node.restart(at, lose))
        queries = set(self.query_times)
        for tick in range(horizon + 1):
            self.tick = self.server.tick = tick
            self.db.advance_to(tick)
            self.server.pump()
            self._write(tick)
            self.events.run_until(tick)
            self._poll(tick)
            probe = self.track_convergence and tick % self.probe_period == 0
            if tick in queries or probe:
                truth = self._truth(tick)
            for node in self.nodes:
                if tick in queries:
                    self._query(node, tick, truth)
                if probe:
                    seen = set() if node.crashed else node.visible(tick, False)
                    node.tracker.observe(tick, seen != truth)
            self.server.retransmit_now(tick)
        for node in self.nodes:
            node.fill(horizon, self._quiesced_at(), self.track_convergence)
        if self.metrics is not None:
            self.client.report.publish(self.metrics)
        return self.client.report

    def _query(self, node: _Node, tick: int, truth: Set[Row]) -> None:
        report = node.report
        report.queries += 1
        if node.crashed:
            # The client is down: the query goes unanswered, which we
            # count as wrong-by-omission (everything live is missing).
            report.incorrect_answers += 1
            report.missing_tuples += len(truth)
            return
        seen = node.visible(tick, True)
        if seen == truth:
            report.correct_answers += 1
        else:
            report.incorrect_answers += 1
            report.missing_tuples += len(truth - seen)
            report.extra_tuples += len(seen - truth)

    def _poll(self, tick: int) -> None:
        """Requests the clients send at ``tick`` (none by default)."""

    def _write(self, tick: int) -> None:
        """The origin's writes due at ``tick`` (none by default)."""


class ReplicationStrategy(enum.Enum):
    """How a replicated base relation is kept in sync (experiment D1)."""

    EXPLICIT_DELETE = "explicit_delete"
    PERIODIC_SNAPSHOT = "periodic_snapshot"
    EXPIRATION = "expiration"


class ReplicationSimulation(_Simulation):
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
        faults: Optional[FaultSchedule] = None,
        back_link: Optional[Link] = None,
        track_convergence: Optional[bool] = None,
        probe_period: int = 1,
        horizon: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(strategy, faults, track_convergence, probe_period,
                         horizon, metrics)
        self.schema = schema if isinstance(schema, Schema) else Schema(schema)
        self.workload = sorted(workload, key=lambda entry: entry[0])
        self.query_times = sorted(query_times)
        self.snapshot_period = snapshot_period
        self.subscribes = strategy is not ReplicationStrategy.PERIODIC_SNAPSHOT
        table = self.db.create_table("R", self.schema)
        if self.subscribes:
            self.db.materialise(_VIEW, self.db.table_expr("R"))
        #: tick -> the origin's writes then, in order.
        self._writes: Dict[int, list] = {}
        expiring = strategy is ReplicationStrategy.EXPIRATION
        for time, row, expires_at in self.workload:
            self._writes.setdefault(time, []).append(partial(
                table.insert, row, expires_at=expires_at if expiring else None))
            if not expiring:
                self._writes.setdefault(expires_at, []).append(
                    partial(table.delete, row))
        self._add_node(link if link is not None else Link(), back_link,
                       client_skew)

    def _write(self, tick: int) -> None:
        for write in self._writes.get(tick, ()):
            write()
            self.server.pump()

    def _poll(self, tick: int) -> None:
        if self.subscribes or tick == 0 or tick % self.snapshot_period:
            return
        for node in self.nodes:
            if not node.crashed:
                node.session._request({"kind": "query",
                                       "text": "SELECT * FROM R"})

    def _truth(self, tick: int) -> Set[Row]:
        return {row for time, row, expires_at in self.workload
                if time <= tick < expires_at}

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
        return latest + self._margin(self.client.link)


class FanOutSimulation:
    """One server publishing a relation to *many* heterogeneous clients.

    The paper's open-architecture setting ("servers or lists"): one
    database and server, one session per client, each over its own links
    (latency, loss, partitions) and with its own clock skew.  Under the
    explicit-delete baseline the server's deletion traffic scales with
    (clients × expirations); under expiration-based maintenance it is
    exactly (clients × inserts) and consistency survives any partition.
    Scripted faults act on every client.
    """

    def __init__(
        self,
        schema: Schema | Sequence[str],
        workload: Sequence[WorkloadEntry],
        query_times: Sequence[int],
        strategy: ReplicationStrategy,
        links: Sequence[Link],
        client_skews: Optional[Sequence[int]] = None,
        faults: Optional[FaultSchedule] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not links:
            raise SimulationError("a fan-out needs at least one client link")
        skews = list(client_skews or [0] * len(links))
        if len(skews) != len(links):
            raise SimulationError("client_skews must match links in length")
        self.strategy = strategy
        self.metrics = metrics
        self.simulation = ReplicationSimulation(
            schema, workload, query_times, strategy, link=links[0],
            client_skew=skews[0], faults=faults,
        )
        for link, skew in zip(links[1:], skews[1:]):
            self.simulation._add_node(link, None, skew)

    def run(self) -> SyncReport:
        """Run every client's replication; returns the aggregate report."""
        self.simulation.run()
        reports = [node.report for node in self.simulation.nodes]
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
    """How a remote difference view stays correct: the maintenance policy
    of the same name on the server's view."""

    #: Recompute whenever ``texp(e)`` passes (Theorem 2).
    RECOMPUTE_ON_INVALID = "recompute_on_invalid"

    #: Recompute only in an invalid gap of the Schrödinger validity set.
    SCHRODINGER = "schrodinger"

    #: Theorem 3: ship materialisation + patch queue once; never again.
    PATCH = "patch"


_POLICIES = {
    ViewMaintenanceStrategy.RECOMPUTE_ON_INVALID: MaintenancePolicy.RECOMPUTE,
    ViewMaintenanceStrategy.SCHRODINGER: MaintenancePolicy.SCHRODINGER,
    ViewMaintenanceStrategy.PATCH: MaintenancePolicy.PATCH,
}


class DifferenceViewSimulation(_Simulation):
    """A remote client following ``R −exp S`` under a strategy.

    The base relations are fixed at simulation start (the paper's
    no-updates assumption); everything that happens afterwards is driven
    purely by expirations.  The server materialises the difference under
    the strategy's policy and pushes each change; a client cannot tell
    the policies apart, except that a PATCH view's snapshot carries its
    queue, after which no frame follows.
    """

    def __init__(
        self,
        left: Relation,
        right: Relation,
        query_times: Sequence[int],
        strategy: ViewMaintenanceStrategy,
        link: Optional[Link] = None,
        faults: Optional[FaultSchedule] = None,
        back_link: Optional[Link] = None,
        track_convergence: Optional[bool] = None,
        probe_period: int = 1,
        horizon: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        left.schema.check_union_compatible(right.schema)
        super().__init__(strategy, faults, track_convergence, probe_period,
                         horizon, metrics)
        self.left = left
        self.right = right
        self.query_times = sorted(query_times)
        for name, relation in (("R", left), ("S", right)):
            table = self.db.create_table(name, left.schema)
            for row, texp in relation.items():
                table.insert(row, expires_at=texp)
        self.db.materialise(
            _VIEW, self.db.table_expr("R").difference(self.db.table_expr("S")),
            policy=_POLICIES[strategy])
        self._add_node(link if link is not None else Link(latency=0),
                       back_link, 0)

    def _truth(self, tick: int) -> Set[Row]:
        hidden = set(self.right.exp_at(tick).rows())
        return {row for row in self.left.exp_at(tick).rows()
                if row not in hidden}

    def _horizon(self) -> int:
        latest = max(self.query_times, default=0)
        for relation in (self.left, self.right):
            for _, texp in relation.items():
                if texp.is_finite:
                    latest = max(latest, texp.value)
        latest = max(latest, self.faults.last_activity())
        return latest + self._margin(self.client.link)
