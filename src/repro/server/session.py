"""Server-side sessions: clock floors, subscriptions, seq/ack streaming.

A :class:`ServerSession` is the unit of client state the server keeps per
connection -- and *across* connections, because the paper's loosely-coupled
clients disconnect and come back:

* a **clock floor**: the highest logical time the session has observed.
  Reads never travel backwards past it -- a reconnecting client can never
  see a database "younger" than one it already read, and every statement
  executes against a single stamp ``τ``, so a reader at floor ``τ`` never
  sees a tuple expiring at or before ``τ`` mid-query (the engine applies
  ``exp_τ`` uniformly, even over lazily-retained physical tuples);
* a **data-version snapshot**: the catalog version its last result
  reflected, echoed in every reply.  Together with the floor this is the
  plan cache's validity machinery worn as session state: a result the
  client holds is exactly as reusable as a cached plan result at ``τ' ≥ τ``
  with an unchanged version;
* **subscriptions**: per-view patch streams over a :class:`SenderCore`,
  the reliable-delivery core -- sequence-numbered envelopes, cumulative
  acks, and **expiration-aware retransmission**: a pending patch whose
  every tuple has expired is dropped instead of retransmitted (the client
  would discard it anyway), counted in
  ``repro_server_retransmissions_avoided_total``.

Backpressure is a two-rung ladder.  While a session keeps up, view changes
stream as incremental patches.  When its outstanding traffic (queued
frames plus unacknowledged envelopes) crosses ``max_outbox`` -- a slow
consumer, or a long disconnect -- the envelopes whose tuples have all
expired retire first; if that is not enough the subscription *degrades*:
pending patches are discarded wholesale, the epoch is bumped, and one
small ``invalidate`` notice replaces them.  The client then refetches a
full snapshot when (and only when) it actually needs the view again,
which is the explicit-request maintenance mode of the paper's Section 4,
reached lazily instead of eagerly.

A patch is what the view changed since the subscription's cursor in the
view's :class:`~repro.engine.views.ChangeLog`, netted per row: the engine
appends each change where it makes it (a fold, a partition redo, a due
patch, or the one diff of a rebuild), so a patch costs the size of the
change, not of the view.  The expiration-replaces-deletion asymmetry holds
throughout: a tuple that merely expired needs no message at all (the client
expires it locally -- the headline saving), so removals are shipped only
for tuples explicitly deleted while still unexpired, and a dropped envelope
can always be skipped once its tuples are dead.

A PATCH view (Theorem 3) ships its helper queue instead: every snapshot of
it carries the pending patches with their due ticks, and the client
inserts each one when its clock passes the tick, so a due patch costs no
frame.  Any other change to such a view is a rebuild, whose patch names
every row it moved, in the queue or out of it: a row a patch names leaves
the client's queue, so a row deleted from the base can never come back
from a queue the client held.

A degrade's ``invalidate`` is held like a patch, as seq 0 of the new
epoch, until the client acks it: a lossy link cannot leave a client
unaware that its stream stopped.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Deque, Dict, Iterable, List, Optional, Tuple,
)

from repro.codec import Block, Rows, encode_exp
from repro.core.patching import Patch
from repro.core.timestamps import Timestamp, ts_max
# ``diff_states`` is the rebuild-time diff the views run; it keeps this
# dotted name, which tracers hook.
from repro.engine.views import MaintenancePolicy, MaterialisedView, diff_states
from repro.errors import SessionError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing-only
    from repro.engine.database import Database

__all__ = [
    "RetryPolicy",
    "SenderCore",
    "ServerSubscription",
    "ServerSession",
    "SessionStats",
    "diff_states",
]

_session_tokens = itertools.count(1)


def _queue_block(queued: Iterable[Tuple[tuple, Patch]]) -> Block:
    """Queued rows as the wire's ``patches``: ``((due, *row), texp)`` each,
    ``due`` the tick at which the row re-appears, as a plain ``int`` value
    (the packed int column a row value takes)."""
    return Block(
        ((int(patch.due), *row), patch.expires_at) for row, patch in queued
    )


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter, capped delay, and capped attempts.

    The first retransmission of an envelope fires ``base_delay`` after
    the original send plus up to ``jitter``; each subsequent one
    multiplies the delay by ``multiplier`` up to ``max_delay``.  After
    ``max_attempts`` retransmissions the sender gives up.

    :class:`SenderCore` draws every delay through :meth:`delay`, in the
    unit of the time its caller passes: the server
    (:meth:`ServerSession.retransmit_due`) reads wall-clock **seconds**,
    jitter included, and on giving up degrades the subscription to
    invalidate-and-refetch; the simulator
    (:mod:`repro.distributed.simulator`) runs the same server on logical
    **ticks**.  With the defaults the first resend goes out 4-6 s (ticks)
    after the original and the server gives up after about five minutes.
    """

    base_delay: int = 4
    multiplier: float = 2.0
    max_delay: int = 64
    jitter: int = 2
    max_attempts: int = 8

    def __post_init__(self) -> None:
        if self.base_delay < 1:
            raise SimulationError(f"base_delay must be >= 1, got {self.base_delay}")
        if self.multiplier < 1.0:
            raise SimulationError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay < self.base_delay:
            raise SimulationError("max_delay must be >= base_delay")
        if self.jitter < 0:
            raise SimulationError(f"jitter must be non-negative, got {self.jitter}")
        if self.max_attempts < 1:
            raise SimulationError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def delay(self, attempt: int, rng: random.Random) -> int:
        """Ticks to wait before retransmission number ``attempt`` (0-based)."""
        delay = self.base_delay * (self.multiplier ** attempt)
        delay = min(int(delay), self.max_delay)
        if self.jitter:
            delay += rng.randint(0, self.jitter)
        return delay

    def max_total_delay(self) -> int:
        """Upper bound on the whole retry schedule (for simulation horizons)."""
        total = 0
        for attempt in range(self.max_attempts + 1):
            delay = self.base_delay * (self.multiplier ** attempt)
            total += min(int(delay), self.max_delay) + self.jitter
        return total


class SessionStats:
    """Counters for one session's reliable delivery, shared by the
    :class:`SenderCore` of each of its subscriptions.

    ``unacked`` is not a total but a running count: the envelopes held
    for retransmission right now, across the subscriptions.
    """

    def __init__(self) -> None:
        self.sent = 0
        self.acked = 0
        self.retransmissions = 0
        self.retransmissions_avoided = 0
        self.cells_avoided = 0
        self.abandoned = 0
        self.unacked = 0

    def as_dict(self) -> dict:
        """All counters by name, for reports."""
        return dict(vars(self))


#: :meth:`SenderCore.retry` verdicts.
RESEND, EXPIRED, ABANDONED = "resend", "expired", "abandoned"


@dataclass(eq=False, slots=True)
class _Pending:
    """One unacknowledged envelope: what to resend, and until when."""

    message: Any
    #: When the last thing the envelope carries stops mattering
    #: (``None``: never -- a delete notice must arrive, forever).
    expires_at: Optional[Timestamp]
    cells: int
    #: When the next retransmission is due, in the caller's unit.
    due: Any
    attempts: int = 0


class SenderCore:
    """The sending half of reliable delivery, one per subscription.

    Sequence numbers, the unacknowledged envelopes in seq order with each
    one's next due time, cumulative ack retirement, and the single
    verdict on an envelope whose retransmission is due (:meth:`retry`).
    It keeps no timer and reads no clock: the caller passes the time
    (monotonic seconds in a served :class:`ServerSession`, whose sweep
    asks for :meth:`overdue` seqs; ticks when the simulator drives the
    same server).  Every change to the held envelopes moves the shared
    ``stats.unacked`` with it.
    """

    __slots__ = ("policy", "stats", "pending", "next_seq", "pruned",
                 "_first_seq", "_rng")

    def __init__(self, policy: RetryPolicy, stats: SessionStats,
                 rng: random.Random, first_seq: int = 0) -> None:
        self.policy = policy
        self.stats = stats
        self._rng = rng
        self.pending: Dict[int, _Pending] = {}
        self.next_seq = self._first_seq = first_seq
        #: Whether an envelope of this numbering was retired as expired,
        #: leaving a gap the receiver is told to step over (:meth:`after`).
        self.pruned = False

    def take_seq(self) -> int:
        """The next sequence number."""
        self.next_seq += 1
        return self.next_seq - 1

    def reset(self) -> None:
        """Forget every pending envelope and restart the numbering."""
        self.stats.unacked -= len(self.pending)
        self.pending.clear()
        self.next_seq = self._first_seq
        self.pruned = False

    def after(self, seq: int) -> Optional[int]:
        """The last seq a receiver must hold before it applies ``seq``.

        ``None`` when that is ``seq - 1``, the receiver applies in order:
        while no envelope was retired as expired, and whenever ``seq - 1``
        is still held.  Otherwise it is the highest seq below ``seq``
        still held: any lower one the receiver lacks was either acked (so
        it has it) or is dead.
        """
        if not self.pruned or seq - 1 in self.pending:
            return None
        return max((held for held in self.pending if held < seq),
                   default=self._first_seq - 1)

    def track(self, seq: int, message: Any, expires_at: Optional[Timestamp],
              cells: int, at) -> _Pending:
        """Hold ``message``, just sent at ``at``, until acked or given up."""
        due = at + self.policy.delay(0, self._rng)
        if seq not in self.pending:
            self.stats.unacked += 1
        entry = self.pending[seq] = _Pending(message, expires_at, cells, due)
        self.stats.sent += 1
        return entry

    def ack(self, cumulative: int) -> None:
        """Retire every envelope with ``seq <= cumulative``."""
        pending = self.pending
        covered = [seq for seq in pending if seq <= cumulative]
        for seq in covered:
            del pending[seq]
        self.stats.acked += len(covered)
        self.stats.unacked -= len(covered)

    def overdue(self, at) -> List[int]:
        """The seqs whose retransmission is due at ``at``, in seq order."""
        return [seq for seq, entry in self.pending.items() if entry.due <= at]

    def retry(self, seq: int, now: Timestamp, at) -> str:
        """The one verdict on envelope ``seq`` when it is to be resent.

        Expirations are read at the logical time ``now``; ``at`` is the
        time in the caller's retry unit.  An envelope whose every tuple
        has expired is dropped and counted as avoided traffic
        (:data:`EXPIRED`), one out of attempts is given up
        (:data:`ABANDONED`); otherwise the resend is counted and the next
        due time drawn, and the caller transmits ``pending[seq].message``
        (:data:`RESEND`).
        """
        entry = self.pending[seq]
        if self._expired(seq, entry, now):
            return EXPIRED
        if entry.attempts >= self.policy.max_attempts:
            del self.pending[seq]
            self.stats.abandoned += 1
            self.stats.unacked -= 1
            return ABANDONED
        entry.attempts += 1
        entry.due = at + self.policy.delay(entry.attempts, self._rng)
        self.stats.retransmissions += 1
        return RESEND

    def prune(self, now: Timestamp) -> None:
        """Retire every envelope whose tuples have all expired by ``now``."""
        for seq, entry in list(self.pending.items()):
            self._expired(seq, entry, now)

    def _expired(self, seq: int, entry: _Pending, now: Timestamp) -> bool:
        if entry.expires_at is None or entry.expires_at > now:
            return False
        # The tuples are dead and the receiver would ignore them: the
        # paper-specific saving the reports count.
        del self.pending[seq]
        self.pruned = True
        self.stats.unacked -= 1
        self.stats.retransmissions_avoided += 1
        self.stats.cells_avoided += entry.cells
        return True


class ServerSubscription:
    """One client's patch stream over one materialised view.

    It follows the view (:meth:`MaterialisedView.follow`) from its
    snapshot on, and each patch carries what the view's change log took
    since then; a degraded stream follows nothing until its refetch.
    """

    #: Sequence numbers and unacknowledged envelopes, wired by
    #: :meth:`ServerSession.subscribe` with the session's retry policy,
    #: counters and jitter source.
    sender: SenderCore

    def __init__(self, sub_id: int, view: MaterialisedView) -> None:
        self.sub_id = sub_id
        self.view = view
        #: Bumped on every degrade; acks from older epochs are ignored
        #: (they describe a stream that no longer exists).
        self.epoch = 0
        self.degraded = False
        view.follow(self)

    @property
    def pending(self) -> Dict[int, _Pending]:
        """Unacknowledged patch envelopes by seq."""
        return self.sender.pending

    # -- state shipping -----------------------------------------------------

    def snapshot_payload(self, now: Timestamp, columns: bool = False) -> dict:
        """A full-state ``snapshot`` payload; the stream follows on from it.

        Starts (or restarts, post-degrade) the epoch's numbering: seq 0
        carries the whole view, which supersedes every pending patch, and
        subsequent patches count up from 1.  ``columns`` adds the view's
        attribute names from the same read (a subscription's first
        snapshot carries them).  A PATCH view's snapshot carries its
        pending patches too, as ``patches``: one ``((due, *row), texp)``
        pair each, ``due`` the raw tick at which the row re-appears.
        """
        relation = self.view.read(now)
        self.view.follow(self)
        self.sender.reset()
        self.degraded = False
        payload = {
            "kind": "snapshot",
            "sub": self.sub_id,
            "epoch": self.epoch,
            "seq": 0,
            "rows": Block(relation.items()),
            "now": encode_exp(now),
        }
        if columns:
            payload["columns"] = list(relation.schema.names)
        if self.holds_queue:
            payload["patches"] = _queue_block(
                (patch.row, patch) for patch in self.view.pending_patches()
            )
        return payload

    @property
    def holds_queue(self) -> bool:
        """Whether the client holds the view's patch queue (a PATCH view's
        snapshots ship it), so a due patch needs no frame."""
        return self.view.policy is MaintenancePolicy.PATCH

    def fell_behind(self) -> bool:
        """Whether the view's log dropped changes this stream had not taken
        (the stream degrades, and the refetch snapshots)."""
        return self.view.log.cursors[self] < self.view.log.start

    def diff_payload(
        self, now: Timestamp
    ) -> Optional[Tuple[dict, Optional[Timestamp]]]:
        """The incremental ``patch`` payload since the last one.

        Returns ``(payload, expires_at)``, where ``expires_at`` is the
        latest time at which any carried change still matters (a remove
        stops mattering when the removed tuple would have expired anyway);
        it stays on the server, with the pending envelope.  Returns
        ``None`` when the client's copy is already right, which includes
        every change that is *pure expiration*: the log holds none, and a
        removal of a tuple expired by ``now`` is not shipped.  Where the
        client holds the view's queue, the rows a rebuild queued anew go in
        ``patches``, and such a patch never stops mattering (``expires_at``
        None): it replaces queue entries whose lifetimes it does not carry.
        """
        delta = self.view.read(now, follower=self)
        if delta is None:
            raise SessionError(
                f"subscription {self.sub_id} fell behind the change log of "
                f"view {self.view.name!r}; degrade it and refetch"
            )
        upserts, removes = delta
        if not upserts and not removes:
            return None
        queued = None
        if self.holds_queue:
            queued = [pair for pair in upserts if type(pair[1]) is Patch]
            if queued:
                upserts = [pair for pair in upserts if type(pair[1]) is not Patch]
        seq = self.sender.take_seq()
        payload = {
            "kind": "patch",
            "sub": self.sub_id,
            "epoch": self.epoch,
            "seq": seq,
            "now": encode_exp(now),
        }
        after = self.sender.after(seq)
        if after is not None:
            payload["after"] = after
        # A patch carries the blocks it has: most carry no removes, and a
        # removed row needs no expiration time.
        if upserts:
            payload["upserts"] = Block(upserts)
        if removes:
            payload["removes"] = Rows(row for row, _ in removes)
        if queued:
            payload["patches"] = _queue_block(queued)
            return payload, None
        return payload, ts_max(texp for _, texp in upserts + removes)

    def degrade(self, now: Timestamp, reason: str) -> dict:
        """Fall down the backpressure ladder: drop patches, invalidate.

        Every pending envelope is discarded (the snapshot that follows the
        client's refetch supersedes them all), the epoch is bumped so
        stragglers' acks are ignored, and the returned ``invalidate``
        notice is the only thing left to deliver.
        """
        self.sender.reset()
        self.epoch += 1
        self.degraded = True
        self.view.unfollow(self)
        return self.invalidate_payload(now, reason)

    def invalidate_payload(self, now: Timestamp, reason: str) -> dict:
        """The ``invalidate`` notice of the current epoch."""
        return {
            "kind": "invalidate",
            "sub": self.sub_id,
            "epoch": self.epoch,
            "reason": reason,
            "now": encode_exp(now),
        }

    def on_ack(self, epoch: int, cumulative: int) -> None:
        """Retire every pending envelope the (current-epoch) ack covers."""
        if epoch == self.epoch:  # else: a stream that no longer exists
            self.sender.ack(cumulative)


class ServerSession:
    """One client's server-side state, surviving reconnects.

    Created by the server on ``hello``; looked up again on ``hello`` with
    ``resume: token``.  While detached (the socket died, the session has
    not yet expired) subscriptions keep accumulating pending envelopes --
    bounded by the backpressure ladder -- so a resuming client receives
    exactly the unexpired remainder.
    """

    def __init__(self, db: "Database", max_outbox: int = 256,
                 retry: Optional[RetryPolicy] = None) -> None:
        self.db = db
        self.token = f"s{next(_session_tokens)}"
        #: Monotone: the highest logical time this session has observed.
        self.floor: Timestamp = db.clock.now
        #: The catalog version the session's last result reflected.
        self.data_version: int = db.catalog_version
        self.max_outbox = max_outbox
        self.retry = retry if retry is not None else RetryPolicy()
        self.subscriptions: Dict[int, ServerSubscription] = {}
        self._next_sub_id = itertools.count(1)
        #: Frames queued for the attached connection's writer.
        self.outbox: Deque[dict] = deque()
        self.attached = False
        self.detached_at: Optional[float] = None
        #: Set by the server on attach: schedules the connection's flush of
        #: the outbox (at most one per loop iteration).
        self.on_enqueue = None
        self.stats = SessionStats()
        #: Retry jitter, seeded per session so sessions spread apart.
        self._rng = random.Random(self.token)
        self.closed = False

    # -- snapshot state ------------------------------------------------------

    def observe(self) -> None:
        """Advance the session's floor/version to what it just read.

        Called after every statement: the floor ratchets forward (never
        back), so a later read -- same connection or a resumed one -- can
        never be served below a time the client has already seen.
        """
        now = self.db.clock.now
        if now > self.floor:
            self.floor = now
        self.data_version = self.db.catalog_version

    def check_floor(self) -> None:
        """Refuse to serve a session whose floor is ahead of the engine.

        Only possible when a session token is resumed against a *different*
        (e.g. freshly recovered but behind) database; serving would show
        the client a past it has already read beyond.
        """
        if self.floor > self.db.clock.now:
            raise SessionError(
                f"session {self.token} has observed τ={self.floor} but the "
                f"engine is at τ={self.db.clock.now}; refusing to travel "
                f"back in time"
            )

    # -- subscriptions -------------------------------------------------------

    def subscribe(self, view: MaterialisedView) -> ServerSubscription:
        """Open a patch stream over ``view``."""
        sub = ServerSubscription(next(self._next_sub_id), view)
        # seq 0 is each epoch's snapshot; patches count from 1.
        sub.sender = SenderCore(self.retry, self.stats, self._rng, first_seq=1)
        self.subscriptions[sub.sub_id] = sub
        return sub

    def unsubscribe(self, sub_id: int) -> ServerSubscription:
        """Drop a subscription (and its cursor in the view's change log)."""
        try:
            sub = self.subscriptions.pop(sub_id)
        except KeyError:
            raise SessionError(
                f"session {self.token}: unknown subscription {sub_id}"
            ) from None
        sub.view.unfollow(sub)
        sub.sender.reset()
        return sub

    # -- outbound traffic ----------------------------------------------------

    def outstanding(self) -> int:
        """Frames owed to this client: queued plus unacknowledged."""
        return len(self.outbox) + self.stats.unacked

    def enqueue(self, payload: dict) -> None:
        """Queue one frame for the attached writer (dropped if detached --
        durable state lives in the subscriptions' pending envelopes)."""
        if self.attached:
            self.outbox.append(payload)
            if self.on_enqueue is not None:
                self.on_enqueue()

    def enqueue_patch(self, sub: ServerSubscription, payload: dict,
                      expires_at: Optional[Timestamp],
                      sent_at: float) -> Optional[dict]:
        """Queue one patch envelope, applying the backpressure ladder.

        A full outbox first retires the envelopes whose tuples have all
        expired (counted as avoided); only if it is still full does the
        subscription degrade.  Returns the ``invalidate`` payload when the
        ladder degraded the subscription instead of queueing (the caller
        counts it), else ``None``.
        """
        if self.outstanding() >= self.max_outbox:
            now = self.db.clock.now
            for other in self.subscriptions.values():
                other.sender.prune(now)
            if self.outstanding() >= self.max_outbox:
                return self.degrade(sub, "backpressure", sent_at)
        sub.sender.track(
            payload["seq"], payload, expires_at,
            len(payload.get("upserts", ())) + len(payload.get("removes", ())),
            sent_at,
        )
        self.enqueue(payload)
        return None

    def degrade(self, sub: ServerSubscription, reason: str, at) -> dict:
        """Degrade ``sub`` and queue its ``invalidate``, held until acked
        (resent by the sweep like a patch); returns the notice."""
        notice = sub.degrade(self.db.clock.now, reason)
        sub.sender.track(0, notice, None, 0, at)
        self.enqueue(notice)
        return notice

    def resume_frames(self, acks: Dict[int, Tuple[int, int]],
                      sent_at: float) -> List[dict]:
        """Everything a resuming client is owed, expiration-pruned.

        ``acks`` is the client's per-subscription delivery state
        (``{sub_id: (epoch, cum)}``); covered envelopes retire first.
        Every remaining envelope then passes the sender core's verdict: an
        envelope whose every tuple has expired is dropped and counted as
        avoided traffic -- the loosely-coupled saving, on real sockets --
        and the rest are resent.
        """
        now = self.db.clock.now
        frames: List[dict] = []
        for sub in self.subscriptions.values():
            if sub.sub_id in acks:
                sub.on_ack(*acks[sub.sub_id])
            if not sub.degraded and self._retransmit(
                sub, list(sub.pending), now, sent_at, frames
            ):
                sub.degrade(now, "retry-exhausted")
            if sub.degraded:
                notice = sub.invalidate_payload(now, "resume")
                sub.sender.track(0, notice, None, 0, sent_at)
                frames.append(notice)
        return frames

    def retransmit_due(self, monotonic_now: float) -> Tuple[List[dict], int]:
        """Timer-driven retransmission sweep for the attached connection.

        Returns ``(frames, degraded)``: envelopes to resend now, and how
        many subscriptions fell off the ladder (exhausted attempts).
        Expired envelopes are dropped, not resent, exactly as on resume.
        """
        now = self.db.clock.now
        frames: List[dict] = []
        degraded = 0
        for sub in list(self.subscriptions.values()):
            overdue = sub.sender.overdue(monotonic_now)
            if self._retransmit(sub, overdue, now, monotonic_now, frames):
                self.degrade(sub, "retry-exhausted", monotonic_now)
                degraded += 1
        return frames, degraded

    @staticmethod
    def _retransmit(sub: ServerSubscription, seqs: List[int], now: Timestamp,
                    at: float, frames: List[dict]) -> bool:
        """Pass ``seqs`` through the core's verdict, collecting resends;
        True when one ran out of attempts (the caller degrades ``sub``)."""
        sender = sub.sender
        for seq in seqs:
            verdict = sender.retry(seq, now, at)
            if verdict == RESEND:
                message = sender.pending[seq].message
                after = sender.after(seq)
                if after is not None and message["kind"] == "patch":
                    message = {**message, "after": after}
                frames.append(message)
            elif verdict == ABANDONED:
                return True
        return False

    # -- teardown ------------------------------------------------------------

    def detach(self, at: float) -> None:
        """The socket died; keep the session for a possible resume."""
        self.attached = False
        self.detached_at = at
        self.outbox.clear()  # pending envelopes carry the durable state

    def close(self) -> None:
        """Tear the session down for good (idempotent)."""
        if self.closed:
            return
        self.closed = True
        self.attached = False
        for sub_id in list(self.subscriptions):
            self.unsubscribe(sub_id)
        self.outbox.clear()
