"""A reliable session layer over the unreliable links.

The paper's loosely-coupled setting makes message loss catastrophic for
the explicit-delete baseline (a lost :class:`DeleteNotice` leaves a dead
tuple visible forever) and quietly harmful for expiration-based
maintenance (a lost insert is simply never seen).  This module adds the
classic cure -- sequence numbers, acknowledgements, and retransmission --
with one paper-specific twist: **expiration-aware retransmission**.  A
queued retransmission whose tuple has already expired is *cancelled*: the
replica would discard the tuple on arrival anyway, so the bytes are pure
waste.  The cancelled traffic is counted separately
(:attr:`SessionStats.retransmissions_avoided` /
:attr:`SessionStats.cells_avoided`) because it is exactly the saving the
paper's protocol enjoys and the baseline cannot: a deletion must be
delivered *reliably, forever*, while an expiring insert stops mattering on
its own.

Components:

* :class:`RetryPolicy` -- exponential backoff with deterministic jitter
  and a max-attempts cap; pure (no hidden state beyond a seeded RNG).
* :class:`ReliableSender` -- wraps payloads in sequence-numbered
  :class:`Envelope`\\ s, arms a retransmission timer on the simulation's
  :class:`EventQueue` at each envelope's due time, and cancels the
  pending envelope of a channel a newer send supersedes.  Everything else
  -- sequence numbers, the pending envelopes, ack retirement, and the one
  verdict that cancels an expired retransmission, gives up after
  ``max_attempts`` or resends -- is :class:`~repro.server.session.SenderCore`,
  the same core the served engine's subscriptions run over sockets.  It
  is defined, like :class:`RetryPolicy` and :class:`SessionStats`, beside
  its production user in :mod:`repro.server.session` (the simulator
  imports the served engine's core, never the reverse); the two shared
  types are re-exported here.
* :class:`ReliableReceiver` -- deduplicates envelopes, tracks the
  cumulative/selective ack state, and hands payloads up exactly once.
  It waits for every sequence number, so it stays separate from the
  socket client's, which skips the ones the server pruned as dead.

Both ends are transport-agnostic: they emit messages through callables the
simulator wires to its links, so the session layer itself stays free of
link bookkeeping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set

from repro.core.timestamps import Timestamp
from repro.distributed.events import EventQueue
from repro.distributed.protocols import Ack, Envelope, Message
from repro.errors import ProtocolError
from repro.server.session import RESEND, RetryPolicy, SenderCore, SessionStats

__all__ = [
    "RetryPolicy",
    "ReliabilityConfig",
    "SessionStats",
    "ReliableSender",
    "ReliableReceiver",
]


@dataclass(frozen=True)
class ReliabilityConfig:
    """Session-layer knobs a simulation accepts as one object."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    seed: int = 0


class ReliableSender:
    """The sending half of a reliable session.

    ``transmit(message, now)`` is the raw link hook; retransmissions are
    scheduled on ``events`` so they interleave deterministically with the
    rest of the simulation.  Sequence numbers, pending envelopes, ack
    retirement and the retransmission verdict are the served engine's
    :class:`~repro.server.session.SenderCore`; this class adds the
    event-queue timers and channel supersession.
    """

    def __init__(
        self,
        transmit: Callable[[Message, Timestamp], None],
        events: EventQueue,
        policy: Optional[RetryPolicy] = None,
        seed: int = 0,
    ) -> None:
        self._transmit = transmit
        self._events = events
        self.policy = policy if policy is not None else RetryPolicy()
        self.stats = SessionStats()
        self._core = SenderCore(self.policy, self.stats, random.Random(seed))
        #: channel -> seq of its latest send, the only one of the channel
        #: that can still be pending.
        self._channels: Dict[str, int] = {}

    # -- sending ---------------------------------------------------------------

    def send(
        self,
        payload: Message,
        now: Timestamp,
        expires_at: Optional[Timestamp] = None,
        channel: Optional[str] = None,
    ) -> Envelope:
        """Frame ``payload``, transmit it, and arm the retransmission timer.

        ``expires_at`` is the sender-side knowledge of when the payload
        stops mattering (the tuple's expiration time); a retransmission
        due after it is cancelled and counted as avoided traffic.
        ``channel`` marks payloads where a newer send supersedes older
        ones (e.g. full snapshots): the pending entry on the same channel
        is cancelled immediately.
        """
        seq = self._core.take_seq()
        if channel is not None:
            stale = self._channels.get(channel)
            if stale is not None and self._core.pending.pop(stale, None):
                self.stats.superseded += 1
            self._channels[channel] = seq
        envelope = Envelope(seq=seq, payload=payload)
        entry = self._core.track(
            seq, envelope, expires_at, envelope.size_cells(), now
        )
        self._transmit(envelope, now)
        self._arm_timer(seq, entry.due)
        return envelope

    def _arm_timer(self, seq: int, due: Timestamp) -> None:
        self._events.schedule(due, lambda at, seq=seq: self._on_timer(seq, at))

    def _on_timer(self, seq: int, at: Timestamp) -> None:
        core = self._core
        if seq not in core.pending:
            return  # acked or superseded in the meantime
        if core.retry(seq, at, at) == RESEND:
            entry = core.pending[seq]
            self._transmit(entry.message, at)
            self._arm_timer(seq, entry.due)

    # -- acknowledgements --------------------------------------------------------

    def on_ack(self, ack: Ack, at: Timestamp) -> None:
        """Retire every pending envelope the ack covers."""
        self._core.ack(ack.cumulative, ack.selective)

    # -- introspection ------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """How many envelopes are still awaiting acknowledgement."""
        return len(self._core.pending)


class ReliableReceiver:
    """The receiving half: exactly-once delivery plus ack generation.

    ``deliver(payload, at)`` receives each payload exactly once (in
    arrival order -- the replication protocols are commutative, so no
    reordering buffer is needed); ``send_ack(ack, at)`` is the raw hook
    for the reverse link.
    """

    def __init__(
        self,
        deliver: Callable[[Message, Timestamp], None],
        send_ack: Callable[[Ack, Timestamp], None],
        stats: Optional[SessionStats] = None,
    ) -> None:
        self._deliver = deliver
        self._send_ack = send_ack
        self.stats = stats if stats is not None else SessionStats()
        self._cumulative = -1
        self._out_of_order: Set[int] = set()

    def on_envelope(self, envelope: Envelope, at: Timestamp) -> None:
        """Process one arriving envelope: dedupe, deliver, acknowledge."""
        if not isinstance(envelope, Envelope):
            raise ProtocolError(f"receiver got a bare message: {envelope!r}")
        seq = envelope.seq
        if seq <= self._cumulative or seq in self._out_of_order:
            self.stats.duplicates_dropped += 1
        else:
            self._out_of_order.add(seq)
            while self._cumulative + 1 in self._out_of_order:
                self._cumulative += 1
                self._out_of_order.discard(self._cumulative)
            self._deliver(envelope.payload, at)
        # Ack every arrival (including duplicates, so a lost ack does not
        # leave the sender retransmitting forever).
        ack = Ack(
            cumulative=self._cumulative, selective=tuple(sorted(self._out_of_order))
        )
        self.stats.acks_sent += 1
        self._send_ack(ack, at)

    def reset(self) -> None:
        """Forget all session state (a crash that loses the replica)."""
        self._cumulative = -1
        self._out_of_order.clear()

    @property
    def cumulative(self) -> int:
        """The highest sequence number below which everything arrived."""
        return self._cumulative
