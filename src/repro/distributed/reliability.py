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
  Defined, like :class:`SessionStats`, beside its production user in
  :mod:`repro.server.session` (the simulator imports the served engine's
  core, never the reverse) and re-exported here.
* :class:`ReliableSender` -- wraps payloads in sequence-numbered
  :class:`Envelope`\\ s, schedules retransmissions on the simulation's
  :class:`EventQueue`, cancels expired or superseded ones, and retires
  entries when :class:`Ack`\\ s arrive.
* :class:`ReliableReceiver` -- deduplicates envelopes, tracks the
  cumulative/selective ack state, and hands payloads up exactly once.

Both ends are transport-agnostic: they emit messages through callables the
simulator wires to its links, so the session layer itself stays free of
link bookkeeping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set, Tuple

from repro.core.timestamps import TimeLike, Timestamp, ts
from repro.distributed.events import EventQueue
from repro.distributed.protocols import Ack, Envelope, Message
from repro.errors import ProtocolError
from repro.server.session import RetryPolicy, SessionStats

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


class _PendingEntry:
    """One unacknowledged envelope awaiting ack or retransmission."""

    __slots__ = ("envelope", "expires_at", "channel", "attempt")

    def __init__(
        self,
        envelope: Envelope,
        expires_at: Optional[Timestamp],
        channel: Optional[str],
    ) -> None:
        self.envelope = envelope
        self.expires_at = expires_at
        self.channel = channel
        self.attempt = 0


class ReliableSender:
    """The sending half of a reliable session.

    ``transmit(message, now)`` is the raw link hook; retransmissions are
    scheduled on ``events`` so they interleave deterministically with the
    rest of the simulation.
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
        self._rng = random.Random(seed)
        self._next_seq = 0
        self._pending: Dict[int, _PendingEntry] = {}

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
        ones (e.g. full snapshots): pending entries on the same channel
        are cancelled immediately.
        """
        if channel is not None:
            self._supersede(channel)
        envelope = Envelope(seq=self._next_seq, payload=payload)
        self._next_seq += 1
        entry = _PendingEntry(envelope, expires_at, channel)
        self._pending[envelope.seq] = entry
        self.stats.sent += 1
        self._transmit(envelope, now)
        self._arm_timer(entry, now)
        return envelope

    def _supersede(self, channel: str) -> None:
        stale = [
            seq for seq, entry in self._pending.items() if entry.channel == channel
        ]
        for seq in stale:
            del self._pending[seq]
            self.stats.superseded += 1

    def _arm_timer(self, entry: _PendingEntry, now: Timestamp) -> None:
        delay = self.policy.delay(entry.attempt, self._rng)
        seq = entry.envelope.seq
        self._events.schedule(now + delay, lambda at, seq=seq: self._on_timer(seq, at))

    def _on_timer(self, seq: int, at: Timestamp) -> None:
        entry = self._pending.get(seq)
        if entry is None:
            return  # acked or superseded in the meantime
        if entry.expires_at is not None and entry.expires_at <= at:
            # The tuple is dead: the replica would ignore it anyway.  This
            # cancellation is the paper-specific saving the benches report.
            del self._pending[seq]
            self.stats.retransmissions_avoided += 1
            self.stats.cells_avoided += entry.envelope.size_cells()
            return
        if entry.attempt + 1 > self.policy.max_attempts:
            del self._pending[seq]
            self.stats.abandoned += 1
            return
        entry.attempt += 1
        self.stats.retransmissions += 1
        self._transmit(entry.envelope, at)
        self._arm_timer(entry, at)

    # -- acknowledgements --------------------------------------------------------

    def on_ack(self, ack: Ack, at: Timestamp) -> None:
        """Retire every pending envelope the ack covers."""
        for seq in list(self._pending):
            if seq <= ack.cumulative or seq in ack.selective:
                del self._pending[seq]
                self.stats.acked += 1

    # -- introspection ------------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """How many envelopes are still awaiting acknowledgement."""
        return len(self._pending)


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
