"""Unreliable, high-latency links between loosely-coupled nodes.

A :class:`Link` models the paper's deployment assumptions: network traffic
and latency are the cost factors, and connectivity may be intermittent.
Delivery of a message submitted at time ``t``:

* takes ``latency`` ticks (plus deterministic jitter from a seeded RNG,
  plus a size-proportional serialisation delay when ``bandwidth`` is set);
  a message's size is the bytes of the frame it carries;
* fails with probability ``loss_probability`` (the sender is not told);
* is impossible while the link is *down*; depending on
  :attr:`Link.queue_during_partition` the message is then either dropped
  or queued and delivered when the partition heals.

Partitions are explicit ``[from, to)`` windows, so experiments can script
disconnection scenarios deterministically.  The fault injector
(:mod:`repro.distributed.faults`) extends a link at construction time with
extra partitions (:meth:`Link.add_partition`) and loss bursts
(:meth:`Link.add_loss_burst`).

Use :meth:`Link.transmit` to send: it couples the send/loss accounting to
the delivery-time computation so loss bookkeeping cannot be forgotten at a
call site; the caller only schedules the receive event and calls
:meth:`Link.record_delivery` when it fires.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.core.intervals import Interval, IntervalSet
from repro.core.timestamps import TimeLike, Timestamp, ts
from repro.errors import SimulationError

__all__ = ["Link", "LinkStats"]


class LinkStats:
    """Per-link traffic accounting."""

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_lost = 0
        self.messages_queued = 0
        self.bytes_sent = 0
        self.bytes_delivered = 0

    def as_dict(self) -> dict:
        """All counters by name, for reports."""
        return dict(vars(self))


class Link:
    """A one-directional link with latency, loss, bandwidth, and partitions."""

    def __init__(
        self,
        latency: int = 1,
        jitter: int = 0,
        loss_probability: float = 0.0,
        partitions: Optional[List[Tuple[TimeLike, TimeLike]]] = None,
        queue_during_partition: bool = True,
        seed: int = 0,
        bandwidth: Optional[int] = None,
    ) -> None:
        if latency < 0:
            raise SimulationError(f"latency must be non-negative, got {latency}")
        if jitter < 0:
            raise SimulationError(f"jitter must be non-negative, got {jitter}")
        if not 0.0 <= loss_probability <= 1.0:
            raise SimulationError(
                f"loss probability must be in [0, 1], got {loss_probability}"
            )
        if bandwidth is not None and bandwidth <= 0:
            raise SimulationError(
                f"bandwidth must be a positive bytes-per-tick rate, got {bandwidth}"
            )
        self.latency = latency
        self.jitter = jitter
        self.loss_probability = loss_probability
        self.bandwidth = bandwidth
        self.seed = seed
        self.down_times = IntervalSet.from_pairs(partitions or [])
        self.queue_during_partition = queue_during_partition
        self.stats = LinkStats()
        self._loss_bursts: List[Tuple[Interval, float]] = []
        self._rng = random.Random(seed)

    # -- fault-injection hooks ------------------------------------------------

    def add_partition(self, start: TimeLike, end: TimeLike) -> None:
        """Add a ``[start, end)`` down window (used by the fault injector)."""
        self.down_times = self.down_times.union(IntervalSet.single(start, end))

    def add_loss_burst(self, start: TimeLike, end: TimeLike, probability: float) -> None:
        """Raise the loss probability to ``probability`` during ``[start, end)``."""
        if not 0.0 <= probability <= 1.0:
            raise SimulationError(
                f"loss probability must be in [0, 1], got {probability}"
            )
        self._loss_bursts.append((Interval(start, end), probability))

    def loss_probability_at(self, at: TimeLike) -> float:
        """The effective loss probability for a message sent at ``at``."""
        effective = self.loss_probability
        stamp = ts(at)
        for window, probability in self._loss_bursts:
            if window.contains(stamp) and probability > effective:
                effective = probability
        return effective

    # -- delivery -------------------------------------------------------------

    def is_up(self, at: TimeLike) -> bool:
        """Whether the link is outside every partition window at ``at``."""
        return not self.down_times.contains(at)

    def serialisation_delay(self, size: int) -> int:
        """Extra ticks to clock ``size`` bytes onto the wire (0 if unbounded)."""
        if self.bandwidth is None:
            return 0
        return -(-size // self.bandwidth)  # ceil division

    def delivery_time(self, sent_at: TimeLike, size: int = 1) -> Optional[Timestamp]:
        """When a message sent at ``sent_at`` arrives, or ``None`` if lost.

        The caller schedules the receive event at the returned time; prefer
        :meth:`transmit`, which also does the send/loss stats bookkeeping,
        leaving only :meth:`record_delivery` for the receive event.
        """
        stamp = ts(sent_at)
        loss = self.loss_probability_at(stamp)
        if loss and self._rng.random() < loss:
            return None
        departure = stamp
        if not self.is_up(departure):
            if not self.queue_during_partition:
                return None
            healed = self.down_times.complement().next_valid_time(departure)
            if healed is None:
                return None  # partitioned forever
            self.stats.messages_queued += 1
            departure = healed
        delay = self.latency + self.serialisation_delay(size)
        if self.jitter:
            delay += self._rng.randint(0, self.jitter)
        return departure + delay

    def transmit(self, sent_at: TimeLike, size: int) -> Optional[Timestamp]:
        """Send one message: accounts the send, and the loss if it is lost.

        Returns the arrival time, or ``None`` when the message never
        arrives (sampled loss, un-queued partition, or a partition that
        never heals).  This is the only sending entry point the simulators
        use, so a lost message can never be missing from the stats.
        """
        self.record_send(size)
        arrival = self.delivery_time(sent_at, size)
        if arrival is None:
            self.record_loss()
        return arrival

    # -- stats ----------------------------------------------------------------

    def record_send(self, size: int) -> None:
        """Account one outbound message of ``size``."""
        self.stats.messages_sent += 1
        self.stats.bytes_sent += size

    def record_delivery(self, size: int) -> None:
        """Account one delivered message of ``size``."""
        self.stats.messages_delivered += 1
        self.stats.bytes_delivered += size

    def record_loss(self) -> None:
        """Account one lost message."""
        self.stats.messages_lost += 1
