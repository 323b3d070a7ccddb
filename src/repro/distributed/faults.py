"""Scripted fault injection for the loosely-coupled simulations.

Faults are *data*, not code: a :class:`FaultSchedule` is a validated list
of crash, link-flap, and burst-loss events that a simulation applies
deterministically -- static link faults are folded into the links before
the first message is sent, node crashes become ordinary events on the
simulation's :class:`EventQueue`.  Running the same schedule with the same
seeds always produces the same run, so fault experiments are as
reproducible as fault-free ones.

Three fault kinds, layered over the existing deterministic
:class:`~repro.distributed.link.Link` partitions:

* :class:`NodeCrash` -- the client stops processing deliveries at ``at``
  and resumes at ``restart_at``; with ``lose_state=True`` it also loses
  its session, which retransmission cannot repair: it comes back as a
  fresh session and subscribes again.
* :class:`LinkFlap` -- a ``[at, at+duration)`` partition injected into
  the forward and reverse links.
* :class:`BurstLoss` -- the loss probability jumps to ``probability``
  during ``[at, until)`` (correlated loss, the hard case for naive
  retry timers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, Union

from repro.distributed.link import Link
from repro.errors import FaultInjectionError

__all__ = ["NodeCrash", "LinkFlap", "BurstLoss", "Fault", "FaultSchedule"]


@dataclass(frozen=True)
class NodeCrash:
    """The client node is down during ``[at, restart_at)``.

    Frames delivered while down are dropped on the floor (the process
    is not there to read them); with ``lose_state=True`` the restart
    comes back with nothing, as if the node's disk died with it, and
    opens a fresh session.
    """

    at: int
    restart_at: int
    lose_state: bool = False

    def validate(self) -> None:
        if self.at < 0:
            raise FaultInjectionError(f"crash time must be non-negative, got {self.at}")
        if self.restart_at <= self.at:
            raise FaultInjectionError(
                f"restart ({self.restart_at}) must come after the crash ({self.at})"
            )


@dataclass(frozen=True)
class LinkFlap:
    """Both link directions are partitioned during ``[at, at + duration)``."""

    at: int
    duration: int

    def validate(self) -> None:
        if self.at < 0:
            raise FaultInjectionError(f"flap time must be non-negative, got {self.at}")
        if self.duration < 1:
            raise FaultInjectionError(
                f"flap duration must be >= 1 tick, got {self.duration}"
            )


@dataclass(frozen=True)
class BurstLoss:
    """Loss probability is raised to ``probability`` during ``[at, until)``."""

    at: int
    until: int
    probability: float = 1.0

    def validate(self) -> None:
        if self.at < 0:
            raise FaultInjectionError(f"burst start must be non-negative, got {self.at}")
        if self.until <= self.at:
            raise FaultInjectionError(
                f"burst end ({self.until}) must come after its start ({self.at})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultInjectionError(
                f"burst loss probability must be in [0, 1], got {self.probability}"
            )


Fault = Union[NodeCrash, LinkFlap, BurstLoss]


class FaultSchedule:
    """An immutable, validated list of scripted faults."""

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self.faults: Tuple[Fault, ...] = tuple(faults)
        for fault in self.faults:
            if not isinstance(fault, (NodeCrash, LinkFlap, BurstLoss)):
                raise FaultInjectionError(f"unknown fault kind: {fault!r}")
            fault.validate()

    # -- convenient views -----------------------------------------------------

    @property
    def crashes(self) -> Tuple[NodeCrash, ...]:
        return tuple(f for f in self.faults if isinstance(f, NodeCrash))

    @property
    def flaps(self) -> Tuple[LinkFlap, ...]:
        return tuple(f for f in self.faults if isinstance(f, LinkFlap))

    @property
    def bursts(self) -> Tuple[BurstLoss, ...]:
        return tuple(f for f in self.faults if isinstance(f, BurstLoss))

    def last_activity(self) -> int:
        """The last tick at which any fault is still acting (for horizons)."""
        latest = 0
        for fault in self.faults:
            if isinstance(fault, NodeCrash):
                latest = max(latest, fault.restart_at)
            elif isinstance(fault, LinkFlap):
                latest = max(latest, fault.at + fault.duration)
            else:
                latest = max(latest, fault.until)
        return latest

    def apply_to_links(self, links: Sequence[Link]) -> None:
        """Fold every static link fault into ``links`` (call before running).

        Flaps and loss bursts affect a link's treatment of messages *sent*
        inside the window; a message already in flight when a flap starts
        still arrives (it left the sender before the fault), which keeps
        delivery deterministic without rewriting scheduled events.
        """
        for fault in self.faults:
            if isinstance(fault, LinkFlap):
                for link in links:
                    link.add_partition(fault.at, fault.at + fault.duration)
            elif isinstance(fault, BurstLoss):
                for link in links:
                    link.add_loss_burst(fault.at, fault.until, fault.probability)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def __repr__(self) -> str:
        return f"FaultSchedule({list(self.faults)!r})"
