"""Loosely-coupled distributed substrate (the paper's Section-1 setting).

A deterministic discrete-event simulator that drives the served engine
itself -- a real database behind :class:`~repro.server.server.ReproServer`
and the production client's frame loop -- over high-latency, lossy,
partition-prone :class:`Link` s instead of a socket
(:mod:`repro.distributed.simulator`).  Used by the D1 artefact to
quantify the paper's claimed benefits: fewer messages, no deletion
traffic, and consistency under disconnection for expiration-based
maintenance.  Scripted faults (:mod:`repro.distributed.faults`) are
applied to the same deterministic core, and :class:`SyncReport` is what a
run reports.  Reliable delivery is the server's own
:class:`~repro.server.session.SenderCore`; its :class:`RetryPolicy` and
:class:`SessionStats` live in :mod:`repro.server.session` and are
re-exported here.
"""

from repro.distributed.events import EventQueue
from repro.distributed.faults import BurstLoss, FaultSchedule, LinkFlap, NodeCrash
from repro.distributed.link import Link, LinkStats
from repro.distributed.metrics import SyncReport
from repro.distributed.simulator import (
    DifferenceViewSimulation,
    FanOutSimulation,
    ReplicationSimulation,
    ReplicationStrategy,
    ViewMaintenanceStrategy,
    WorkloadEntry,
)
from repro.server.session import RetryPolicy, SessionStats

__all__ = [
    "EventQueue",
    "Link",
    "LinkStats",
    "SyncReport",
    "BurstLoss",
    "FaultSchedule",
    "LinkFlap",
    "NodeCrash",
    "RetryPolicy",
    "SessionStats",
    "DifferenceViewSimulation",
    "FanOutSimulation",
    "ReplicationSimulation",
    "ReplicationStrategy",
    "ViewMaintenanceStrategy",
    "WorkloadEntry",
]
