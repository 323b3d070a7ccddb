"""The loosely-coupled simulations against a recorded grid of runs.

``data/sync_golden.json`` holds, for every run of a fixed grid, the
report's ``summary_row()``, ``fault_tolerance_row()`` and ``detail``.  The
grid crosses each scenario's strategies with scripted faults (none; loss
bursts, flaps and a state-losing crash) over seeded lossy links, so the
file pins every random draw the links and the server's retry timers make,
and the order they make them in, and every frame the served engine ships.
A change to the server's delivery, the client's frame loop or the
simulations' wiring must reproduce the file exactly.

To re-record (only when a scenario's behaviour changes on purpose)::

    PYTHONPATH=src python -m tests.distributed.test_sync_golden
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.fixtures import (
    UniformLifetime,
    overlapping_relations,
    random_stream,
)

from repro.distributed.faults import BurstLoss, FaultSchedule, LinkFlap, NodeCrash
from repro.distributed.link import Link
from repro.distributed.simulator import (
    DifferenceViewSimulation,
    FanOutSimulation,
    ReplicationSimulation,
    ReplicationStrategy,
    ViewMaintenanceStrategy,
)

GOLDEN = Path(__file__).with_name("data") / "sync_golden.json"


def _replication_workload():
    workload = random_stream(
        ["k", "v"], 40, UniformLifetime(10, 30), arrival_span=50, seed=7
    )
    return workload + [(5, (900 + i, "eternal"), 10_000) for i in range(3)]


def _replication_faults() -> FaultSchedule:
    return FaultSchedule([
        BurstLoss(at=25, until=55, probability=1.0),
        LinkFlap(at=90, duration=15),
        NodeCrash(at=120, restart_at=130, lose_state=True),
    ])


def _replication(strategy, stack):
    options = {}
    if stack == "faults":
        options["faults"] = _replication_faults()
        options["horizon"] = 400
    return ReplicationSimulation(
        ["k", "v"], _replication_workload(), range(10, 200, 10), strategy,
        link=Link(latency=2, jitter=1, loss_probability=0.2, seed=3),
        **options,
    )


def _difference(strategy, stack):
    left, right = overlapping_relations(
        ["k", "v"], 30, 0.5, UniformLifetime(5, 50), seed=3
    )
    options = {}
    if stack == "crash":
        options["faults"] = FaultSchedule(
            [NodeCrash(at=20, restart_at=26, lose_state=True)]
        )
    return DifferenceViewSimulation(
        left, right, list(range(0, 70, 3)), strategy,
        link=Link(latency=1, jitter=1, loss_probability=0.2, seed=5),
        **options,
    )


def _fan_out():
    workload = random_stream(["k", "v"], 30, UniformLifetime(10, 40),
                             arrival_span=25, seed=4)
    links = [
        Link(latency=client + 1, loss_probability=0.15, seed=client)
        for client in range(3)
    ]
    return FanOutSimulation(
        ["k", "v"], workload, range(30, 70, 4),
        ReplicationStrategy.EXPLICIT_DELETE, links=links,
        client_skews=[0, 2, 5],
    )


def grid():
    """``(name, simulation factory)`` for every recorded run."""
    runs = []
    for strategy in ReplicationStrategy:
        for stack in ("bare", "faults"):
            runs.append((f"replication/{strategy.value}/{stack}",
                         lambda s=strategy, k=stack: _replication(s, k)))
    for strategy in ViewMaintenanceStrategy:
        for stack in ("bare", "crash"):
            runs.append((f"difference/{strategy.value}/{stack}",
                         lambda s=strategy, k=stack: _difference(s, k)))
    runs.append(("fanout/explicit_delete", _fan_out))
    return runs


def outcome(factory) -> dict:
    """One run's rows and detail, as JSON would hand them back."""
    report = factory().run()
    record = {
        "summary": report.summary_row(),
        "fault_tolerance": report.fault_tolerance_row(),
        "detail": report.detail,
    }
    return json.loads(json.dumps(record))


def write_golden(path: Path = GOLDEN) -> int:
    """Record every run of the grid; returns the count."""
    cases = {name: outcome(factory) for name, factory in grid()}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return len(cases)


def test_the_simulations_reproduce_the_golden_grid():
    cases = json.loads(GOLDEN.read_text(encoding="utf-8"))
    runs = grid()
    assert sorted(cases) == sorted(name for name, _ in runs)
    changed = [name for name, factory in runs
               if outcome(factory) != cases[name]]
    assert not changed, changed


if __name__ == "__main__":
    print(f"{write_golden()} runs written to {GOLDEN}")
