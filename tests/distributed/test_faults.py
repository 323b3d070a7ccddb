"""Tests for fault injection and end-to-end fault tolerance.

The end-to-end scenario: a seeded lossy link, a burst of total loss, a
partition window and one state-losing crash/restart.  Delivery is the
server's own seq/ack stream, and a client that lost its state comes back
as a fresh session that subscribes again, so both subscribing strategies
converge exactly to the ground truth after quiescence -- with no repair
protocol beside the stream.
"""

import pytest

from benchmarks.fixtures import UniformLifetime, random_stream

from repro.distributed.faults import BurstLoss, FaultSchedule, LinkFlap, NodeCrash
from repro.distributed.link import Link
from repro.distributed.simulator import ReplicationSimulation, ReplicationStrategy
from repro.errors import FaultInjectionError


class TestFaultValidation:
    def test_crash_must_restart_after_crashing(self):
        with pytest.raises(FaultInjectionError):
            FaultSchedule([NodeCrash(at=10, restart_at=10)])
        with pytest.raises(FaultInjectionError):
            FaultSchedule([NodeCrash(at=-1, restart_at=5)])

    def test_flap_needs_positive_duration(self):
        with pytest.raises(FaultInjectionError):
            FaultSchedule([LinkFlap(at=5, duration=0)])

    def test_burst_bounds(self):
        with pytest.raises(FaultInjectionError):
            FaultSchedule([BurstLoss(at=10, until=5)])
        with pytest.raises(FaultInjectionError):
            FaultSchedule([BurstLoss(at=0, until=5, probability=2.0)])

    def test_rejects_unknown_fault_kinds(self):
        with pytest.raises(FaultInjectionError):
            FaultSchedule(["not a fault"])

    def test_last_activity(self):
        schedule = FaultSchedule([
            NodeCrash(at=10, restart_at=30),
            LinkFlap(at=40, duration=5),
            BurstLoss(at=0, until=20),
        ])
        assert schedule.last_activity() == 45

    def test_apply_folds_static_faults_into_links(self):
        schedule = FaultSchedule([
            LinkFlap(at=10, duration=5),
            BurstLoss(at=30, until=40, probability=1.0),
        ])
        link = Link(latency=1)
        schedule.apply_to_links([link])
        assert not link.is_up(12)
        assert link.is_up(15)
        assert link.loss_probability_at(35) == 1.0


def acceptance_workload():
    workload = random_stream(
        ["k", "v"], 40, UniformLifetime(10, 30), arrival_span=50, seed=7
    )
    # A few rows that outlive the whole run: a lost insert of one of these
    # is never made good by expiration.
    workload += [(5, (900 + i, "eternal"), 10_000) for i in range(4)]
    return workload


def acceptance_faults():
    return FaultSchedule([
        BurstLoss(at=25, until=55, probability=1.0),
        LinkFlap(at=90, duration=15),
        NodeCrash(at=120, restart_at=130, lose_state=True),
    ])


def run_replication(strategy, seed=3, loss=0.2):
    sim = ReplicationSimulation(
        ["k", "v"], acceptance_workload(), range(10, 200, 10), strategy,
        link=Link(latency=2, loss_probability=loss, seed=seed),
        faults=acceptance_faults(),
        horizon=400,
    )
    report = sim.run()
    return sim, report


def assert_converges_exactly(strategy, loss):
    sim, report = run_replication(strategy, loss=loss)
    assert report.converged
    assert report.converged_at is not None
    # Exact agreement with the origin's live rows after quiescence.
    seen = sim.client.visible(400, query=False)
    assert seen == sim._truth(400)
    assert seen  # non-vacuous: the eternal rows remain
    # The restarted client subscribed again: two handshakes.
    assert len(sim.client.ends) == 2


class TestEndToEndFaultTolerance:
    def test_expiration_converges_to_ground_truth(self):
        assert_converges_exactly(ReplicationStrategy.EXPIRATION, loss=0.2)

    def test_state_loss_survives_a_lossless_link(self):
        # Nothing is lost on the link, so only the crash can leave the
        # replica short; subscribing again makes it whole.
        assert_converges_exactly(ReplicationStrategy.EXPIRATION, loss=0.0)

    def test_baseline_converges_to_ground_truth(self):
        for loss in (0.0, 0.2):
            assert_converges_exactly(ReplicationStrategy.EXPLICIT_DELETE, loss=loss)

    def test_expiration_awareness_saves_retransmissions(self):
        _, report = run_replication(ReplicationStrategy.EXPIRATION)
        assert report.retransmissions > 0
        assert report.retransmissions_avoided > 0
        assert report.cells_avoided > 0

    def test_expiration_converges_cheaper_than_baseline(self):
        _, baseline = run_replication(ReplicationStrategy.EXPLICIT_DELETE)
        _, expiration = run_replication(ReplicationStrategy.EXPIRATION)
        assert expiration.converged and baseline.converged
        assert expiration.bytes < baseline.bytes
        assert expiration.messages < baseline.messages

    def test_convergence_metrics_are_coherent(self):
        _, report = run_replication(ReplicationStrategy.EXPIRATION)
        windows = report.detail["divergence_windows"]
        assert report.divergence_ticks == sum(end - start for start, end in windows)
        assert report.max_staleness == max(end - start for start, end in windows)
        assert report.converged_at == windows[-1][1]
        assert report.convergence_lag is not None and report.convergence_lag >= 0

    def test_crash_without_state_loss_recovers_by_retransmission(self):
        faults = FaultSchedule([NodeCrash(at=30, restart_at=40, lose_state=False)])
        sim = ReplicationSimulation(
            ["k", "v"], acceptance_workload(), range(10, 200, 10),
            ReplicationStrategy.EXPIRATION,
            link=Link(latency=2, seed=3),
            faults=faults, horizon=400,
        )
        report = sim.run()
        assert report.converged
        assert report.detail.get("crash_drops", 0) > 0
        assert report.retransmissions > 0
        assert len(sim.client.ends) == 1  # the session survived the crash

    def test_deterministic_across_identical_seeds(self):
        rows = [
            run_replication(ReplicationStrategy.EXPIRATION)[1].fault_tolerance_row()
            for _ in range(2)
        ]
        assert rows[0] == rows[1]

    def test_different_seed_changes_the_run(self):
        a = run_replication(ReplicationStrategy.EXPIRATION, seed=3)[1]
        b = run_replication(ReplicationStrategy.EXPIRATION, seed=4)[1]
        assert a.fault_tolerance_row() != b.fault_tolerance_row()
