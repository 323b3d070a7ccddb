"""Tests for the loosely-coupled maintenance simulations (experiment D1 & TH3).

The simulations drive the served engine over simulated links: traffic is
counted in frames, ``subscribe`` + ``sub-ok`` (2) included, acks apart.
"""

import pytest

from benchmarks.fixtures import UniformLifetime, overlapping_relations, random_stream

from repro.core.timestamps import ts
from repro.distributed.link import Link
from repro.distributed.simulator import (
    DifferenceViewSimulation,
    ReplicationSimulation,
    ReplicationStrategy,
    ViewMaintenanceStrategy,
)


def small_workload():
    # Deterministic little workload: rows arrive early, expire over time.
    return [
        (0, (1, "a"), 10),
        (0, (2, "b"), 20),
        (1, (3, "c"), 15),
        (2, (4, "d"), 30),
    ]


class TestReplication:
    def test_expiration_strategy_sends_no_deletes(self):
        sim = ReplicationSimulation(
            ["k", "v"], small_workload(), range(5, 35, 5),
            ReplicationStrategy.EXPIRATION, link=Link(latency=1),
        )
        report = sim.run()
        # The subscription, then one patch per insert, nothing else.
        assert report.messages == 2 + 4
        assert sim.server.families["patch_rows"].labels("remove").value == 0
        assert report.consistency == 1.0

    def test_explicit_delete_doubles_traffic(self):
        sim = ReplicationSimulation(
            ["k", "v"], small_workload(), range(5, 35, 5),
            ReplicationStrategy.EXPLICIT_DELETE, link=Link(latency=1),
        )
        report = sim.run()
        assert report.messages == 2 + 8  # 4 inserts + 4 deletes
        assert sim.server.families["patch_rows"].labels("remove").value == 4

    def test_explicit_delete_serves_stale_under_latency(self):
        # Between a lifetime elapsing and the delete arriving, the client
        # answers with dead tuples -- "extra" inconsistencies.
        sim = ReplicationSimulation(
            ["k", "v"], small_workload(), [10, 15, 20, 30],
            ReplicationStrategy.EXPLICIT_DELETE, link=Link(latency=3),
        )
        report = sim.run()
        assert report.extra_tuples > 0

    def test_expiration_never_serves_stale(self):
        sim = ReplicationSimulation(
            ["k", "v"], small_workload(), [10, 15, 20, 30],
            ReplicationStrategy.EXPIRATION, link=Link(latency=3),
        )
        report = sim.run()
        assert report.extra_tuples == 0

    def test_partition_breaks_baseline_not_expiration(self):
        # The link goes down before the deletes are due and heals late.
        queries = [12, 18, 25]
        down = [(9, 26)]
        baseline = ReplicationSimulation(
            ["k", "v"], small_workload(), queries,
            ReplicationStrategy.EXPLICIT_DELETE,
            link=Link(latency=1, partitions=down),
        ).run()
        expiration = ReplicationSimulation(
            ["k", "v"], small_workload(), queries,
            ReplicationStrategy.EXPIRATION,
            link=Link(latency=1, partitions=down),
        ).run()
        assert baseline.extra_tuples > 0
        assert expiration.extra_tuples == 0
        assert expiration.consistency == 1.0

    def test_periodic_snapshot_traffic_grows_with_period_count(self):
        sim = ReplicationSimulation(
            ["k", "v"], small_workload(), [7, 22],
            ReplicationStrategy.PERIODIC_SNAPSHOT,
            link=Link(latency=1), snapshot_period=5,
        )
        report = sim.run()
        assert report.messages >= 6  # one snapshot per period

    def test_clock_skew_makes_client_conservative(self):
        # A fast client clock (+5) expires replicated tuples early: never
        # stale, but may miss live ones.
        sim = ReplicationSimulation(
            ["k", "v"], small_workload(), [8, 12, 18],
            ReplicationStrategy.EXPIRATION,
            link=Link(latency=0), client_skew=5,
        )
        report = sim.run()
        assert report.extra_tuples == 0
        assert report.missing_tuples > 0

    def test_deterministic(self):
        workload = random_stream(["k", "v"], 30, UniformLifetime(5, 25), seed=11)
        reports = [
            ReplicationSimulation(
                ["k", "v"], workload, range(0, 60, 7),
                ReplicationStrategy.EXPLICIT_DELETE, link=Link(latency=2, seed=5),
            ).run().summary_row()
            for _ in range(2)
        ]
        assert reports[0] == reports[1]


class TestFanOut:
    def make(self, strategy, clients=3):
        from repro.distributed.simulator import FanOutSimulation

        workload = random_stream(["k", "v"], 30, UniformLifetime(10, 40),
                                 arrival_span=25, seed=4)
        links = [Link(latency=l + 1, seed=l) for l in range(clients)]
        return FanOutSimulation(
            ["k", "v"], workload, range(30, 70, 4), strategy, links=links
        )

    def test_expiration_scales_without_delete_traffic(self):
        expiration = self.make(ReplicationStrategy.EXPIRATION).run()
        baseline = self.make(ReplicationStrategy.EXPLICIT_DELETE).run()
        # Beyond each client's subscription (2 frames) and any resends, one
        # insert per (client, insert) for both; the baseline adds one
        # delete per (client, expiration).
        def first_sends(report):
            return report.messages - 2 * 3 - report.retransmissions

        assert first_sends(expiration) == 30 * 3
        assert first_sends(baseline) == 2 * first_sends(expiration)
        assert expiration.consistency == 1.0
        assert expiration.detail["worst_client_consistency"] == 1.0
        assert baseline.detail["worst_client_consistency"] < 1.0

    def test_no_resend_while_an_ack_is_in_flight(self):
        # Lossless links of latency 1-3: every ack comes back within the
        # slowest round trip, so the first retry timer never fires.
        simulation = self.make(ReplicationStrategy.EXPIRATION)
        report = simulation.run()
        assert report.retransmissions == 0
        assert [node.report.retransmissions
                for node in simulation.simulation.nodes] == [0, 0, 0]
        assert simulation.simulation.server.retry.base_delay == 6

    def test_skewed_clients_stay_conservative(self):
        from repro.distributed.simulator import FanOutSimulation

        workload = random_stream(["k", "v"], 20, UniformLifetime(10, 40),
                                 arrival_span=20, seed=9)
        sim = FanOutSimulation(
            ["k", "v"], workload, range(25, 60, 5),
            ReplicationStrategy.EXPIRATION,
            links=[Link(latency=1), Link(latency=1)],
            client_skews=[0, 8],
        )
        report = sim.run()
        assert report.extra_tuples == 0  # skew never serves dead data

    def test_validation(self):
        from repro.distributed.simulator import FanOutSimulation

        with pytest.raises(Exception):
            FanOutSimulation(["k"], [], [], ReplicationStrategy.EXPIRATION, links=[])
        with pytest.raises(Exception):
            FanOutSimulation(
                ["k"], [], [], ReplicationStrategy.EXPIRATION,
                links=[Link()], client_skews=[0, 1],
            )


class TestDifferenceViewSync:
    def make(self, strategy, latency=1, seed=3):
        left, right = overlapping_relations(
            ["k", "v"], 30, 0.5, UniformLifetime(5, 50), seed=seed
        )
        return DifferenceViewSimulation(
            left, right, list(range(0, 70, 3)), strategy, link=Link(latency=latency)
        )

    def test_patch_never_contacts_server_again(self):
        sim = self.make(ViewMaintenanceStrategy.PATCH)
        report = sim.run()
        assert report.recompute_requests == 0
        assert report.consistency == 1.0
        # Exactly two messages: the snapshot and the patch shipment.
        assert report.messages == 2

    def test_a_client_cannot_tell_the_pushing_policies_apart(self):
        """The server pushes what a RECOMPUTE or SCHRODINGER view changed;
        the client never asks, so the two runs are the same run."""
        recompute = self.make(ViewMaintenanceStrategy.RECOMPUTE_ON_INVALID).run()
        schrodinger = self.make(ViewMaintenanceStrategy.SCHRODINGER).run()
        rows = [recompute.summary_row(), schrodinger.summary_row()]
        for row in rows:
            del row["strategy"]
        assert rows[0] == rows[1]
        assert recompute.recompute_requests == 0
        assert recompute.messages > 2

    def test_pushes_landing_in_the_tick_keep_the_client_exact(self):
        """On a link without latency a push arrives in the tick of the
        change it carries, before that tick's queries."""
        for strategy in ViewMaintenanceStrategy:
            report = self.make(strategy, latency=0).run()
            assert report.consistency == 1.0, strategy

    def test_recompute_on_invalid_suffers_in_flight(self):
        report_fast = self.make(
            ViewMaintenanceStrategy.RECOMPUTE_ON_INVALID, latency=0
        ).run()
        report_slow = self.make(
            ViewMaintenanceStrategy.RECOMPUTE_ON_INVALID, latency=6
        ).run()
        assert report_slow.consistency <= report_fast.consistency

    def test_patch_ships_at_most_intersection(self):
        left, right = overlapping_relations(
            ["k", "v"], 30, 0.5, UniformLifetime(5, 50), seed=3
        )
        shared = sum(1 for row in left.rows() if row in right)
        sim = DifferenceViewSimulation(
            left, right, [0, 10], ViewMaintenanceStrategy.PATCH, link=Link(latency=1)
        )
        report = sim.run()
        assert report.patches_shipped <= shared
