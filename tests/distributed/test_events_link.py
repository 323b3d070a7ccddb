"""Tests for the event queue and link model."""

import pytest

from repro.core.timestamps import ts
from repro.distributed.events import EventQueue
from repro.distributed.link import Link
from repro.errors import SimulationError


class TestEventQueue:
    def test_runs_in_time_order(self):
        queue = EventQueue()
        log = []
        queue.schedule(5, lambda at: log.append(("b", int(at))))
        queue.schedule(2, lambda at: log.append(("a", int(at))))
        queue.run_until(10)
        assert log == [("a", 2), ("b", 5)]

    def test_same_time_fifo(self):
        queue = EventQueue()
        log = []
        queue.schedule(3, lambda at: log.append("first"))
        queue.schedule(3, lambda at: log.append("second"))
        queue.run_until(3)
        assert log == ["first", "second"]

    def test_run_until_stops(self):
        queue = EventQueue()
        log = []
        queue.schedule(5, lambda at: log.append(5))
        queue.schedule(15, lambda at: log.append(15))
        assert queue.run_until(10) == 1
        assert log == [5]
        assert len(queue) == 1

    def test_cascading_events(self):
        queue = EventQueue()
        log = []

        def first(at):
            log.append(int(at))
            queue.schedule_in(3, lambda when: log.append(int(when)))

        queue.schedule(2, first)
        queue.run_until(10)
        assert log == [2, 5]

    def test_no_past_scheduling(self):
        queue = EventQueue()
        queue.schedule(5, lambda at: None)
        queue.run_until(5)
        with pytest.raises(SimulationError):
            queue.schedule(4, lambda at: None)

    def test_infinite_events_never_fire(self):
        queue = EventQueue()
        from repro.core.timestamps import INFINITY

        queue.schedule(INFINITY, lambda at: pytest.fail("fired"))
        assert len(queue) == 0

    def test_now_advances_to_horizon(self):
        queue = EventQueue()
        queue.run_until(7)
        assert queue.now == ts(7)


class TestLink:
    def test_latency(self):
        link = Link(latency=3)
        assert link.delivery_time(5) == ts(8)

    def test_jitter_bounded_and_deterministic(self):
        a = Link(latency=2, jitter=4, seed=7)
        b = Link(latency=2, jitter=4, seed=7)
        times_a = [int(a.delivery_time(0)) for _ in range(10)]
        times_b = [int(b.delivery_time(0)) for _ in range(10)]
        assert times_a == times_b
        assert all(2 <= t <= 6 for t in times_a)

    def test_loss(self):
        link = Link(loss_probability=1.0)
        assert link.delivery_time(0) is None
        link = Link(loss_probability=0.0)
        assert link.delivery_time(0) is not None

    def test_partition_queues(self):
        link = Link(latency=1, partitions=[(5, 10)])
        assert link.is_up(4)
        assert not link.is_up(5)
        assert link.delivery_time(7) == ts(11)  # departs at heal time 10
        assert link.stats.messages_queued == 1

    def test_partition_drops_when_not_queueing(self):
        link = Link(latency=1, partitions=[(5, 10)], queue_during_partition=False)
        assert link.delivery_time(7) is None

    def test_forever_partition(self):
        link = Link(latency=1, partitions=[(5, None)])
        assert link.delivery_time(7) is None

    def test_bad_parameters(self):
        with pytest.raises(SimulationError):
            Link(latency=-1)
        with pytest.raises(SimulationError):
            Link(loss_probability=1.5)

    def test_stats_accounting(self):
        link = Link()
        link.record_send(10)
        link.record_delivery(10)
        link.record_loss()
        stats = link.stats.as_dict()
        assert stats["messages_sent"] == 1
        assert stats["bytes_sent"] == 10
        assert stats["messages_lost"] == 1

    def test_loss_sampled_during_partition_still_loses(self):
        # Loss is sampled before the partition check: a message that would
        # have been lost anyway is lost, not queued for the heal.
        link = Link(latency=1, loss_probability=1.0, partitions=[(5, 10)])
        assert link.delivery_time(7) is None
        assert link.stats.messages_queued == 0

    def test_back_to_back_partitions_coalesce(self):
        # [5,10) and [10,15) form one down window; a message sent inside
        # the first departs only when the *second* heals.
        link = Link(latency=1, partitions=[(5, 10), (10, 15)])
        assert link.delivery_time(7) == ts(16)
        assert link.stats.messages_queued == 1

    def test_transmit_accounts_sends_and_losses(self):
        lossy = Link(loss_probability=1.0)
        assert lossy.transmit(0, size=4) is None
        assert lossy.stats.messages_sent == 1
        assert lossy.stats.bytes_sent == 4
        assert lossy.stats.messages_lost == 1
        clean = Link(latency=2)
        assert clean.transmit(0, size=4) == ts(2)
        assert clean.stats.messages_lost == 0

    def test_transmit_counts_forever_partition_as_lost(self):
        link = Link(latency=1, partitions=[(0, None)])
        assert link.transmit(3, size=2) is None
        assert link.stats.messages_lost == 1

    def test_deterministic_across_identical_seeds(self):
        def trace(seed):
            link = Link(latency=2, jitter=3, loss_probability=0.4, seed=seed)
            return [link.transmit(t, size=1) for t in range(30)]

        assert trace(11) == trace(11)
        assert trace(11) != trace(12)

    def test_bandwidth_adds_serialisation_delay(self):
        link = Link(latency=2, bandwidth=2)
        assert link.serialisation_delay(1) == 1
        assert link.serialisation_delay(5) == 3  # ceil(5 / 2)
        assert link.delivery_time(0, size=5) == ts(5)
        unbounded = Link(latency=2)
        assert unbounded.serialisation_delay(100) == 0

    def test_bandwidth_validation(self):
        with pytest.raises(SimulationError):
            Link(bandwidth=0)

    def test_loss_burst_overrides_base_probability(self):
        link = Link(loss_probability=0.1)
        link.add_loss_burst(10, 20, 1.0)
        assert link.loss_probability_at(5) == 0.1
        assert link.loss_probability_at(10) == 1.0
        assert link.loss_probability_at(19) == 1.0
        assert link.loss_probability_at(20) == 0.1
        assert link.delivery_time(15) is None
        with pytest.raises(SimulationError):
            link.add_loss_burst(0, 5, 1.5)

    def test_added_partition_behaves_like_constructed(self):
        link = Link(latency=1)
        link.add_partition(5, 10)
        assert not link.is_up(7)
        assert link.delivery_time(7) == ts(11)
