"""Tests for reliable delivery: the server's sender core, the client's
in-order receiver, and the two over a lossy simulated link.

The sender is :class:`repro.server.session.SenderCore` (sequence numbers,
acks, retry verdicts in the caller's time unit); the receiver is the
client's :class:`repro.server.client._WireSubscription`, which applies
patches in order only, holding one that arrives past a gap until the gap
fills, and acks cumulatively what it applied.
"""

import random

import pytest

from repro.core.timestamps import ts
from repro.distributed.faults import BurstLoss, FaultSchedule
from repro.distributed.link import Link
from repro.distributed.simulator import ReplicationSimulation, ReplicationStrategy
from repro.errors import SimulationError
from repro.server.client import _WireSessionState, _WireSubscription
from repro.server.protocol import FrameDecoder
from repro.server.session import (
    EXPIRED, RESEND, RetryPolicy, SenderCore, SessionStats,
)


def no_jitter(**overrides):
    """A fully deterministic policy for timing-sensitive tests."""
    defaults = dict(base_delay=4, multiplier=2.0, max_delay=64, jitter=0,
                    max_attempts=3)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(SimulationError):
            RetryPolicy(base_delay=0)
        with pytest.raises(SimulationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(SimulationError):
            RetryPolicy(base_delay=10, max_delay=5)
        with pytest.raises(SimulationError):
            RetryPolicy(jitter=-1)
        with pytest.raises(SimulationError):
            RetryPolicy(max_attempts=0)

    def test_exponential_backoff_with_cap(self):
        policy = no_jitter(base_delay=4, max_delay=10)
        rng = random.Random(0)
        assert policy.delay(0, rng) == 4
        assert policy.delay(1, rng) == 8
        assert policy.delay(2, rng) == 10  # capped
        assert policy.delay(9, rng) == 10

    def test_jitter_is_bounded_and_seed_deterministic(self):
        policy = RetryPolicy(base_delay=4, jitter=3)
        delays_a = [policy.delay(0, random.Random(7)) for _ in range(5)]
        delays_b = [policy.delay(0, random.Random(7)) for _ in range(5)]
        assert delays_a == delays_b
        assert all(4 <= d <= 7 for d in delays_a)

    def test_max_total_delay_bounds_every_schedule(self):
        policy = RetryPolicy(base_delay=4, jitter=3, max_attempts=5)
        rng = random.Random(1)
        total = sum(policy.delay(a, rng) for a in range(policy.max_attempts + 1))
        assert total <= policy.max_total_delay()


class SenderHarness:
    """A sender core driven tick by tick, resends going to a transcript."""

    def __init__(self, policy=None, seed=0):
        self.sender = SenderCore(policy or no_jitter(), SessionStats(),
                                 random.Random(seed))
        self.wire = []

    def send(self, at, expires_at=None, cells=1):
        seq = self.sender.take_seq()
        self.sender.track(seq, {"seq": seq}, expires_at, cells, at)
        self.wire.append((at, seq))
        return seq

    def run_until(self, horizon):
        """Sweep every tick: the core's verdict on each overdue envelope."""
        for tick in range(horizon + 1):
            for seq in self.sender.overdue(tick):
                if self.sender.retry(seq, ts(tick), tick) == RESEND:
                    self.wire.append((tick, seq))


class TestReliableSender:
    def test_envelopes_get_consecutive_sequence_numbers(self):
        h = SenderHarness()
        assert [h.send(0) for _ in range(3)] == [0, 1, 2]
        assert h.sender.stats.sent == 3
        assert h.sender.stats.unacked == 3

    def test_ack_stops_retransmission(self):
        h = SenderHarness()
        h.send(0)
        h.sender.ack(0)
        assert not h.sender.pending
        h.run_until(200)
        assert len(h.wire) == 1  # never retransmitted
        assert h.sender.stats.acked == 1
        assert h.sender.stats.unacked == 0

    def test_unacked_envelope_is_retransmitted_with_backoff(self):
        h = SenderHarness()
        h.send(0)
        h.run_until(200)
        # Original + max_attempts retransmissions at 4, 12, 28, then abandon.
        assert [t for t, _ in h.wire] == [0, 4, 12, 28]
        assert h.sender.stats.retransmissions == 3
        assert h.sender.stats.abandoned == 1
        assert not h.sender.pending and h.sender.stats.unacked == 0

    def test_expired_payload_cancels_retransmission(self):
        h = SenderHarness()
        h.send(0, expires_at=ts(3), cells=5)
        assert h.sender.retry(0, ts(4), 4) == EXPIRED
        # The first timer fires at 4 > 3: the tuple is dead, cancel.
        assert len(h.wire) == 1
        assert h.sender.stats.retransmissions == 0
        assert h.sender.stats.retransmissions_avoided == 1
        assert h.sender.stats.cells_avoided == 5
        assert not h.sender.pending and h.sender.pruned

    def test_unexpired_payload_retries_until_expiry(self):
        h = SenderHarness()
        h.send(0, expires_at=ts(20))
        h.run_until(200)
        # Retries at 4 and 12 happen; the timer at 28 finds the tuple dead.
        assert [t for t, _ in h.wire] == [0, 4, 12]
        assert h.sender.stats.retransmissions == 2
        assert h.sender.stats.retransmissions_avoided == 1

    def test_a_gap_left_by_an_expired_envelope_is_named(self):
        """Once an envelope was retired as expired, ``after`` names the
        seq a receiver must hold before the next one."""
        h = SenderHarness()
        h.send(0)
        h.send(0, expires_at=ts(3))
        assert h.sender.after(2) is None  # nothing retired: seq - 1
        assert h.sender.retry(1, ts(4), 4) == EXPIRED
        assert h.sender.after(2) == 0
        h.sender.ack(0)
        assert h.sender.after(2) == -1  # nothing held below it
        h.send(0)
        assert h.sender.after(3) is None  # seq 2 is held: in order again

    def test_deterministic_given_seed(self):
        def trace(seed):
            h = SenderHarness(RetryPolicy(jitter=3, max_attempts=4), seed=seed)
            for i in range(5):
                h.send(i)
            h.run_until(500)
            return h.wire

        assert trace(3) == trace(3)
        assert trace(3) != trace(4)


class ReceiverHarness:
    """One wire subscription behind the client's frame loop, with the
    frames the loop sends back decoded."""

    def __init__(self):
        self.out = FrameDecoder()
        self.sent = []
        self.session = _WireSessionState()
        self.session._attach(lambda data: self.sent.extend(self.out.feed(data)))
        self.sub = _WireSubscription(self.session, 1, "v", ("k",))
        self.session.subscriptions[1] = self.sub

    def push(self, seq, row, epoch=0, **fields):
        self.session._handle_push({"kind": "patch", "sub": 1, "epoch": epoch,
                                   "seq": seq, "upserts": [((row,), ts(50))],
                                   **fields})

    @property
    def acks(self):
        return [frame["cum"] for frame in self.sent if frame["kind"] == "ack"]


class TestReliableReceiver:
    def test_delivers_in_order_exactly_once(self):
        h = ReceiverHarness()
        for seq in (1, 2, 3):
            h.push(seq, seq)
        assert sorted(h.sub.state) == [(1,), (2,), (3,)]
        assert h.sub.applied == 3
        assert h.acks == [1, 2, 3]

    def test_duplicate_is_dropped_but_acked(self):
        h = ReceiverHarness()
        h.push(1, 1)
        h.push(1, 1)
        assert h.sub.patches_applied == 1
        assert h.acks == [1, 1]  # a lost ack must not stall the sender
        assert h.sub.duplicates_dropped == 1

    def test_a_patch_past_a_gap_is_not_applied(self):
        """Seq 3 after seq 1 waits for seq 2, and the ack keeps reading 1
        -- an ack past the gap would retire seq 2 at the server though the
        client never got it.  Once seq 2 comes, both apply."""
        h = ReceiverHarness()
        h.push(1, 1)
        h.push(3, 3)
        assert h.acks == [1, 1]
        assert (3,) not in h.sub.state and h.sub.applied == 1
        h.push(2, 2)
        assert h.acks[-1] == 3
        assert sorted(h.sub.state) == [(1,), (2,), (3,)]
        h.push(3, 3)  # the resend the server had already sent
        assert h.sub.duplicates_dropped == 1 and h.acks[-1] == 3

    def test_after_steps_over_envelopes_retired_as_expired(self):
        h = ReceiverHarness()
        h.push(1, 1)
        h.push(4, 4, after=1)  # seqs 2 and 3 died at the server
        assert h.acks == [1, 4]
        h.push(6, 6, after=5)  # seq 5 is still owed
        assert h.acks[-1] == 4 and (6,) not in h.sub.state

    def test_an_invalidate_is_acked_and_a_resent_one_ignored(self):
        h = ReceiverHarness()
        h.push(1, 1)
        invalidate = {"kind": "invalidate", "sub": 1, "epoch": 1,
                      "reason": "backpressure"}
        h.session._handle_push(dict(invalidate))
        assert h.sub.degraded and h.sent[-1] == {
            "kind": "ack", "sub": 1, "epoch": 1, "cum": 0}
        h.session._handle_push({"kind": "snapshot", "sub": 1, "epoch": 1,
                                "seq": 0, "rows": [((5,), ts(50))]})
        assert not h.sub.degraded
        # The server resent it before the ack came: the refetch answered it.
        h.session._handle_push(dict(invalidate))
        assert not h.sub.degraded and list(h.sub.state) == [(5,)]
        assert h.sent[-1]["kind"] == "ack"

    def test_reset_forgets_session_state(self):
        h = ReceiverHarness()
        h.push(1, 1)
        h.session._handle_push({"kind": "snapshot", "sub": 1, "epoch": 1,
                                "seq": 0, "rows": []})
        assert h.sub.applied == 0 and h.sub.state == {}
        # The new epoch's seq 1 is applied afresh (crash recovery).
        h.push(1, 7, epoch=1)
        assert list(h.sub.state) == [(7,)]
        # A straggler of the old epoch changes nothing.
        h.push(2, 2)
        h.session._handle_push({"kind": "snapshot", "sub": 1, "epoch": 0,
                                "seq": 0, "rows": []})
        assert list(h.sub.state) == [(7,)] and h.sub.epoch == 1


class TestEndToEnd:
    def test_every_payload_survives_a_lossy_link(self):
        workload = [(i, (i,), 10_000) for i in range(20)]
        sim = ReplicationSimulation(
            ["k"], workload, [300], ReplicationStrategy.EXPIRATION,
            link=Link(latency=1, loss_probability=0.3, seed=13),
        )
        report = sim.run()
        assert sim.client.visible(300, query=False) == {(i,) for i in range(20)}
        assert report.consistency == 1.0
        assert report.retransmissions > 0
        session = sim.client.ends[-1].session
        assert session.stats.unacked == 0 and session.outstanding() == 0

    def test_a_lost_invalidate_is_resent_until_acked(self):
        """Ten rows at tick 0 overflow an outbox of four: the stream
        degrades while every frame is lost.  The server holds the
        invalidate until the client acks it, so the client learns of the
        degrade, refetches on its next read and converges."""
        workload = [(0, (i,), 10_000) for i in range(10)]
        workload += [(t, (t,), 10_000) for t in (20, 30)]
        sim = ReplicationSimulation(
            ["k"], workload, range(10, 300, 10),
            ReplicationStrategy.EXPIRATION,
            link=Link(latency=1, loss_probability=0.3, seed=5),
            faults=FaultSchedule([BurstLoss(at=0, until=4, probability=1.0)]),
            horizon=300,
        )
        sim.server.max_outbox = 4
        report = sim.run()
        assert sim.server.families["degrades"].value == 1
        assert report.recompute_requests > 0
        assert report.converged
        assert sim.client.visible(300, query=False) == sim._truth(300)
