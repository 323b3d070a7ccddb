"""The one serve rule: a held answer, its window and its pending cause.

:class:`HeldAnswer` is what the plan cache's entries, the materialised
views and the standing queries share: served at ``τ`` iff no cause is
pending and ``τ`` lies in the recorded window, behind one read protocol
(forward-only guard, catch-up hook, then serve or renew with the cause
named).
"""

from types import SimpleNamespace

import pytest

from repro.core.algebra.evaluator import HeldAnswer
from repro.core.intervals import ALL_TIME, IntervalSet
from repro.core.timestamps import ts
from repro.errors import ViewError


class Probe(HeldAnswer):
    """A holder that logs every hook; its answer is the renewal count."""

    def __init__(self, window, forward=True):
        super().__init__(ts(0))
        self.name = "probe"
        self.clock = SimpleNamespace(now=ts(0))
        self._forward_only = forward
        self.build_window = window
        self.log = []

    def _catch_up(self, tau):
        self.log.append(("catch_up", tau.value))

    def _served(self):
        self.log.append(("served",))

    def _renew(self, tau, cause):
        self.log.append(("renew", cause))
        self.hold(tau, self.build_window)

    def _serve(self, tau):
        return sum(1 for entry in self.log if entry[0] == "renew")


class TestServeRule:
    def test_nothing_is_served_before_the_first_hold(self):
        held = Probe(ALL_TIME)
        assert held.cause == "initial"
        assert not held.serves(ts(0))

    def test_window_decides(self):
        held = Probe(None)
        held.hold(ts(2), IntervalSet.from_pairs([(2, 5), (9, None)]))
        assert [held.serves(ts(t)) for t in (1, 2, 4, 5, 8, 9, 100)] == [
            False, True, True, False, False, True, True,
        ]

    def test_a_pending_cause_blocks_every_time(self):
        held = Probe(None)
        held.hold(ts(0), ALL_TIME)
        held.invalidate("stale")
        assert held.cause == "stale" and not held.serves(ts(0))
        held.hold(ts(1), ALL_TIME)
        assert held.cause is None and held.serves(ts(1))

    def test_initial_is_never_renamed(self):
        held = Probe(ALL_TIME)
        held.invalidate("revoked")
        assert held.cause == "initial"

    def test_one_unbounded_interval_is_a_tick_compare(self, monkeypatch):
        def forbidden(self, time):
            raise AssertionError("IntervalSet.contains on an unbounded window")

        held = Probe(None)
        held.hold(ts(3), IntervalSet.from_onwards(3))
        monkeypatch.setattr(IntervalSet, "contains", forbidden)
        assert not held.serves(ts(2))
        assert held.serves(ts(3)) and held.serves(ts(10**9))


class TestReadProtocol:
    def test_first_read_renews_as_initial_then_serves(self):
        held = Probe(ALL_TIME)
        assert held.read() == 1
        assert held.read(at=0) == 1
        assert held.log == [
            ("catch_up", 0), ("renew", "initial"), ("catch_up", 0), ("served",),
        ]

    def test_nothing_to_catch_up_at_the_very_held_time(self):
        held = Probe(ALL_TIME)
        held.read()
        held.log.clear()
        held.read()  # the clock's own object: nothing pending
        assert held.log == [("served",)]
        held._unfolded = 1  # a listener recorded a change
        held.read()
        assert held.log[-2:] == [("catch_up", 0), ("served",)]

    def test_leaving_the_window_renews_as_validity(self):
        held = Probe(IntervalSet.single(0, 5))
        held.read()
        assert held.read(at=4) == 1
        assert held.read(at=5) == 2
        assert held.log[-2:] == [("catch_up", 5), ("renew", "validity")]

    def test_a_cause_named_while_catching_up_renews_this_read(self):
        held = Probe(ALL_TIME)
        held.read()
        held._catch_up = lambda tau: held.invalidate("drift")
        assert held.read(at=1) == 2
        assert held.log[-1] == ("renew", "drift")
        assert held.cause is None

    def test_forward_only_refuses_reads_before_the_last(self):
        held = Probe(ALL_TIME)
        held.read(at=7)
        with pytest.raises(ViewError, match="back in time"):
            held.read(at=6)
        assert held.admits(ts(7)) and not held.admits(ts(6))
        assert held.read(at=7) == 1

    def test_a_backward_holder_reads_the_past(self):
        held = Probe(ALL_TIME, forward=False)
        held.read(at=7)
        assert held.admits(ts(6))
        assert held.read(at=6) == 1
        assert held.held_at == ts(6)
