"""Tests for expiration-enabled tables: TTL, renewal, eager/lazy removal."""

import pytest

from repro.core.schema import Schema
from repro.core.timestamps import INFINITY, ts
from repro.engine.clock import LogicalClock
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.statistics import EngineStatistics
from repro.engine.table import Table
from repro.errors import EngineError, RelationError


def make_table(policy=RemovalPolicy.EAGER, batch=64):
    clock = LogicalClock()
    table = Table(
        "T", Schema(["k", "v"]), clock, removal_policy=policy, lazy_batch_size=batch
    )
    clock.on_advance(table.on_clock_advance)
    return table, clock


class TestInsertion:
    def test_expires_at(self):
        table, _ = make_table()
        stored = table.insert((1, 2), expires_at=10)
        assert stored.expires_at == ts(10)

    def test_ttl(self):
        table, clock = make_table()
        clock.advance_to(5)
        stored = table.insert((1, 2), ttl=10)
        assert stored.expires_at == ts(15)

    def test_no_expiration(self):
        table, _ = make_table()
        assert table.insert((1, 2)).expires_at == INFINITY

    def test_both_rejected(self):
        table, _ = make_table()
        with pytest.raises(EngineError):
            table.insert((1, 2), expires_at=5, ttl=3)

    def test_nonpositive_ttl_rejected(self):
        table, _ = make_table()
        with pytest.raises(EngineError):
            table.insert((1, 2), ttl=0)

    def test_already_expired_rejected(self):
        table, clock = make_table()
        clock.advance_to(10)
        with pytest.raises(RelationError):
            table.insert((1, 2), expires_at=10)

    def test_renewal_extends(self):
        table, clock = make_table()
        table.insert((1, 2), expires_at=5)
        table.renew((1, 2), ttl=20)
        clock.advance_to(5)
        assert len(table) == 1

    def test_counts_inserts(self):
        table, _ = make_table()
        table.insert((1, 2))
        table.insert((3, 4))
        assert table.statistics.inserts == 2


class TestEagerRemoval:
    def test_physical_removal_on_advance(self):
        table, clock = make_table(RemovalPolicy.EAGER)
        table.insert((1, 2), expires_at=5)
        table.insert((3, 4), expires_at=10)
        clock.advance_to(5)
        assert table.physical_size == 1
        assert len(table) == 1
        assert table.statistics.expirations_processed == 1

    def test_triggers_fire_at_expiry(self):
        table, clock = make_table(RemovalPolicy.EAGER)
        fired = []
        table.triggers.register("t", lambda event: fired.append(event))
        table.insert((1, 2), expires_at=5)
        clock.advance_to(5)
        assert len(fired) == 1
        assert fired[0].tuple.row == (1, 2)
        assert fired[0].fired_at == ts(5)  # zero latency under eager


class TestLazyRemoval:
    def test_expired_invisible_but_physical(self):
        table, clock = make_table(RemovalPolicy.LAZY)
        table.insert((1, 2), expires_at=5)
        clock.advance_to(6)
        assert len(table) == 0  # invisible to reads
        assert table.physical_size == 1  # not reclaimed yet

    def test_vacuum_reclaims_and_fires(self):
        table, clock = make_table(RemovalPolicy.LAZY)
        fired = []
        table.triggers.register("t", lambda event: fired.append(event.fired_at))
        table.insert((1, 2), expires_at=5)
        clock.advance_to(8)
        assert fired == []
        table.vacuum()
        assert table.physical_size == 0
        assert fired == [ts(8)]  # latency: fired 3 ticks late

    def test_batch_threshold_triggers_vacuum(self):
        table, clock = make_table(RemovalPolicy.LAZY, batch=3)
        for i in range(3):
            table.insert((i, i), expires_at=2)
        clock.advance_to(2)
        # Three pending expirations reach the batch size -> auto-vacuum.
        assert table.physical_size == 0


class TestReadSemantics:
    def test_read_hides_expired(self):
        table, clock = make_table(RemovalPolicy.LAZY)
        table.insert((1, 2), expires_at=5)
        table.insert((3, 4), expires_at=10)
        clock.advance_to(5)
        assert set(table.read().rows()) == {(3, 4)}

    def test_read_at_explicit_time(self):
        table, _ = make_table()
        table.insert((1, 2), expires_at=5)
        assert set(table.read(at=4).rows()) == {(1, 2)}
        assert set(table.read(at=5).rows()) == set()

    def test_next_expiration(self):
        table, _ = make_table()
        table.insert((1, 2), expires_at=5)
        table.insert((3, 4), expires_at=3)
        assert table.next_expiration() == ts(3)


class TestDeletes:
    def test_explicit_delete(self):
        table, _ = make_table()
        table.insert((1, 2), expires_at=5)
        assert table.delete((1, 2))
        assert not table.delete((1, 2))
        assert table.statistics.explicit_deletes == 1

    def test_deleted_row_fires_no_trigger(self):
        table, clock = make_table()
        fired = []
        table.triggers.register("t", lambda event: fired.append(event))
        table.insert((1, 2), expires_at=5)
        table.delete((1, 2))
        clock.advance_to(10)
        assert fired == []

    def test_renewed_row_fires_once_at_new_time(self):
        table, clock = make_table()
        fired = []
        table.triggers.register("t", lambda event: fired.append(int(event.tuple.expires_at)))
        table.insert((1, 2), expires_at=5)
        table.renew((1, 2), ttl=9)
        clock.advance_to(20)
        assert fired == [9]


class TestOverrideReschedules:
    @pytest.mark.parametrize("layout", ["row", "columnar"])
    @pytest.mark.parametrize("partitions", [None, 3])
    def test_override_then_next_expiration_on_tables(self, layout, partitions):
        """The full path: Table.override -> index reschedule -> minimum."""
        db = Database()
        table = db.create_table("T", ["k"], layout=layout, partitions=partitions)
        for i in range(6):
            table.insert((i,), expires_at=100 + i)
        assert table.next_expiration() == ts(100)
        table.override((4,), expires_at=9)  # revocation-style shortening
        assert table.next_expiration() == ts(9)
        db.advance_to(9)
        assert (4,) not in table.read()
        assert table.next_expiration() == ts(100)
        db.close()
