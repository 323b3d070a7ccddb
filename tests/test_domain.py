"""The attribute domain: defined once, checked once at the table's door.

``repro.core.tuples`` defines ``D`` -- values of exactly ``int``, ``str``,
``bool``, ``NoneType`` or ``Fraction``, and every finite ``float`` -- and
``Table.insert`` / ``Table.override`` check it wherever a new value
enters.  Two properties hold the definition to what the encoders do:

* a value the door accepts comes back equal *and of the same type*
  through a log recovery, a checkpoint recovery, and a ``SELECT`` over
  each transport (in process, ``repro://``, ``AsyncSession``);
* a value it refuses raises :class:`RelationError` from every verb that
  brings a new row, and from ``AuthzStore.load_grants``, and leaves no
  trace in the table, its expiration index, the log, a view or
  ``catalog_version``.

A row already stored outside ``D`` -- an older directory may hold one --
still rolls back, live and at recovery, and can still be touched.
"""

import asyncio
import math
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.core.timestamps import ts
from repro.engine.database import Database
from repro.engine.recovery import recover_database
from repro.engine.wal import WriteAheadLog
from repro.errors import RelationError
from repro.server.client import AsyncSession, connect
from repro.server.server import ReproServer
from repro.workloads.authz import AuthzStore


class Tick(int):
    """An ``int`` subclass: it would come back from any encoder a plain
    ``int``, so it is outside the domain."""


ACCEPTED = st.one_of(
    st.integers(),
    st.text(st.characters(exclude_categories=())),  # lone surrogates too
    st.booleans(),
    st.none(),
    st.fractions(),
    st.floats(allow_nan=False, allow_infinity=False),
)

REFUSED = st.one_of(
    st.just(math.nan),
    st.sampled_from([math.inf, -math.inf]),
    st.tuples(st.integers()),
    st.frozensets(st.integers(), max_size=3),
    st.complex_numbers(),
    st.binary(),
    st.integers().map(Tick),
)

SHAPES = {"row": {}, "columnar": {"layout": "columnar"}, "partitioned": {"partitions": 3}}


def _typed(rows):
    """``{i: (type name, repr)}``: ``1 == 1.0 == True`` and ``0.0 == -0.0``,
    so equality alone would let an encoding swap them."""
    return {i: (type(v).__name__, repr(v)) for i, v in rows}


def _fill(db, values):
    table = db.create_table("T", ["i", "v"])
    for row in enumerate(values):
        table.insert(row, expires_at=50)


def _selected(values):
    """``SELECT i, v FROM T`` over the three transports, each server's
    table filled in process."""
    query = "SELECT i, v FROM T"

    async def scenario():
        tcp, loopback = ReproServer(), ReproServer()
        for server in (tcp, loopback):
            _fill(server.db, values)
        host, port = await tcp.start()

        def over_tcp():
            with connect(f"repro://{host}:{port}", timeout=5) as session:
                return session.query(query).rows

        try:
            remote = await asyncio.to_thread(over_tcp)
            session = await AsyncSession.over_loopback(loopback)
            looped = (await session.query(query)).rows
            await session.close()
        finally:
            await tcp.stop()
            await loopback.stop()
        return remote, looped

    db = Database()
    _fill(db, values)
    with connect(db) as session:
        local = session.query(query).rows
    return (local, *asyncio.run(scenario()))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(ACCEPTED, min_size=1, max_size=8))
@example([None, True, Fraction(1, 3), 2.5, -0.0, 2 ** 64, "", "né ☃"])
def test_an_accepted_value_reads_back_as_itself(values):
    expected = _typed(enumerate(values))
    with tempfile.TemporaryDirectory() as directory:
        db = Database(wal_dir=directory)
        _fill(db, values)
        db.close()
        recovered = recover_database(directory)  # every row from the log
        assert _typed(recovered.table("T").relation.rows()) == expected
        recovered.checkpoint()
        recovered.close()
        recovered = recover_database(directory)  # every row from the snapshot
        assert _typed(recovered.table("T").relation.rows()) == expected
        recovered.close()
    for transport, rows in zip(("local", "tcp", "loopback"), _selected(values)):
        assert _typed(rows) == expected, transport


def _traces(db, table):
    return (
        sorted(table.relation.items()),
        table.next_expiration(),
        db.wal.records(),
        sorted(db.view("w").read().rows()),
        db.catalog_version,
    )


#: Every verb that brings a new row.  ``touch`` and the two ``undo_*``
#: verbs are not here: they re-stamp or put back a row storage held, and
#: no row holding a refused value gets past the door, so ``touch`` finds
#: none and returns ``None``.
PUTS = {
    "insert": lambda table, row: table.insert(row, expires_at=9),
    "renew": lambda table, row: table.renew(row, ttl=5),
    "override": lambda table, row: table.override(row, expires_at=9),
}


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(REFUSED, st.sampled_from(sorted(SHAPES)))
def test_a_refused_value_leaves_no_trace(value, shape):
    with tempfile.TemporaryDirectory() as directory:
        db = Database(wal_dir=directory)
        table = db.create_table(
            "T", ["k", "v"], expiry="since_last_modification", default_ttl=30,
            **SHAPES[shape],
        )
        table.insert((0, "kept"), expires_at=20)
        db.materialise("w", db.table_expr("T"))
        heard = []
        table.insert_listeners.append(lambda _table, stored: heard.append(stored))
        table.delete_listeners.append(lambda _table, row: heard.append(row))
        before = _traces(db, table)
        for name, put in PUTS.items():
            for row in ((value, 1), (1, value)):  # the partition key and not
                with pytest.raises(RelationError, match="outside the attribute domain"):
                    put(table, row)
                assert _traces(db, table) == before, name
        assert table.touch((value, 1)) is None
        assert table.delete((value, 1)) is False
        assert heard == []
        assert _traces(db, table) == before
        db.close()


@settings(max_examples=20, deadline=None)
@given(REFUSED)
def test_load_grants_refuses_before_it_loads(value):
    store = AuthzStore(partitions=2)
    db = store.database
    version = db.catalog_version
    rows = [(("alice", "read", "doc1"), 10), (("bob", "read", value), 10)]
    with pytest.raises(RelationError, match="outside the attribute domain"):
        store.load_grants(iter(rows))
    assert len(store.grants.relation) == 0
    assert store.grants.next_expiration() is None
    assert db.catalog_version == version


#: A row outside ``D`` that a directory written before the door may hold:
#: an SQL decimal literal too large for a float was stored as ``inf``.
LEGACY = (1, math.inf)


def _legacy(directory):
    db = Database(wal_dir=directory)
    table = db.create_table(
        "T", ["k", "v"], expiry="since_last_modification", default_ttl=30
    )
    table.bulk_load([(LEGACY, ts(40))])
    return db, table


def test_a_stored_row_outside_the_domain_rolls_back_live(tmp_path):
    db, table = _legacy(tmp_path)
    txn = db.transaction()
    txn.delete("T", LEGACY)
    txn.insert("T", (2, math.nan), expires_at=50)
    with pytest.raises(RelationError, match="outside the attribute domain"):
        txn.commit()
    assert list(table.relation.items()) == [(LEGACY, ts(40))]
    assert table.next_expiration() == ts(40)
    assert db.wal.records()[-1]["kind"] == "abort"
    db.tick(15)
    assert table.touch(LEGACY).expires_at == ts(45)  # re-stamped, not refused
    db.close()


def test_a_stored_row_outside_the_domain_rolls_back_at_recovery(tmp_path):
    db, _ = _legacy(tmp_path)
    db.checkpoint()  # the snapshot holds the row
    db.close()
    # The crash shape: a transaction deleted the row and died mid-apply.
    wal = WriteAheadLog(tmp_path)
    txn = wal.next_txn_id()
    wal.append("begin", txn=txn)
    wal.append("remove", table="T", row=list(LEGACY), prev=40, txn=txn)
    wal.close()

    recovered = recover_database(tmp_path)
    assert recovered.last_recovery.transactions_rolled_back == 1
    table = recovered.table("T")
    assert list(table.relation.items()) == [(LEGACY, ts(40))]
    assert table.next_expiration() == ts(40)
    recovered.close()
