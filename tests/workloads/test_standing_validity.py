"""The validity-object contract of the standing queries.

A standing query is a held answer: a read served from the held window
keeps the very same ``validity`` object, and only a refresh installs a new
one.  Whoever times reads from outside (a tracer counting refreshes) may
tell the two apart by identity alone, so the contract is pinned for every
query the streaming workload reads: an exact count, a tolerant count, a
distinct count, an extent and a sample.  A query the store refuses holds
nothing, not even a listener.
"""

import random

import pytest

from repro.core.approximate import AbsoluteTolerance
from repro.errors import EngineError
from repro.workloads import EVENT_SCHEMA, StreamStore

QUERIES = {
    "exact": lambda store: store.count("s", name="exact"),
    "tolerant": lambda store: store.count(
        "s", tolerance=AbsoluteTolerance(3), name="tolerant"
    ),
    "distinct": lambda store: store.distinct("s", "key"),
    "extent": lambda store: store.extent("s", "value"),
    "sample": lambda store: store.sample("s", 8, rng=random.Random(3)),
}


def standing(make):
    store = StreamStore()
    store.create_stream("s", EVENT_SCHEMA, ttl=20)
    query = make(store)
    for key in range(4):
        store.ingest("s", (key, 10 * key))
    return store, query


def refreshes(store, query):
    family = store.database.metrics.get("repro_streaming_query_refreshes_total")
    return {
        labels[1]: counter.value
        for labels, counter in family.series()
        if labels[0] == query.name and counter.value
    }


@pytest.mark.parametrize("make", list(QUERIES.values()), ids=list(QUERIES))
class TestValidityIdentity:
    def test_the_first_read_installs_one(self, make):
        store, query = standing(make)
        assert query.validity is None
        query.read()
        assert query.validity is not None
        assert refreshes(store, query) == {"initial": 1}

    def test_a_read_served_from_the_window_keeps_it(self, make):
        store, query = standing(make)
        query.read()
        held = query.validity
        store.ingest("s", (9, 15))  # inside every answer's bounds
        query.read()
        store.database.tick(1)  # nothing dies
        query.read()
        assert query.validity is held
        assert refreshes(store, query) == {"initial": 1}

    def test_an_override_installs_a_new_one(self, make):
        store, query = standing(make)
        query.read()
        held = query.validity
        store.stream("s").override((1, 10), expires_at=store.database.now)
        query.read()
        assert query.validity is not held
        assert refreshes(store, query) == {"initial": 1, "revoked": 1}


def test_extent_drift_installs_a_new_one():
    store = StreamStore()
    store.create_stream("s", EVENT_SCHEMA, ttl=50)
    extent = store.extent("s", "value")
    assert extent.read() is None
    # Arrivals fold into the held extent; the maximum dies early.
    store.ingest("s", (1, 0))
    store.ingest("s", (2, 100), ttl=5)
    assert extent.read() == 100
    held = extent.validity
    store.database.tick(5)
    assert extent.read() == 0
    assert extent.validity is not held
    assert refreshes(store, extent) == {"initial": 1, "drift": 1}


class _NeverReplace(random.Random):
    """Algorithm R that never evicts a member for a later arrival."""

    def randrange(self, *args):
        return args[-1] - 1


def test_sample_depletion_installs_a_new_one():
    store = StreamStore()
    store.create_stream("s", EVENT_SCHEMA, ttl=50)
    sample = store.sample("s", 2, rng=_NeverReplace(0))
    store.ingest("s", (1, 1), ttl=2)
    store.ingest("s", (2, 2), ttl=2)
    assert sorted(sample.read()) == [(1, 1), (2, 2)]
    held = sample.validity
    store.ingest("s", (3, 3))  # live, but not drawn into the reservoir
    store.database.tick(2)  # both members die: depleted
    assert sample.read() == [(3, 3)]
    assert sample.validity is not held
    assert refreshes(store, sample) == {"initial": 1, "depleted": 1}


def test_a_rejected_duplicate_attaches_no_listener():
    store = StreamStore()
    table = store.create_stream("s", EVENT_SCHEMA, ttl=20)
    store.count("s")
    listening = len(table.insert_listeners), len(table.delete_listeners)
    with pytest.raises(EngineError, match="already exists"):
        store.count("s")
    assert (len(table.insert_listeners), len(table.delete_listeners)) == listening
