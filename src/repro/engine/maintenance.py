"""Insert-folding maintenance of materialised views under base *updates*.

The paper assumes "that there are no updates to the source data" and names
lifting that restriction as future work (Section 5).  :class:`IncrementalView`
is that extension: a :class:`~repro.engine.views.MaterialisedView` that a
base *insert* does not mark stale.  It inherits everything else and is built
by :meth:`Database.materialise <repro.engine.database.Database.materialise>`
only -- for every monotonic base-linear expression, whatever the policy, and
under ``MaintenancePolicy.DELTA`` for the two non-monotonic shapes below.

* **Lazy fold.**  The insert listener is O(1): it records the stored tuple
  in a per-base batch.  The next read's catch-up hook folds each batch with
  *one* execution of a compiled plan over ``catalog[B := batch]`` -- the
  operators all distribute over union on insertion deltas, and the
  expiration rules (min for ×/⋈/∩, max merging for π/∪) hold because the
  delta runs through the ordinary plan and is max-merged into the state.
  The plan is executed directly, never through the plan cache: a delta is
  not a result.
* **Overflow → stale.**  A batch that outgrows the stored result is dropped
  and the view marked stale: an unread view holds O(result) memory, and
  bulk seeding costs one refresh rather than one giant fold.
* **Trimming.**  State rows with ``texp ≤ τ`` are dropped when a read at
  ``τ`` serves the state, and when folding has doubled it, so reads (and
  probes) move forward in time only.
* **Difference** ``L −exp R`` over monotonic, base-disjoint sides: a delta
  row is re-placed from the two side states -- visible, or hidden behind its
  match with a *patch* due when the match expires (Theorem 3's queue).
* **Aggregation** over a monotonic, base-linear child: the child state is
  folded and only the *affected partitions* -- those a delta row joined or
  an expired member left -- are re-aggregated.

Explicit deletes and overrides (as opposed to expirations, which need no
action at all) still mark the view stale: the next read refreshes.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.algebra.compiler import compile_expression
from repro.core.algebra.evaluator import EvalResult
from repro.core.algebra.expressions import (
    Aggregate,
    BaseRef,
    Difference,
    Expression,
)
from repro.core.intervals import IntervalSet
from repro.core.patching import Patch
from repro.core.relation import Relation
from repro.core.timestamps import INFINITY, Timestamp
from repro.core.tuples import ExpiringTuple, Row
from repro.engine.views import MaterialisedView

__all__ = ["IncrementalView", "supports_incremental"]

#: A pending batch may always grow this large before it counts as
#: outgrowing the stored result, so small and empty views fold too.
_MIN_BATCH = 16


def _foldable(expression: Expression) -> bool:
    """Monotonic, and each base relation referenced at most once in the tree."""
    names = [n.name for n in expression.walk() if isinstance(n, BaseRef)]
    return expression.is_monotonic() and len(names) == len(set(names))


def supports_incremental(expression: Expression) -> bool:
    """Whether :class:`IncrementalView` can maintain this expression."""
    if isinstance(expression, Difference):
        left, right = expression.left, expression.right
        return (
            _foldable(left)
            and _foldable(right)
            and not (left.base_names() & right.base_names())
        )
    if isinstance(expression, Aggregate):
        return _foldable(expression.child)
    return _foldable(expression)


class IncrementalView(MaterialisedView):
    """A materialised view that folds base inserts in instead of going stale.

    :attr:`delta_applications` (base rows folded) against the inherited
    ``recomputations`` says how much of the maintenance was incremental.
    """

    _forward_only = True
    #: Base rows folded in as deltas.
    delta_applications = 0

    def __init__(self, name, expression, database, *policy) -> None:
        # What a base insert runs through: its side of a difference, the
        # child of an aggregate, else the expression itself.
        if isinstance(expression, Difference):
            folded = (expression.left, expression.right)
        elif isinstance(expression, Aggregate):
            folded = (expression.child,)
        else:
            folded = (expression,)
        self._plans = [
            compile_expression(part, database.schema_resolver) for part in folded
        ]
        if isinstance(expression, Aggregate):
            schema = self._plans[0].schema
            indexes = [schema.index(ref) for ref in expression.group_by]
            self._key = lambda row: tuple(row[i] for i in indexes)
            # The aggregate again, over a stand-in for the members of the
            # partitions to redo.
            self._redo = compile_expression(
                Aggregate(
                    BaseRef("members"), expression.group_by,
                    expression.spec, expression.strategy,
                ),
                lambda name: schema,
            )
        super().__init__(name, expression, database, *policy)

    def _build(self, stamp: Timestamp) -> EvalResult:
        self._pending: Dict[str, List[ExpiringTuple]] = {}
        self._unfolded = 0
        states = []
        for plan in self._plans:
            # A row-layout copy: the relation ``evaluate`` hands out also
            # sits in the plan cache, and the states here are mutated.
            relation = self.database.evaluate(plan.expression, at=stamp).relation
            states.append(
                Relation._from_trusted(relation.schema, dict(relation.items()))
            )
        if isinstance(self.expression, Difference):
            result = self._build_difference(*states, stamp)
        else:
            state = states[0]
            if isinstance(self.expression, Aggregate):
                state = self._redo.execute({"members": state}, stamp).relation
            result = EvalResult(
                state, INFINITY, IntervalSet.from_onwards(stamp), stamp
            )
        #: base name -> (the plan its batch runs through, the state fed).
        self._routes = {
            base: (plan, state)
            for plan, state in zip(self._plans, states)
            for base in plan.expression.base_names()
        }
        #: States kept beside the result: (L, R), or an aggregate's child.
        self._beside = [s for s in states if s is not result.relation]
        #: How large a pending batch may grow (and, doubled, the state
        #: before it is trimmed): the result's size when last trimmed.
        self._room = max(len(result.relation), _MIN_BATCH)
        return result

    # -- recording and folding deltas -----------------------------------------

    def _on_insert(self, table, stored: ExpiringTuple) -> None:
        if self.cause is not None:
            return  # a refresh is pending anyway
        self._pending.setdefault(table.name, []).append(stored)
        self._unfolded += 1
        if self._unfolded > self._room:
            # The batch outgrew the stored result: a refresh costs no more
            # than folding it and nothing has to be held until then.
            self._pending.clear()
            self.invalidate("stale")

    def _catch_up(self, stamp: Timestamp) -> None:
        if not (
            self._unfolded or (self._beside and stamp != self.held_at)
        ) or self.cause is not None:
            return  # nothing to fold (a read trims a plain state), or stale
        difference = len(self._beside) == 2
        aggregate = len(self._beside) == 1
        rows: List[Row] = []  # the delta rows a side state took in
        if self._unfolded:
            pending, self._pending = self._pending, {}
            self.delta_applications += self._unfolded
            self._unfolded = 0
            for base, batch in pending.items():
                delta = self._fold(base, batch, stamp)
                if self._beside:
                    rows += delta.rows()
        state = self._result.relation
        if aggregate:
            # The partitions to redo: those a delta row joined, and those
            # whose membership shrank (detected via expired child rows).
            child, key = self._beside[0], self._key
            redo = set(map(key, rows))
            redo.update(key(row) for row, texp in child.items() if not stamp < texp)
        if self._beside or len(state) > 2 * self._room:
            # Side states are re-read below and must be current; a
            # monotonic state (a join's can dwarf its inputs, and a fold
            # costs only those) waits until it has doubled, or for a read.
            self._trim(stamp)
        if difference:
            # A due patch is re-derived like a delta row, not trusted: a
            # later right-side insert may have renewed the match it waited
            # out (and queued its own patch then).
            due = self._queue_at(stamp).due_patches(stamp)
            self.patches_applied += len(due)
            self.database.statistics.view_patches_applied += len(due)
            for row in rows + [patch.row for patch in due]:
                self._place(row)
        elif aggregate and redo:
            # Result rows embed the full child row, so the grouping
            # attributes sit at the same positions.
            for row in [row for row in state.rows() if key(row) in redo]:
                state.delete(row)
            members = {r: texp for r, texp in child.items() if key(r) in redo}
            members = Relation._from_trusted(child.schema, members)
            state.bulk_load(
                self._redo.execute({"members": members}, stamp).relation.items()
            )

    def _trim(self, stamp: Timestamp) -> None:
        state = self._result.relation
        for relation in (state, *self._beside):
            relation.purge_expired(stamp)
        self._room = max(len(state), _MIN_BATCH)

    def _visible(self, stamp: Timestamp) -> Relation:
        if not self._beside:  # else catching up has trimmed already
            self._trim(stamp)  # a read is O(result) anyway
        return self._result.relation.copy()

    def _fold(
        self, base: str, batch: List[ExpiringTuple], stamp: Timestamp
    ) -> Relation:
        """Merge ``e(catalog[base := batch])`` into the state it feeds."""
        plan, target = self._routes[base]
        database = self.database
        delta_base = Relation(database.table(base).schema)
        delta_base.bulk_load((stored.row, stored.expires_at) for stored in batch)

        def catalog(name: str) -> Relation:
            return delta_base if name == base else database.table(name).relation

        delta = plan.execute(catalog, stamp).relation
        target.bulk_load(delta.items())
        return delta

    def _place(self, row: Row) -> None:
        """Re-derive one row of ``L − R`` from the two (trimmed) side states."""
        left = self._beside[0].expiration_or_none(row)
        if left is None:
            return
        right = self._beside[1].expiration_or_none(row)
        state = self._result.relation
        if right is None:
            state.insert(row, expires_at=left)
        else:
            # Matched in R: hidden now; re-appears if it outlives the match.
            state.delete(row)
            if right < left:
                self._patcher.add(Patch(row, right, left))
