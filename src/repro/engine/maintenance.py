"""Insert-folding maintenance of materialised views under base *updates*.

The paper assumes "that there are no updates to the source data" and names
lifting that restriction as future work (Section 5).  :class:`IncrementalView`
is that extension: a :class:`~repro.engine.views.MaterialisedView` that a
base *insert* does not mark stale.  It inherits everything else and is built
by :meth:`Database.materialise <repro.engine.database.Database.materialise>`
only -- for every monotonic base-linear expression, whatever the policy, and
under ``MaintenancePolicy.DELTA`` for the non-monotonic shapes below.

* **Lazy fold.**  The insert listener is O(1): it records the stored tuple
  in a per-base batch.  The next read's catch-up hook folds each batch with
  *one* execution of a compiled plan over ``catalog[B := batch]`` -- the
  operators all distribute over union on insertion deltas, and the
  expiration rules (min for ×/⋈/∩, max merging for π/∪) hold because the
  delta runs through the ordinary plan and is max-merged into the state.
  The plan is executed directly, never through the plan cache: a delta is
  not a result.
* **Overflow.**  A batch that outgrows the stored result is dropped and the
  view marked stale (cause ``overflow``): an unread view holds O(result)
  memory, and bulk seeding costs one refresh rather than one giant fold.
* **Trimming.**  State rows with ``texp ≤ τ`` are dropped when a read at
  ``τ`` serves the state, and when folding has doubled it, so reads (and
  probes) move forward in time only.
* **Difference** ``L −exp R`` over monotonic, base-disjoint sides: a delta
  row is re-placed from the two side states -- visible, or hidden behind its
  match with a *patch* due when the match expires (Theorem 3's queue).
* **Aggregation** ``agg(child)``, or ``π(agg(child))`` when the projection
  keeps every grouping attribute (SQL's ``GROUP BY``), over a monotonic,
  base-linear child: the child's members are kept per partition, and a
  partition is redone only when a delta row joined it, a touched row left
  it, or its invalidation time -- the change point ``ν`` of Equations 8-9,
  kept on a :class:`~repro.core.schedule.Schedule` keyed by partition --
  has passed.  A redo runs the compiled aggregate's own
  per-partition function
  (:func:`~repro.core.algebra.compiler.aggregate_partition`) over the
  partition's live members: no plan execution, no scan of the child.

Explicit deletes and overrides (as opposed to expirations, which need no
action at all) mark the view stale, and the next read refreshes -- unless
the view aggregates a *row-preserving* child, a chain of σ over one base
(``WHERE … GROUP BY``).  There the touched row is recorded and re-derived
at the next catch-up from the base's stored ``texp``: absent or expired,
it leaves its partition; otherwise it re-enters through the child plan.
"""

from __future__ import annotations

import operator
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.aggregates import get_aggregate
from repro.core.algebra.compiler import (
    _key_getter,
    aggregate_partition,
    compile_expression,
)
from repro.core.algebra.evaluator import EvalResult
from repro.core.algebra.expressions import (
    Aggregate,
    BaseRef,
    Difference,
    Expression,
    Project,
    Select,
)
from repro.core.intervals import IntervalSet
from repro.core.patching import Patch
from repro.core.relation import Relation
from repro.core.schedule import Schedule
from repro.core.timestamps import INFINITY, Timestamp
from repro.core.tuples import ExpiringTuple, Row
from repro.engine.views import MaterialisedView
from repro.errors import EvaluationError

__all__ = ["IncrementalView", "supports_incremental"]

#: A pending batch may always grow this large before it counts as
#: outgrowing the stored result, so small and empty views fold too.
_MIN_BATCH = 16


def _foldable(expression: Expression) -> bool:
    """Monotonic, and each base relation referenced at most once in the tree."""
    names = [n.name for n in expression.walk() if isinstance(n, BaseRef)]
    return expression.is_monotonic() and len(names) == len(set(names))


def _aggregate_of(expression: Expression) -> Optional[Aggregate]:
    """The aggregate a grouped view maintains: the root, or the child of a
    projection keeping every grouping attribute -- so that each result row
    belongs to exactly one partition and a redo retracts exactly its own."""
    if isinstance(expression, Project) and isinstance(expression.child, Aggregate):
        if set(expression.child.group_by) <= set(expression.refs):
            return expression.child
        return None
    return expression if isinstance(expression, Aggregate) else None


def _row_source(child: Expression) -> Optional[str]:
    """The base a chain of σ reads (its rows are that base's rows), or None."""
    while isinstance(child, Select):
        child = child.child
    return child.name if isinstance(child, BaseRef) else None


def supports_incremental(expression: Expression) -> bool:
    """Whether :class:`IncrementalView` can maintain this expression."""
    if isinstance(expression, Difference):
        left, right = expression.left, expression.right
        return (
            _foldable(left)
            and _foldable(right)
            and not (left.base_names() & right.base_names())
        )
    aggregate = _aggregate_of(expression)
    if aggregate is not None:
        return _foldable(aggregate.child)
    return _foldable(expression)


class IncrementalView(MaterialisedView):
    """A materialised view that folds base inserts in instead of going stale.

    :attr:`delta_applications` (base rows folded) against the inherited
    ``recomputations`` says how much of the maintenance was incremental.
    """

    _forward_only = True
    #: Base rows folded in as deltas.
    delta_applications = 0
    #: While a followed aggregate catches up: the rows its opened
    #: partitions held, with their expirations.
    _retracted: Optional[Dict[Row, Timestamp]] = None

    def __init__(self, name, expression, database, *policy) -> None:
        resolver = database.schema_resolver
        self._aggregate = aggregate = _aggregate_of(expression)
        # What a base change runs through: its side of a difference, the
        # child of an aggregate, else the expression itself.
        if isinstance(expression, Difference):
            folded = (expression.left, expression.right)
        elif aggregate is not None:
            folded = (aggregate.child,)
        else:
            folded = (expression,)
        self._plans = [compile_expression(part, resolver) for part in folded]
        #: base name -> the plan its batch runs through.
        self._routes = {
            base: plan
            for plan in self._plans
            for base in plan.expression.base_names()
        }
        #: The base whose deletes and overrides are re-derived, not stale.
        self._source: Optional[str] = None
        if aggregate is not None:
            schema = self._plans[0].schema
            self._key = _key_getter(
                [schema.index(ref) for ref in aggregate.group_by]
            )
            spec = aggregate.spec
            self._function = get_aggregate(spec.function_name)
            self._value_index = (
                None if spec.attribute is None else schema.index(spec.attribute)
            )
            if aggregate is expression:
                self._out = lambda row: row
            else:
                extended = aggregate.infer_schema(resolver)
                pick = operator.itemgetter(
                    *[extended.index(ref) for ref in expression.refs]
                )
                self._out = (
                    pick if len(expression.refs) > 1 else lambda row: (pick(row),)
                )
            self._schema = expression.infer_schema(resolver)
            self._source = _row_source(aggregate.child)
        super().__init__(name, expression, database, *policy)

    def _build(self, stamp: Timestamp) -> EvalResult:
        self._pending: Dict[str, List[ExpiringTuple]] = {}
        #: Rows a delete or override touched, to re-derive (σ chains only).
        self._touched: Set[Row] = set()
        self._unfolded = 0
        #: The two side states of a difference.
        self._sides: Tuple[Relation, ...] = ()
        if self._aggregate is not None:
            result = self._build_partitions(stamp)
        else:
            states = []
            for plan in self._plans:
                # A row-layout copy: the relation ``evaluate`` hands out
                # also sits in the plan cache, and the states are mutated.
                relation = self.database.evaluate(plan.expression, at=stamp).relation
                states.append(
                    Relation._from_trusted(relation.schema, dict(relation.items()))
                )
            if isinstance(self.expression, Difference):
                result = self._build_difference(*states, stamp)
                self._sides = tuple(states)
            else:
                result = EvalResult(
                    states[0], INFINITY, IntervalSet.from_onwards(stamp), stamp
                )
            #: base name -> the state its fold is merged into.
            self._targets = {
                base: state
                for plan, state in zip(self._plans, states)
                for base in plan.expression.base_names()
            }
        #: How large a pending batch may grow (and, doubled, the state
        #: before it is trimmed): the result's size when last trimmed.
        self._room = max(len(result.relation), _MIN_BATCH)
        return result

    def _build_partitions(self, stamp: Timestamp) -> EvalResult:
        """One compiled execution of the child, partitioned as it is read."""
        #: partition key -> (members ``{row: texp}``, value).
        self._groups: Dict[Any, Tuple[Dict[Row, Timestamp], Any]] = {}
        #: partition key -> the tick its held rows stop matching a
        #: recomputation, or it dies: its next redo.
        self._due = Schedule()
        child = self._plans[0].execute(self.database.catalog, stamp).relation
        key = self._key
        partitions: Dict[Any, Dict[Row, Timestamp]] = {}
        for row, texp in child.items():
            group = key(row)
            members = partitions.get(group)
            if members is None:
                partitions[group] = {row: texp}
            else:
                members[row] = texp
        state = Relation(self._schema)
        for group, members in partitions.items():
            self._redo(group, members, stamp, state)
        return EvalResult(state, INFINITY, IntervalSet.from_onwards(stamp), stamp)

    # -- recording and folding deltas -----------------------------------------

    def _on_insert(self, table, stored: ExpiringTuple) -> None:
        if self.cause is not None:
            return  # a refresh is pending anyway
        self._pending.setdefault(table.name, []).append(stored)
        self._count_change()

    def _on_delete(self, table, row: Row) -> None:
        if self._source is None:
            self.invalidate("stale")
        elif self.cause is None:
            self._touched.add(row)
            self._count_change()

    def _count_change(self) -> None:
        self._unfolded += 1
        if self._unfolded > self._room:
            # The batch outgrew the stored result: a refresh costs no more
            # than folding it and nothing has to be held until then.
            self._pending.clear()
            self._touched.clear()
            self.invalidate("overflow")

    def settled(self, stamp: Timestamp) -> bool:
        if not super().settled(stamp):
            return False
        if self._aggregate is None:
            return True
        tick = self._due.next_due()
        return tick is None or stamp < tick

    def _catch_up(self, stamp: Timestamp) -> None:
        if self.cause is not None:
            return  # stale: the read refreshes
        if self._aggregate is not None:
            try:
                self._catch_up_partitions(stamp)
            except EvaluationError:
                # Partitions are half redone; the refresh raises it again.
                self.invalidate("stale")
                raise
        elif self._unfolded or (self._sides and stamp != self.held_at):
            self._catch_up_rows(stamp)  # else a read trims a plain state

    def _catch_up_rows(self, stamp: Timestamp) -> None:
        rows: List[Row] = []  # the delta rows a side state took in
        # A plain state is the result: its loads are the log's entries.
        log = None if self._sides or self.log is None else self.log.entries
        for base, delta in self._drain(stamp):
            self._targets[base].bulk_load(delta.items(), log)
            if self._sides:
                rows += delta.rows()
        if self._sides or len(self._result.relation) > 2 * self._room:
            # Side states are re-read below and must be current; a
            # monotonic state (a join's can dwarf its inputs, and a fold
            # costs only those) waits until it has doubled, or for a read.
            self._trim(stamp)
        if self._sides:
            # A due patch re-derives its row like a delta row does.  A row
            # holds one patch at most: re-placing it replaces the patch.
            due = self._queue_at(stamp).due_patches(stamp)
            self.patches_applied += len(due)
            self.database.statistics.view_patches_applied += len(due)
            for row in rows + [patch.row for patch in due]:
                self._place(row)

    def _catch_up_partitions(self, stamp: Timestamp) -> None:
        tick = self._due.next_due()
        if not self._unfolded and (tick is None or tick > stamp):
            return
        #: partition key -> its members, being changed before the redo.
        opened: Dict[Any, Dict[Row, Timestamp]] = {}
        log = self.log
        # What the opened partitions held, and what their redos load: the
        # log gets the net of the two.
        self._retracted = None if log is None else {}
        added: Optional[list] = None if log is None else []
        touched, self._touched = self._touched, set()
        state = self._result.relation
        try:
            for _, delta in self._drain(stamp):
                self._join(delta, opened)
            if touched:
                self._rederive(touched, stamp, opened)
            for group, _ in self._due.pop_due(stamp):
                self._open(group, opened)
            for group, members in opened.items():
                self._redo(group, members, stamp, state, added)
        finally:
            # Also what a failed fold half did: the refresh that follows
            # diffs from the state as it was left.
            if log is not None:
                log.net(self._retracted, added)
                self._retracted = None
        if len(state) > 2 * self._room:
            self._trim(stamp)

    def _drain(self, stamp: Timestamp) -> List[Tuple[str, Relation]]:
        """Fold the pending batches: ``(base, delta)`` per base."""
        pending, self._pending = self._pending, {}
        self.delta_applications += self._unfolded
        self._unfolded = 0
        return [
            (base, self._fold(
                base, [(stored.row, stored.expires_at) for stored in batch], stamp
            ))
            for base, batch in pending.items()
        ]

    def _trim(self, stamp: Timestamp) -> None:
        state = self._result.relation
        for relation in (state, *self._sides):
            relation.purge_expired(stamp)
        self._room = max(len(state), _MIN_BATCH)

    def _visible(self, stamp: Timestamp) -> Relation:
        if not self._sides:  # else catching up has trimmed already
            self._trim(stamp)  # a read is O(result) anyway
        return self._result.relation.copy()

    def _fold(
        self, base: str, pairs: List[Tuple[Row, Timestamp]], stamp: Timestamp
    ) -> Relation:
        """``e(catalog[base := pairs])`` for the part of the view ``base``
        feeds: a side of a difference, an aggregate's child, or the view."""
        database = self.database
        delta_base = Relation(database.table(base).schema)
        delta_base.bulk_load(pairs)

        def catalog(name: str) -> Relation:
            return delta_base if name == base else database.table(name).relation

        return self._routes[base].execute(catalog, stamp).relation

    def _place(self, row: Row) -> None:
        """Re-derive one row of ``L − R`` from the two (trimmed) side states,
        and its pending patch with it."""
        left = self._sides[0].expiration_or_none(row)
        right = None if left is None else self._sides[1].expiration_or_none(row)
        state, log = self._result.relation, self.log
        if right is not None:
            # Matched in R: hidden now; re-appears if it outlives the match.
            before = state.pop(row)
            if before is not None and log is not None:
                log.entries.append((row, before, None))
            if right < left:
                self._patcher.add(Patch(row, right, left))
                return
        elif left is not None:
            state.bulk_load([(row, left)], None if log is None else log.entries)
        self._patcher.discard(row)

    # -- partitions of a folded aggregate ----------------------------------------

    def _open(self, group: Any, opened: Dict) -> Dict[Row, Timestamp]:
        """The members of ``group``'s partition, its held rows retracted."""
        members = opened.get(group)
        if members is None:
            held = self._groups.pop(group, None)
            members = {}
            if held is not None:
                members, value = held
                pop, out = self._result.relation.pop, self._out
                retracted = self._retracted
                for row in members:
                    held_row = out(row + (value,))
                    texp = pop(held_row)
                    if texp is not None and retracted is not None:
                        retracted[held_row] = texp
            opened[group] = members
        return members

    def _join(self, delta: Relation, opened: Dict) -> None:
        """Max-merge child delta rows into their (opened) partitions."""
        key = self._key
        for row, texp in delta.items():
            members = self._open(key(row), opened)
            existing = members.get(row)
            if existing is None or existing < texp:
                members[row] = texp

    def _rederive(self, touched: Set[Row], stamp: Timestamp, opened: Dict) -> None:
        """Rows a delete or override touched leave their partitions, and
        those the base still holds alive re-enter through the child plan."""
        key, groups = self._key, self._groups
        for row in touched:
            group = key(row)
            members = opened.get(group)
            if members is None:
                held = groups.get(group)
                if held is None or row not in held[0]:
                    continue
                members = self._open(group, opened)
            members.pop(row, None)
        stored = self.database.table(self._source).relation.expiration_or_none
        alive = [
            (row, texp) for row in touched
            if (texp := stored(row)) is not None and stamp < texp
        ]
        if alive:
            self._join(self._fold(self._source, alive, stamp), opened)

    def _redo(
        self, group: Any, members: Dict[Row, Timestamp], stamp: Timestamp,
        state: Relation, added: Optional[list] = None,
    ) -> None:
        """Aggregate ``group``'s members alive at ``stamp`` into ``state``
        (reporting the loads to ``added``) and schedule the partition's next
        redo."""
        alive = [(row, texp) for row, texp in members.items() if stamp < texp]
        if not alive:
            self._due.discard(group)
            return  # the partition is gone
        value, rows, _, invalidation, dies_at = aggregate_partition(
            alive, self._value_index, self._function, stamp,
            self._aggregate.strategy,
        )
        out = self._out
        state.bulk_load(((out(row), texp) for row, texp in rows), added)
        if len(alive) < len(members):
            members = dict(alive)
        self._groups[group] = (members, value)
        # Held rows stop matching a recomputation at the invalidation time;
        # at the death all of them have expired and the members can go.
        until = invalidation if invalidation < dies_at else dies_at
        self._due.put(group, until)
