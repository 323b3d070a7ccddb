"""Priority-queue patching of materialised differences (Section 3.4.2).

Theorem 3: given the helper relation

    ``R(R −exp S) = { r | r ∈ exp_τ(R) ∧ r ∈ exp_τ(S) }``

whose tuples carry expiration time ``texp_S(t)``, a materialised difference
``R −exp S`` can be *patched* with the helper relation's expiring tuples so
that recomputation is never needed -- the expression's expiration time
becomes ``∞``.  When a helper tuple expires (its S-side match is gone), it
is inserted into the materialised difference with expiration ``texp_R(t)``,
which is exactly when it disappears from ``R`` itself.

The helper relation is a priority queue ordered by ``texp_S``: the one
expiration :class:`~repro.core.schedule.Schedule` the engine's index also
keeps, keyed by row, so it holds at most one patch per row and at most
``|R ∩ S|`` entries.  The paper notes it can be gathered for free while the
difference itself is computed, e.g. inside a hash/sort-merge anti-semijoin
-- :func:`compute_difference_with_patches` does exactly that in a single
pass.

A *queue limit* implements the paper's policy trade-off ("how many r to
keep in the queue"): keeping only the patches due before a horizon saves
space and up-front transfer, at the price of a finite
:attr:`DifferencePatcher.guaranteed_until` instead of ``∞``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.relation import Relation
from repro.core.schedule import Schedule
from repro.core.timestamps import INFINITY, TimeLike, Timestamp, ts
from repro.core.tuples import Row
from repro.errors import RelationError

__all__ = ["Patch", "DifferencePatcher", "compute_difference_with_patches", "PatchedDifference"]


@dataclass(frozen=True)
class Patch:
    """One pending re-insertion: ``row`` appears at ``due`` and lives to ``expires_at``."""

    row: Row
    #: When the row must be inserted into the difference (its ``texp_S``).
    due: Timestamp
    #: The expiration the inserted row carries (its ``texp_R``).
    expires_at: Timestamp


class DifferencePatcher:
    """The helper relation ``R(R −exp S)`` as a priority queue.

    Pop patches as time passes with :meth:`due_patches`; apply them to a
    materialised difference with :meth:`apply_to`.  The queue is a
    :class:`~repro.core.schedule.Schedule` keyed by row on its ``due`` tick
    (the helper tuple's expiration), beside each row's ``expires_at``: a row
    has at most one pending patch, and a re-queued row replaces its earlier
    one.
    """

    def __init__(self, patches: Optional[List[Patch]] = None, limit: Optional[int] = None) -> None:
        self._schedule = Schedule()
        #: row -> the expiration its patch re-inserts it with.
        self._expires: Dict[Row, Timestamp] = {}
        self._guaranteed_until = INFINITY
        self._limit = limit
        self.applied = 0
        for patch in patches or ():
            self.add(patch)

    def add(self, patch: Patch) -> None:
        """Queue a patch, replacing any earlier patch of its row.

        A patch due at ``∞`` (its S match never expires: the row never
        re-appears) only drops the earlier one.  Beyond the size limit the
        whole latest-due tick is shed: the *earliest* patches are kept
        (they are needed first) and :attr:`guaranteed_until` drops to the
        shed tick -- from then on, correctness would have required the
        dropped tuples, so no patch due at or after it is queued again.
        """
        due = patch.due
        if due >= self._guaranteed_until:
            self.discard(patch.row)
            return
        self._schedule.put(patch.row, due)
        self._expires[patch.row] = patch.expires_at
        if self._limit is not None and len(self._schedule) > self._limit:
            self._shed()

    def discard(self, row: Row) -> None:
        """Drop ``row``'s pending patch, if any."""
        self._schedule.discard(row)
        self._expires.pop(row, None)

    def _shed(self) -> None:
        """Drop every patch due at the latest pending tick."""
        buckets, ticks = self._schedule.buckets, self._schedule.ticks
        for tick in sorted(buckets, reverse=True):
            shed = [row for row in buckets[tick] if ticks.get(row) == tick]
            if shed:
                break
        for row in shed:
            self.discard(row)
        self._guaranteed_until = tick

    @property
    def guaranteed_until(self) -> Timestamp:
        """The time up to which patching keeps the difference exact.

        ``∞`` unless a queue limit forced patches to be shed (Theorem 3);
        with shedding, the materialisation is guaranteed only before the
        earliest shed patch would have been due.
        """
        return self._guaranteed_until

    def __len__(self) -> int:
        return len(self._schedule)

    def peek_due(self) -> Optional[Timestamp]:
        """The due time of the next pending patch, if any."""
        return self._schedule.next_due()

    def pending(self) -> List[Patch]:
        """Every queued patch, in no particular order (what a snapshot of
        the patched view ships)."""
        expires = self._expires
        return [Patch(row, due, expires[row])
                for row, due in self._schedule.items()]

    def due_patches(self, now: TimeLike) -> List[Patch]:
        """Pop every patch whose row should be visible at time ``now``.

        A patch is due once its S-side match has expired, i.e. when
        ``due <= now`` (the helper tuple is no longer in ``exp_now(S)``).
        """
        expires = self._expires
        return [
            Patch(row, due, expires.pop(row))
            for row, due in self._schedule.pop_due(ts(now))
        ]

    def apply_to(
        self, materialised: Relation, now: TimeLike, changes: Optional[list] = None
    ) -> int:
        """Insert all due patches into ``materialised``; returns the count.

        Rows whose own expiration has also passed (``texp_R <= now``) are
        skipped -- they would be invisible anyway.  ``changes`` receives
        what the patches changed, as :meth:`Relation.bulk_load` reports it.
        """
        stamp = ts(now)
        applied = materialised.bulk_load(
            [
                (patch.row, patch.expires_at)
                for patch in self.due_patches(stamp)
                if stamp < patch.expires_at
            ],
            changes,
        )
        self.applied += applied
        return applied


def compute_difference_with_patches(
    left: Relation,
    right: Relation,
    tau: TimeLike = 0,
    limit: Optional[int] = None,
) -> Tuple[Relation, DifferencePatcher]:
    """One-pass difference + helper-relation construction.

    Implements the paper's observation that the priority queue can be
    gathered while executing the difference (here: a hash anti-semijoin).
    Returns the materialised ``exp_τ(L) −exp exp_τ(R)`` and the patcher
    holding ``R(L −exp R)``.
    """
    stamp = ts(tau)
    left.schema.check_union_compatible(right.schema)
    visible_left = left.exp_at(stamp)
    visible_right = right.exp_at(stamp)
    result = Relation(left.schema)
    patches: List[Patch] = []
    for row, left_texp in visible_left.items():
        right_texp = visible_right.expiration_or_none(row)
        if right_texp is None:
            result.insert(row, expires_at=left_texp)
        else:
            # Helper tuple: expires (becomes due) at texp_S, re-appears in
            # the difference carrying texp_R.  Only rows that would actually
            # re-appear matter (Table 2 case 3a).
            if right_texp < left_texp:
                patches.append(Patch(row, due=right_texp, expires_at=left_texp))
    return result, DifferencePatcher(patches, limit=limit)


class PatchedDifference:
    """A self-maintaining materialised difference (Theorem 3 end to end).

    Materialises ``L −exp R`` once at ``τ`` and thereafter answers
    :meth:`view_at` for any ``τ' ≥ τ`` *without ever touching the base
    relations again*: expired tuples drop out via ``exp_τ'`` and re-appearing
    tuples are injected from the patch queue.  With an unbounded queue the
    view is exact forever (expiration time ``∞``).

    >>> from repro.core.relation import relation_from_rows
    >>> L = relation_from_rows(["uid"], [((1,), 10), ((2,), 15)])
    >>> R = relation_from_rows(["uid"], [((1,), 5)])
    >>> view = PatchedDifference(L, R, tau=0)
    >>> sorted(view.view_at(0).rows())   # 1 hidden by its match in R
    [(2,)]
    >>> sorted(view.view_at(5).rows())   # match expired: 1 re-appears
    [(1,), (2,)]
    >>> sorted(view.view_at(10).rows())  # 1 expired in L as well
    [(2,)]
    """

    def __init__(
        self,
        left: Relation,
        right: Relation,
        tau: TimeLike = 0,
        limit: Optional[int] = None,
    ) -> None:
        self.tau = ts(tau)
        self._materialised, self.patcher = compute_difference_with_patches(
            left, right, tau=self.tau, limit=limit
        )
        self._last_viewed = self.tau

    @property
    def expiration(self) -> Timestamp:
        """``texp`` of the patched expression: ``∞`` unless patches were shed."""
        return self.patcher.guaranteed_until

    def view_at(self, now: TimeLike) -> Relation:
        """The exact difference as of ``now`` (``now`` must not go backwards)."""
        stamp = ts(now)
        if stamp < self._last_viewed:
            raise RelationError(
                f"view time moved backwards: {stamp} < {self._last_viewed}"
            )
        if not self.patcher.guaranteed_until > stamp:
            from repro.errors import StaleViewError

            raise StaleViewError(
                f"patch queue was truncated; view only guaranteed before "
                f"{self.patcher.guaranteed_until}"
            )
        self.patcher.apply_to(self._materialised, stamp)
        self._last_viewed = stamp
        return self._materialised.exp_at(stamp)

    @property
    def storage_size(self) -> int:
        """Materialised tuples plus pending patches (the space trade-off)."""
        return len(self._materialised) + len(self.patcher)
