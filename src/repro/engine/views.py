"""Materialised views with expiration-aware maintenance policies.

The paper's central systems idea: materialise query results once, then
maintain them *as independently of the base relations as possible*, in
synchrony purely through expiration times (Section 3).

A view is a :class:`~repro.core.algebra.evaluator.HeldAnswer`: a read at
``τ`` serves the stored result iff nothing invalidated it and ``τ`` lies in
the window its build recorded, and recomputes otherwise.  A maintenance
policy is nothing but that window:

* a **monotonic** view (Theorem 1) is valid at all times -- reads apply
  ``exp_τ`` to the stored result, whatever the policy, and never touch the
  bases;
* :attr:`MaintenancePolicy.RECOMPUTE` -- ``[0, texp(e))`` (Theorem 2);
* :attr:`MaintenancePolicy.SCHRODINGER` -- the larger Schrödinger validity
  set ``I(e)``, so only the genuinely invalid gaps recompute (Section 3.4);
* :attr:`MaintenancePolicy.PATCH` -- Theorem 3, for difference-rooted
  expressions over monotonic children: ``[τ, guaranteed_until)``, with the
  helper priority queue's due patches applied as a read catches up, so it
  *never* recomputes.  A truncated queue's horizon passing raises
  :class:`~repro.errors.StaleViewError`.

A view a server streams keeps a :class:`ChangeLog` while it has
followers: every change a build or a fold makes to the stored result, as
``(row, before, after)``.  Expiration appends nothing -- the followers
expire rows themselves, as the paper's clients do -- and neither does a
due patch: a PATCH view's follower holds the queue too, so there a
queued row's value is its :class:`~repro.core.patching.Patch`, and a
rebuild logs what it changed of either.

All of that assumes the bases change through expiration only: a base
insert, explicit delete or ``override`` is a pending cause (``stale``) and
the next read refreshes.  The subclass
:class:`~repro.engine.maintenance.IncrementalView` (the paper's Section 5
future work) folds inserts in instead, and a grouped aggregate over a
selection also explicit deletes and overrides.  Neither is constructed
directly: :meth:`Database.materialise
<repro.engine.database.Database.materialise>` is the one door, and picks
the subclass for every monotonic base-linear expression and for
:attr:`MaintenancePolicy.DELTA` -- which an omitted policy means wherever
a non-monotonic shape can fold.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, Hashable, List, Mapping, Optional, Tuple

from repro.core.algebra.evaluator import EvalResult, HeldAnswer
from repro.core.algebra.expressions import Difference, Expression
from repro.core.intervals import ALL_TIME, IntervalSet
from repro.core.patching import (
    DifferencePatcher, Patch, compute_difference_with_patches,
)
from repro.core.relation import Relation
from repro.core.timestamps import TimeLike, Timestamp, ts
from repro.core.tuples import Row, make_row
from repro.errors import StaleViewError, ViewError

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.engine.database import Database

__all__ = ["ChangeLog", "MaintenancePolicy", "MaterialisedView", "diff_states"]

#: One change to a stored result: ``(row, before, after)``, either side
#: ``None`` where the row was (or is now) absent.
Change = Tuple[Row, Optional[Timestamp], Optional[Timestamp]]
#: ``(upserts, removes)``: ``(row, texp)`` pairs to set and to drop.
Delta = Tuple[List[Tuple[Row, Timestamp]], List[Tuple[Row, Timestamp]]]


def _expiry(value) -> Timestamp:
    """When a held value stops mattering: a row's expiration, or the one
    a queued row's :class:`Patch` re-inserts it with."""
    return value.expires_at if type(value) is Patch else value


def diff_states(
    old: Mapping[Row, Timestamp], new: Mapping[Row, Timestamp], now: Timestamp
) -> List[Change]:
    """The changes taking a holder of ``old`` to ``new`` at ``now``.

    A rebuild that does not fold runs this once: every row whose
    expiration moved, and every row gone from ``new`` that had not expired
    by ``now`` -- one that had needs no message, its holder expired it.
    A value may be a queued row's :class:`Patch` (:meth:`MaterialisedView._held`).
    """
    get = old.get
    changes = [
        (row, before, texp)
        for row, texp in new.items()
        if (before := get(row)) != texp
    ]
    changes += [
        (row, texp, None)
        for row, texp in old.items()
        if row not in new and now < _expiry(texp)
    ]
    return changes


class ChangeLog:
    """What a view's stored result took since its oldest follower's cursor.

    ``entries`` are :data:`Change` s in the order they were made; a
    position counts every entry ever appended, so ``entries[0]`` sits at
    ``start``.  Each follower (any hashable key) holds a cursor: the
    position up to which it has taken the log.  :meth:`trim` drops what
    every follower has taken, and past :attr:`LIMIT` entries everything
    (a :meth:`take` that leaves more trims too): the followers behind then
    find their cursor before ``start`` (:meth:`take` returns ``None``) and
    start again from a snapshot.
    """

    __slots__ = ("entries", "start", "cursors")

    #: Entries kept for a follower that stopped taking them.
    LIMIT = 1 << 16

    def __init__(self) -> None:
        self.entries: List[Change] = []
        self.start = 0
        self.cursors: Dict[Hashable, int] = {}

    @property
    def end(self) -> int:
        """The position the next entry gets."""
        return self.start + len(self.entries)

    def has_news(self, follower: Hashable) -> bool:
        """Whether ``follower`` has entries to take (or fell off the log)."""
        return self.cursors[follower] != self.end

    def net(self, retracted: Dict[Row, Timestamp], added: List[Change]) -> None:
        """Append a redo's net effect: rows ``retracted`` with their old
        expirations, then ``added`` as :meth:`Relation.bulk_load` reported
        them.  A row put back as it was appends nothing."""
        final = {row: after for row, _, after in added}
        entries = self.entries
        for row, after in final.items():
            before = retracted.get(row)
            if before != after:
                entries.append((row, before, after))
        for row, before in retracted.items():
            if row not in final:
                entries.append((row, before, None))

    def take(self, follower: Hashable, now: Timestamp) -> Optional[Delta]:
        """The net ``(upserts, removes)`` past ``follower``'s cursor, which
        moves to the end; ``None`` when the cursor fell off the log.

        Per row the first ``before`` and the last ``after`` count: a row
        ending where it began ships nothing, and a removal ships only while
        the removed row has not expired by ``now``, with its expiration.
        """
        cursor, end = self.cursors[follower], self.end
        if cursor == end:
            return [], []
        self.cursors[follower] = end
        if cursor < self.start:
            return None
        net: Dict[Row, list] = {}
        for row, before, after in self.entries[cursor - self.start:]:
            seen = net.get(row)
            if seen is None:
                net[row] = [before, after]
            else:
                seen[1] = after
        upserts = [
            (row, after)
            for row, (before, after) in net.items()
            if after is not None and after != before
        ]
        removes = [
            (row, texp)
            for row, (before, after) in net.items()
            if after is None and before is not None
            and now < (texp := _expiry(before))
        ]
        if len(self.entries) > self.LIMIT:
            self.trim()
        return upserts, removes

    def trim(self) -> None:
        """Drop the entries every follower has taken (all, past LIMIT)."""
        oldest = min(self.cursors.values(), default=self.end)
        drop = oldest - self.start
        if len(self.entries) - drop > self.LIMIT:
            drop = len(self.entries)
        if drop > 0:
            del self.entries[:drop]
            self.start += drop


class MaintenancePolicy(enum.Enum):
    """How a non-monotonic materialised view is kept correct."""

    RECOMPUTE = "recompute"
    SCHRODINGER = "schrodinger"
    PATCH = "patch"
    #: Fold base inserts in as deltas; for the shapes see
    #: :func:`repro.engine.maintenance.supports_incremental`.
    DELTA = "delta"


class MaterialisedView(HeldAnswer):
    """One materialised expression registered with a database.

    Created via :meth:`repro.engine.database.Database.materialise`; read
    with :meth:`read`, which transparently hides all expiration handling,
    exactly as the paper prescribes for the querying user.
    """

    def __init__(
        self,
        name: str,
        expression: Expression,
        database: "Database",
        policy: MaintenancePolicy = MaintenancePolicy.SCHRODINGER,
        patch_limit: Optional[int] = None,
    ) -> None:
        super().__init__(database.clock.now)
        self.name = name
        self.expression = expression
        self.database = database
        self.policy = policy
        self.is_monotonic = expression.is_monotonic()
        #: Full re-evaluations after the initial build.
        self.recomputations = 0
        self.patches_applied = 0
        #: The configured patch-queue bound (PATCH policy), or ``None``.
        self.patch_limit = patch_limit
        self._result: Optional[EvalResult] = None
        #: Theorem 3's helper queue: the rows known to re-appear, and when
        #: (empty unless a build of a difference gathered some).
        self._patcher = DifferencePatcher()
        #: The changes kept for the view's followers; ``None`` while it has
        #: none, so a view nobody streams appends nothing.
        self.log: Optional[ChangeLog] = None
        # The two read counters, bound once: a point probe is too short to
        # pay the statistics object's property round trips.
        counters = database.statistics._counters
        self._count_read = counters["view_reads"].labels().inc
        self._served = counters["view_reads_from_materialisation"].labels().inc
        if policy is MaintenancePolicy.PATCH and not (
            isinstance(expression, Difference)
            and expression.left.is_monotonic()
            and expression.right.is_monotonic()
        ):
            raise ViewError(
                f"view {name!r}: the PATCH policy needs a difference of "
                f"monotonic sub-expressions at the root (Theorem 3)"
            )
        for base in sorted(expression.base_names()):
            table = database.table(base)
            table.insert_listeners.append(self._on_base_mutation)
            table.delete_listeners.append(self._on_base_mutation)
        # The initial materialisation is not a *re*-computation; benches
        # count only the maintenance work after this point, so it goes
        # uncounted rather than counted and rolled back (counters are
        # monotone).
        self._materialise(database.clock.now)

    def _on_base_mutation(self, table, payload) -> None:
        # Insert listeners are handed the stored ExpiringTuple; delete
        # listeners (explicit deletes and overrides) the bare row.
        if type(payload) is tuple:
            self._on_delete(table, payload)
        else:
            self._on_insert(table, payload)

    def _on_insert(self, table, stored) -> None:
        # Theorem 1 assumes the bases only ever expire -- so even a
        # monotonic view is stale after anything else.
        self.invalidate("stale")

    def _on_delete(self, table, row) -> None:
        self.invalidate("stale")

    def _unsubscribe(self) -> None:
        """Detach the base-table listeners (called on ``drop_view``)."""
        for base in self.expression.base_names():
            table = self.database.table(base)  # pinned while the view lives
            table.insert_listeners.remove(self._on_base_mutation)
            table.delete_listeners.remove(self._on_base_mutation)

    # -- materialisation ------------------------------------------------------

    def refresh(self, at: TimeLike = None) -> None:
        """(Re-)materialise from the base relations at ``at`` (default now).

        Evaluation goes through :meth:`Database.evaluate`, so a refresh
        cycle compiles each view expression once and can serve repeat
        refreshes straight from the validity-aware plan cache.
        """
        stamp = self.database.clock.now if at is None else ts(at)
        self._materialise(stamp)
        self.database.statistics.view_recomputations += 1
        self.recomputations += 1
        self.database._maybe_verify()

    def _renew(self, stamp: Timestamp, cause: str) -> None:
        self.refresh(stamp)

    def _materialise(self, stamp: Timestamp) -> None:
        log = self.log
        held = None if log is None else self._held()
        with self.database.tracer.span(
            "view_refresh", view=self.name, policy=self.policy.value
        ) as span:
            self._result = self._build(stamp)
            span.note(rows=len(self._result.relation))
        self.hold(stamp, self._window(self._result))
        if log is not None:
            # A rebuild does not know what it changed: diff it, once.
            log.entries += diff_states(held, self._held(), stamp)

    def _held(self) -> Dict[Row, object]:
        """What a follower holds: the stored rows with their expirations
        and, under PATCH, each queued row with its :class:`Patch` -- the
        follower applies due patches itself, so a row it may hold either
        way is one the diff of a rebuild must name."""
        held = dict(self._result.relation.items())
        if self.policy is MaintenancePolicy.PATCH:
            held.update((patch.row, patch) for patch in self._patcher.pending())
        return held

    def _window(self, result: EvalResult) -> IntervalSet:
        """The policy, as the window in which this build may be served."""
        if self.is_monotonic:
            return ALL_TIME  # Theorem 1: valid forever
        if self.policy is MaintenancePolicy.RECOMPUTE:  # Theorem 2
            return IntervalSet.single(0, result.expiration)  # texp(e) > τ
        # I(e); a patched difference's is [τ, guaranteed_until), a folded
        # aggregate's [τ, ∞).
        return result.validity

    def _build(self, stamp: Timestamp) -> EvalResult:
        """Evaluate the stored result from the bases at ``stamp``."""
        node = self.expression
        if self.policy is not MaintenancePolicy.PATCH:
            return self.database.evaluate(node, at=stamp)
        return self._build_difference(
            self.database.evaluate(node.left, at=stamp).relation,
            self.database.evaluate(node.right, at=stamp).relation,
            stamp,
        )

    def _build_difference(
        self, left: Relation, right: Relation, stamp: Timestamp
    ) -> EvalResult:
        # Theorem 3 in one pass: the anti-semijoin that computes the
        # difference gathers the helper queue for free, and its output
        # *is* exp_τ(L) −exp exp_τ(R) -- no second evaluation of the whole
        # Difference.  Patched state moves forward only.
        state, self._patcher = compute_difference_with_patches(
            left, right, tau=stamp, limit=self.patch_limit
        )
        self._forward_only = True
        validity = IntervalSet.from_onwards(stamp)
        horizon = self._patcher.guaranteed_until
        if horizon.is_finite:
            validity = validity - IntervalSet.from_onwards(horizon)
        return EvalResult(state, horizon, validity, stamp)

    @property
    def expiration(self) -> Timestamp:
        """``texp(e)`` of the current materialisation (``∞`` when patched)."""
        return self._result.expiration

    @property
    def validity(self):
        """The Schrödinger validity set ``I(e)`` of the materialisation."""
        return self._result.validity

    @property
    def storage_size(self) -> int:
        """Materialised tuples plus pending patches."""
        return len(self._result.relation) + len(self._patcher)

    # -- reading ------------------------------------------------------------------

    def read(self, at: TimeLike = None, follower: Optional[Hashable] = None):
        """The view's content at ``at`` (default: the database's now).

        Expiration times never surface here; tuples silently drop out as
        they expire, and the recorded window decides when base access is
        needed.  A ``follower``'s read is the view brought to ``at`` the
        same way, but it returns what changed since that follower's last
        one instead of the content: :meth:`ChangeLog.take`.
        """
        stamp = self.database.clock.now if at is None else ts(at)
        self._count_read()
        with self.database.tracer.span(
            "view_read", view=self.name, policy=self.policy.value
        ) as span:
            span.note(decision=self._bring_current(stamp) or "served")
            if follower is not None:
                return self.log.take(follower, stamp)
            return self._visible(stamp)

    def contains(self, values, at: TimeLike = None) -> bool:
        """Point-membership probe: ``values in read(at).rows()`` without
        cloning the materialisation -- the read protocol, then one
        stored-expiration lookup (``texp > τ``): an O(1) ``check()``
        against views that stay correct purely by expiration."""
        stamp = self.database.clock.now if at is None else ts(at)
        self._count_read()
        self._bring_current(stamp)
        return self._result.relation.alive_at(make_row(values), stamp)

    # -- following ------------------------------------------------------------

    def follow(self, follower: Hashable) -> None:
        """Keep ``follower``'s changes from the stored state on: call it
        right after the read whose result the follower holds."""
        if self.log is None:
            self.log = ChangeLog()
        self.log.cursors[follower] = self.log.end

    def unfollow(self, follower: Hashable) -> None:
        """Stop keeping changes for ``follower``; the last one drops the log."""
        log = self.log
        if log is not None:
            log.cursors.pop(follower, None)
            if not log.cursors:
                self.log = None

    def settled(self, stamp: Timestamp) -> bool:
        """Whether a read at ``stamp`` finds nothing to fold, apply or
        rebuild: the stored state is that read's, up to expiration."""
        if self.cause is not None or self._unfolded or not self.serves(stamp):
            return False
        due = self._patcher.peek_due()
        return due is None or stamp < due

    def pending_patches(self) -> List[Patch]:
        """Theorem 3's queue: each row re-appears at its patch's ``due``
        and lives until its ``expires_at``."""
        return self._patcher.pending()

    def _catch_up(self, stamp: Timestamp) -> None:
        """Insert the patches due by ``stamp`` (unless a refresh is pending).

        A due patch appends nothing to the change log: every follower got
        the queue with its snapshot and applies the patch itself.
        """
        if self.cause is None:
            applied = self._queue_at(stamp).apply_to(self._result.relation, stamp)
            if applied:
                self.patches_applied += applied
                self.database.statistics.view_patches_applied += applied

    def _queue_at(self, stamp: Timestamp) -> DifferencePatcher:
        """The patch queue, which must still cover ``stamp``."""
        if not stamp < self._patcher.guaranteed_until:
            raise StaleViewError(
                f"view {self.name!r}: patch queue was truncated; the "
                f"materialisation is only guaranteed before "
                f"{self._patcher.guaranteed_until}"
            )
        return self._patcher

    def _visible(self, stamp: Timestamp) -> Relation:
        return self._result.relation.exp_at(stamp)

    def _audit_serveable(self, stamp: Timestamp) -> Optional[Relation]:
        """What a :meth:`read` at ``stamp`` would serve *from storage*, for
        the invariant checker: ``None`` where the guard or the serve rule
        sends the read elsewhere; else caught up as the read would be
        (which changes no answer), uncounted."""
        if not (self.admits(stamp) and self.serves(stamp)):
            return None
        self._catch_up(stamp)
        self.held_at = stamp
        return self._result.relation.exp_at(stamp)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, policy={self.policy.value}, "
            f"monotonic={self.is_monotonic}, expiration={self.expiration})"
        )
