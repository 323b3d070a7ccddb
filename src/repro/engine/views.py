"""Materialised views with expiration-aware maintenance policies.

The paper's central systems idea: materialise query results once, then
maintain them *as independently of the base relations as possible*, in
synchrony purely through expiration times (Section 3).

* A **monotonic** view (Theorem 1) is maintenance-free forever: reads just
  apply ``exp_τ`` to the stored result.  No policy needed, no base access.
* A **non-monotonic** view is exact until ``texp(e)`` (Theorem 2) and has
  the larger Schrödinger validity set ``I(e)`` beyond it.  Three policies:

  - :attr:`MaintenancePolicy.RECOMPUTE` -- serve from the materialisation
    while ``now < texp(e)``; recompute (and re-materialise) otherwise;
  - :attr:`MaintenancePolicy.SCHRODINGER` -- serve whenever ``now ∈ I(e)``;
    recompute only in the genuinely invalid gaps (Section 3.4);
  - :attr:`MaintenancePolicy.PATCH` -- Theorem 3, for difference-rooted
    expressions over monotonic children: keep the helper priority queue
    and patch re-appearing tuples in; *never* recompute.

All of that assumes the bases change through expiration only: a base
insert, explicit delete or ``override`` marks a :class:`MaterialisedView`
stale and the next read refreshes it.  The subclass
:class:`~repro.engine.maintenance.IncrementalView` (the paper's Section 5
future work) folds inserts in instead.  Neither is constructed directly:
:meth:`Database.materialise <repro.engine.database.Database.materialise>`
is the one door, and picks the subclass for every monotonic base-linear
expression and for :attr:`MaintenancePolicy.DELTA`.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.core.algebra.evaluator import EvalResult
from repro.core.algebra.expressions import Difference, Expression
from repro.core.intervals import IntervalSet
from repro.core.patching import DifferencePatcher, compute_difference_with_patches
from repro.core.relation import Relation
from repro.core.timestamps import TimeLike, Timestamp, ts
from repro.errors import StaleViewError, ViewError

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.engine.database import Database

__all__ = ["MaintenancePolicy", "MaterialisedView"]


class MaintenancePolicy(enum.Enum):
    """How a non-monotonic materialised view is kept correct."""

    RECOMPUTE = "recompute"
    SCHRODINGER = "schrodinger"
    PATCH = "patch"
    #: Fold base inserts in as deltas; for the shapes see
    #: :func:`repro.engine.maintenance.supports_incremental`.
    DELTA = "delta"


class MaterialisedView:
    """One materialised expression registered with a database.

    Created via :meth:`repro.engine.database.Database.materialise`; read
    with :meth:`read`, which transparently hides all expiration handling,
    exactly as the paper prescribes for the querying user.
    """

    #: Base rows recorded but not folded in yet (the insert-folding
    #: subclass's business), and whether the state was patched or trimmed
    #: forward, so that reads cannot go back in time.
    _unfolded = 0
    _forward_only = False

    def __init__(
        self,
        name: str,
        expression: Expression,
        database: "Database",
        policy: MaintenancePolicy = MaintenancePolicy.SCHRODINGER,
        patch_limit: Optional[int] = None,
    ) -> None:
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
        self._patcher: Optional[DifferencePatcher] = None
        self._last_read = database.clock.now
        #: Set by base-table listeners on inserts / explicit deletes; the
        #: next read refreshes instead of serving the stale materialisation.
        self._stale = False
        #: Callables ``(view)`` notified after every (re-)materialisation;
        #: the server's subscription layer hangs off this to learn that
        #: shipped state may have drifted without polling every view.
        self.refresh_listeners: list = []
        # The two read counters, bound once: a point probe is too short to
        # pay the statistics object's property round trips.
        counters = database.statistics._counters
        self._count_read = counters["view_reads"].labels().inc
        self._count_served = (
            counters["view_reads_from_materialisation"].labels().inc
        )
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
            self._stale = True
        else:
            self._on_insert(table, payload)

    def _on_insert(self, table, stored) -> None:
        self._stale = True

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

    def _materialise(self, stamp: Timestamp) -> None:
        with self.database.tracer.span(
            "view_refresh", view=self.name, policy=self.policy.value
        ) as span:
            self._result = self._build(stamp)
            span.note(rows=len(self._result.relation))
        self._stale = False
        self._last_read = stamp
        for listener in self.refresh_listeners:
            listener(self)

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
        # Difference.
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
        """Materialised tuples (plus pending patches when patched)."""
        patches = len(self._patcher) if self._patcher is not None else 0
        return len(self._result.relation) + patches

    # -- reading ------------------------------------------------------------------

    def read(self, at: TimeLike = None) -> Relation:
        """The view's content at ``at`` (default: the database's now).

        Expiration times never surface here; tuples silently drop out as
        they expire, and the policy decides when base access is needed.
        """
        stamp = self.database.clock.now if at is None else ts(at)
        self._count_read()
        with self.database.tracer.span(
            "view_read", view=self.name, policy=self.policy.value
        ) as span:
            span.note(decision=self._bring_current(stamp))
            return self._visible(stamp)

    def contains(self, values, at: TimeLike = None) -> bool:
        """Point-membership probe: is ``values`` in the view at ``at``?

        Semantically ``values in read(at).rows()``, but without cloning
        the whole materialisation: after the same staleness/validity
        decisions as :meth:`read`, membership is one stored-expiration
        lookup (``texp > τ``).  This is what lets a served ``check()``
        fast path answer point queries in O(1) against views that stay
        correct purely by expiration.
        """
        stamp = self.database.clock.now if at is None else ts(at)
        self._count_read()
        if self.is_monotonic and not self._stale and not self._unfolded:
            self._count_served()  # Theorem 1, and nothing to fold
        else:
            self._bring_current(stamp)
        texp = self._result.relation.expiration_or_none(values)
        return texp is not None and stamp < texp

    def _standing(self, stamp: Timestamp) -> str:
        """How a read at ``stamp`` is answered; decides, changes nothing."""
        result = self._result
        if self._stale:
            # A base table changed by something other than expiration
            # since the materialisation (this holds for monotonic views
            # too -- Theorem 1 assumes the bases only ever expire).
            return "refresh_stale"
        if self.is_monotonic:
            return "materialised"  # Theorem 1: valid forever
        if self._patcher is not None:
            return "patch" if self._patcher.guaranteed_until > stamp else "truncated"
        if self.policy is MaintenancePolicy.RECOMPUTE:
            valid = stamp < result.expiration
        else:  # exact validity intervals (a folded aggregate's are [τ, ∞))
            valid = result.validity.contains(stamp)
        return "materialised" if valid else "recompute"

    def _bring_current(self, stamp: Timestamp) -> str:
        """Make the stored relation exact at ``stamp``; names the decision."""
        if self._forward_only and stamp < self._last_read:
            raise ViewError(
                f"view {self.name!r}: patched and folded reads cannot go "
                f"back in time ({stamp} < {self._last_read})"
            )
        if not self._stale and (self._unfolded or stamp != self._last_read):
            self._catch_up(stamp)  # something to fold, or time has moved
        decision = self._standing(stamp)
        if decision == "truncated":
            raise StaleViewError(
                f"view {self.name!r}: patch queue was truncated; the "
                f"materialisation is only guaranteed before "
                f"{self._patcher.guaranteed_until}"
            )
        if decision in ("refresh_stale", "recompute"):
            self.refresh(stamp)
        else:
            if decision == "patch":
                applied = self._patcher.apply_to(self._result.relation, stamp)
                self.patches_applied += applied
                self.database.statistics.view_patches_applied += applied
            self._count_served()
        self._last_read = stamp
        return decision

    def _catch_up(self, stamp: Timestamp) -> None:
        """Hook: fold recorded base inserts in (nothing to do here)."""

    def _visible(self, stamp: Timestamp) -> Relation:
        return self._result.relation.exp_at(stamp)

    def _audit_serveable(self, stamp: Timestamp) -> Optional[Relation]:
        """What a :meth:`read` at ``stamp`` would serve *from storage*.

        Twin of :meth:`read` for the invariant checker: returns the
        relation the materialisation (plus due patches) would yield, or
        ``None`` whenever a real read would refresh or raise instead of
        serving -- those cases audit nothing.  Recorded inserts are folded
        first (a fold changes no answer); beyond that nothing is mutated.
        """
        if self._result is None or self._stale or (
            self._forward_only and stamp < self._last_read
        ):
            return None
        self._catch_up(stamp)
        decision = self._standing(stamp)
        relation = self._result.relation
        if decision == "patch":
            relation = relation.copy()
            for patch in self._patcher.pending():
                if patch.due <= stamp < patch.expires_at:
                    relation.insert(patch.row, expires_at=patch.expires_at)
        elif decision != "materialised":
            return None
        return relation.exp_at(stamp)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, policy={self.policy.value}, "
            f"monotonic={self.is_monotonic}, expiration={self.expiration})"
        )
