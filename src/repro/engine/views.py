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
from typing import TYPE_CHECKING, Optional

from repro.core.algebra.evaluator import EvalResult, HeldAnswer
from repro.core.algebra.expressions import Difference, Expression
from repro.core.intervals import ALL_TIME, IntervalSet
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
        #: Callables ``(view)`` notified after every (re-)materialisation;
        #: the server's subscription layer hangs off this to learn that
        #: shipped state may have drifted without polling every view.
        self.refresh_listeners: list = []
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
        with self.database.tracer.span(
            "view_refresh", view=self.name, policy=self.policy.value
        ) as span:
            self._result = self._build(stamp)
            span.note(rows=len(self._result.relation))
        self.hold(stamp, self._window(self._result))
        for listener in self.refresh_listeners:
            listener(self)

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

    def read(self, at: TimeLike = None) -> Relation:
        """The view's content at ``at`` (default: the database's now).

        Expiration times never surface here; tuples silently drop out as
        they expire, and the recorded window decides when base access is
        needed.
        """
        stamp = self.database.clock.now if at is None else ts(at)
        self._count_read()
        with self.database.tracer.span(
            "view_read", view=self.name, policy=self.policy.value
        ) as span:
            span.note(decision=self._bring_current(stamp) or "served")
            return self._visible(stamp)

    def contains(self, values, at: TimeLike = None) -> bool:
        """Point-membership probe: ``values in read(at).rows()`` without
        cloning the materialisation -- the read protocol, then one
        stored-expiration lookup (``texp > τ``): an O(1) ``check()``
        against views that stay correct purely by expiration."""
        stamp = self.database.clock.now if at is None else ts(at)
        self._count_read()
        self._bring_current(stamp)
        texp = self._result.relation.expiration_or_none(values)
        return texp is not None and stamp < texp

    def _catch_up(self, stamp: Timestamp) -> None:
        """Insert the patches due by ``stamp`` (unless a refresh is pending)."""
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
