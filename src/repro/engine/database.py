"""The expiration-enabled database: catalog, clock, views, SQL entry point.

:class:`Database` ties the engine together:

* a catalog of :class:`~repro.engine.table.Table` objects sharing one
  :class:`~repro.engine.clock.LogicalClock`;
* materialised views with the Section-3 maintenance policies;
* expiration processing driven by clock advances (eager tables) or
  explicit vacuuming (lazy tables);
* algebra evaluation and a SQL front door (:func:`repro.sql.execute_sql`,
  or a :meth:`Database.session`).

Time never passes implicitly: call :meth:`advance_to` / :meth:`tick`.
This determinism is what lets the test suite state the paper's theorems as
exact assertions.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.core.algebra.evaluator import EvalResult, EvalStats
from repro.core.algebra.expressions import BaseRef, Expression
from repro.core.algebra.plan_cache import PlanCache
from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.timestamps import TimeLike, Timestamp, ts
from repro.engine.clock import LogicalClock
from repro.engine.config import DatabaseConfig
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.maintenance import IncrementalView, supports_incremental
from repro.engine.statement_cache import StatementCache
from repro.engine.statistics import EngineStatistics
from repro.engine.table import Table, declare_expiration_families
from repro.engine.transactions import Transaction
from repro.engine.views import MaintenancePolicy, MaterialisedView
from repro.engine.wal import WriteAheadLog
from repro.errors import CatalogError, ViewError, WalError
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Span, Tracer

#: EvalStats field -> (counter family, help); flushed after every
#: evaluation under the ``engine`` label.
EVAL_COUNTERS: Dict[str, tuple] = {
    "tuples_scanned": (
        "repro_eval_tuples_scanned_total", "Tuples read by operators."),
    "tuples_emitted": (
        "repro_eval_tuples_emitted_total", "Tuples produced by operators."),
    "partitions_built": (
        "repro_eval_partitions_built_total",
        "Aggregate/hash partitions materialised."),
    "hash_probes": (
        "repro_eval_hash_probes_total", "Hash-join probe operations."),
    "operators_evaluated": (
        "repro_eval_operators_total", "Operator nodes evaluated."),
    "columnar_batches": (
        "repro_columnar_batches_total", "Columnar batch-kernel invocations."),
    "columnar_rows": (
        "repro_columnar_rows_total", "Rows processed by columnar kernels."),
    "lookup_probes": (
        "repro_eval_lookup_probes_total",
        "Selections answered from a column lookup instead of a scan."),
}

__all__ = ["Database", "DatabaseConfig"]

#: The one value the ``repro_eval_*{engine}`` families carry: a database
#: evaluates through the compiled path only (the label predates that and
#: dashboards key on it).
_ENGINE_LABEL = "compiled"

#: Sentinel distinguishing "keyword not passed" from an explicit value, so
#: the legacy keywords can override ``config`` fields only when given.
_UNSET: Any = object()


class Database:
    """An in-memory, expiration-time-enabled relational database.

    >>> db = Database()
    >>> pol = db.create_table("Pol", ["uid", "deg"])
    >>> _ = pol.insert((1, 25), expires_at=10)
    >>> _ = pol.insert((3, 35), expires_at=10)
    >>> _ = pol.insert((2, 25), expires_at=15)
    >>> sorted(db.evaluate(db.table_expr("Pol").project(2)).relation.rows())
    [(25,), (35,)]
    >>> _ = db.advance_to(10)
    >>> sorted(db.evaluate(db.table_expr("Pol").project(2)).relation.rows())
    [(25,)]
    """

    def __init__(
        self,
        start_time: TimeLike = _UNSET,
        default_removal_policy: RemovalPolicy = _UNSET,
        plan_cache_capacity: int = _UNSET,
        metrics: Optional[MetricsRegistry] = None,
        check_invariants: bool = _UNSET,
        wal_dir: Optional[Union[str, Path]] = _UNSET,
        wal_fsync: str = _UNSET,
        config: Optional[DatabaseConfig] = None,
    ) -> None:
        # One canonical configuration surface (DatabaseConfig); the
        # individual keywords remain as shims and, when explicitly passed,
        # override the corresponding config field.
        if config is None:
            config = DatabaseConfig()
        overrides = {
            name: value
            for name, value in (
                ("start_time", start_time),
                ("default_removal_policy", default_removal_policy),
                ("plan_cache_capacity", plan_cache_capacity),
                ("check_invariants", check_invariants),
                ("wal_dir", wal_dir),
                ("wal_fsync", wal_fsync),
            )
            if value is not _UNSET
        }
        if overrides:
            config = config.replace(**overrides)
        #: The resolved construction-time configuration.
        self.config = config
        start_time = config.start_time
        default_removal_policy = config.default_removal_policy
        plan_cache_capacity = config.plan_cache_capacity
        check_invariants = config.check_invariants
        wal_dir = config.wal_dir
        wal_fsync = config.wal_fsync
        self.clock = LogicalClock(start_time)
        #: The single source of truth for every counter in the system.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Off by default; ``EXPLAIN ANALYZE`` / ``evaluate(trace=True)``
        #: trace single queries without enabling it globally.
        self.tracer = Tracer(enabled=False)
        self.statistics = EngineStatistics(registry=self.metrics)
        self.default_removal_policy = default_removal_policy
        self.plan_cache = PlanCache(plan_cache_capacity, registry=self.metrics)
        #: SQL text -> (AST, planned expression) for repeated queries, in
        #: front of the plan cache (see :mod:`repro.engine.statement_cache`).
        self.statement_cache = StatementCache(registry=self.metrics)
        self.last_eval_stats = EvalStats()
        self._eval_counters = {
            fld: self.metrics.counter(name, help_text, labels=("engine",))
            for fld, (name, help_text) in EVAL_COUNTERS.items()
        }
        self._eval_queries = self.metrics.counter(
            "repro_eval_queries_total", "Expressions evaluated.",
            labels=("engine",))
        self._columnar_kernel_rows = self.metrics.counter(
            "repro_columnar_kernel_rows_total",
            "Rows processed per columnar batch kernel.",
            labels=("kernel",))
        self._eval_seconds = self.metrics.histogram(
            "repro_eval_seconds", "Wall time per evaluation.",
            labels=("engine",))
        # Expiration families are declared up front so a prom dump covers
        # them even before the first sweep publishes into them.
        declare_expiration_families(self.metrics)
        self._tables: Dict[str, Table] = {}
        self._views: Dict[str, MaterialisedView] = {}
        self._closed = False
        # Data version: bumped on every unpredictable mutation (insert,
        # delete, renewal, DDL).  Physical expiration processing does NOT
        # bump it -- expiry is exactly what a result's I(e) already
        # predicts, which is what makes the plan cache effective.
        self._catalog_version = 0
        # Schema version: bumped on DDL only (tables and views); gates
        # reuse of compiled plans and of planned SQL statements.
        self._schema_version = 0
        #: Debug mode: audit every cross-structure invariant after each
        #: mutation and sweep (see :mod:`repro.check.invariants`).  Orders
        #: of magnitude slower -- for tests and fuzzing, not production.
        self.check_invariants = check_invariants
        # Re-entrancy latch: the audits themselves evaluate expressions,
        # which must not recursively trigger another audit.
        self._in_verify = False
        #: The write-ahead log (``None`` = no durability).  Every insert,
        #: delete, renewal, rollback, clock advance, and DDL statement is
        #: appended; view *content* is never logged (views re-materialise
        #: at recovery).  See :mod:`repro.engine.wal`.
        self.wal: Optional[WriteAheadLog] = None
        #: Set by :func:`repro.engine.recovery.recover_database`.
        self.last_recovery = None
        # Transaction id stamped onto physical records while a commit is
        # applying (recovery rolls unbracketed transactions back).
        self._wal_txn: Optional[int] = None
        if wal_dir is not None:
            directory = Path(wal_dir)
            snapshot = directory / WriteAheadLog.SNAPSHOT_NAME
            log = directory / WriteAheadLog.LOG_NAME
            if snapshot.exists() or (
                log.exists() and log.stat().st_size > 0
            ):
                raise WalError(
                    f"{directory} already holds durable state; recover it "
                    f"with repro.engine.recovery.recover_database() instead "
                    f"of opening a fresh Database on top of it"
                )
            self.wal = WriteAheadLog(
                directory, fsync=wal_fsync, registry=self.metrics
            )

    # -- catalog -----------------------------------------------------------

    def create_table(
        self,
        name: str,
        schema: Schema | Sequence[str],
        removal_policy: Optional[RemovalPolicy] = None,
        lazy_batch_size: int = 64,
        partitions: Optional[int] = None,
        partition_key: Optional[Any] = None,
        layout: str = "row",
        expiry: str = "absolute",
        default_ttl: Optional[int] = None,
    ) -> Table:
        """Create and register a table; returns it for convenience.

        ``partitions=N`` hash-partitions the table on ``partition_key``
        (default: the first column): each shard keeps its own storage,
        expiration index and due buffer, swept and scanned shard after
        shard on the calling thread.

        ``layout="columnar"`` stores the table as parallel per-attribute
        columns with a raw-int expiration array
        (:class:`~repro.core.columnar.ColumnarRelation`); compiled plans
        then run whole-column batch kernels over it.

        ``expiry="since_last_modification"`` (with a mandatory
        ``default_ttl``, the idle timeout) makes the table renewal-on-
        touch: inserts default to ``default_ttl`` and
        :meth:`~repro.engine.table.Table.touch` restarts a live row's
        timer, while on the default ``"absolute"`` policy touches are
        no-ops.  ``default_ttl`` alone just defaults otherwise-immortal
        inserts.
        """
        if name in self._tables or name in self._views:
            raise CatalogError(f"name {name!r} already in use")
        resolved = schema if isinstance(schema, Schema) else Schema(schema)
        if partition_key is not None and partitions is None:
            raise CatalogError(
                f"table {name!r}: partition_key given without partitions"
            )
        table = Table(
            name,
            resolved,
            clock=self.clock,
            statistics=self.statistics,
            removal_policy=removal_policy or self.default_removal_policy,
            lazy_batch_size=lazy_batch_size,
            database=self,
            layout=layout,
            expiry=expiry,
            default_ttl=default_ttl,
            partitions=partitions,
            partition_key=partition_key,
        )
        self._tables[name] = table
        self.clock.on_advance(table.on_clock_advance)
        self.note_schema_change()
        if self.wal is not None:
            from repro.engine.persistence import table_spec

            self._wal_append(
                "create_table", spec=table_spec(table, include_rows=False)
            )
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table; fails while views still reference it."""
        if name not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        dependents = [
            view.name
            for view in self._views.values()
            if name in view.expression.base_names()
        ]
        if dependents:
            raise CatalogError(
                f"table {name!r} still referenced by views {dependents!r}"
            )
        del self._tables[name]
        self.note_schema_change()
        self._wal_append("drop_table", name=name)

    def close(self) -> None:
        """Sync and close the WAL.

        Idempotent and safe to call from teardown paths that may race a
        prior close (e.g. the server closing a database once per
        connection-owner *and* once at shutdown): a second call is a
        no-op, and the WAL handle is only synced/closed while it is still
        live.  A closed database stays closed: reads keep working, WAL
        appends stay rejected (the log is closed for good).
        """
        if self._closed:
            return
        self._closed = True
        wal = self.wal
        if wal is not None and not wal.closed:
            wal.sync()
            wal.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def table(self, name: str) -> Table:
        """Look up a table by name; raises CatalogError if unknown."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def has_table(self, name: str) -> bool:
        """Whether a table with this name exists."""
        return name in self._tables

    def table_names(self) -> List[str]:
        """All table names, sorted."""
        return sorted(self._tables)

    def table_expr(self, name: str) -> BaseRef:
        """An algebra reference to a table (validates the name now)."""
        self.table(name)
        return BaseRef(name)

    # -- versioning --------------------------------------------------------

    @property
    def catalog_version(self) -> int:
        """Monotone counter of unpredictable data changes (not expirations)."""
        return self._catalog_version

    @property
    def schema_version(self) -> int:
        """Monotone counter of DDL changes; invalidates compiled plans."""
        return self._schema_version

    def note_data_change(self) -> None:
        """Record an unpredictable data mutation (insert/delete/renewal).

        Invalidates cached evaluation results; compiled plans survive.
        Expiration processing must *not* call this -- tuples dropping out at
        their ``texp`` is already encoded in every cached result's validity
        intervals.
        """
        self._catalog_version += 1

    def note_schema_change(self) -> None:
        """Record a DDL change; invalidates plans and results alike."""
        self._schema_version += 1
        self._catalog_version += 1

    # -- time -----------------------------------------------------------------

    @property
    def now(self) -> Timestamp:
        """The current logical time."""
        return self.clock.now

    def advance_to(self, time: TimeLike) -> Timestamp:
        """Advance the logical clock, processing expirations en route."""
        target = ts(time)
        # The clock record goes in *before* the advance so that replay
        # sees it before any record a ON-EXPIRE trigger writes during the
        # sweep.  Expirations themselves are never logged: replaying the
        # advance re-derives them through the expiration model.
        if self.wal is not None and target.is_finite and target > self.clock.now:
            self._wal_append("clock", now=target.value)
        stamp = self.clock.advance_to(target)
        self._maybe_verify()
        return stamp

    def tick(self, delta: int = 1) -> Timestamp:
        """Advance the clock by ``delta`` ticks."""
        if self.wal is not None and delta > 0:
            self._wal_append("clock", now=(self.clock.now + delta).value)
        stamp = self.clock.tick(delta)
        self._maybe_verify()
        return stamp

    # -- evaluation ---------------------------------------------------------------

    def catalog(self, name: str) -> Relation:
        """Catalog adapter for the evaluator (live base relations)."""
        return self.table(name).relation

    def schema_resolver(self, name: str) -> Schema:
        """Schema lookup for planners and expression type-checking."""
        return self.table(name).schema

    def evaluate(
        self,
        expression: Expression,
        at: TimeLike = None,
        trace: bool = False,
        cached: bool = True,
    ) -> EvalResult:
        """Materialise an expression at ``at`` (default: now).

        This is the canonical evaluation surface; the module-level
        :func:`repro.core.algebra.evaluate` and
        :meth:`~repro.core.algebra.plan_cache.PlanCache.evaluate` accept
        the same keywords with the same defaults.

        Evaluation runs the fused-pipeline compiled evaluator through the
        validity-aware plan cache; per-query counters land in
        :attr:`last_eval_stats` and are flushed into :attr:`metrics`.
        (The row-at-a-time reference interpreter,
        :class:`~repro.core.algebra.evaluator.Evaluator`, is constructed
        directly by the checkers that compare against it.)

        ``cached`` (default ``True``) allows serving a previously cached
        result when it is provably still valid (``τ' ∈ I(e)`` and the
        catalog unchanged); ``cached=False`` forces a real execution
        while still reusing the compiled plan.

        ``trace`` (default ``False``; or an enabled :attr:`tracer`)
        records a span tree for this evaluation -- per-operator wall time
        and tuple counts -- retrievable via :meth:`trace_last_query`.
        Tracing forces a real execution (no cached-result serving) so the
        spans describe actual operator work, without polluting the
        hit/miss counters.
        """
        stamp = self.clock.now if at is None else ts(at)
        tracing = trace or self.tracer.enabled
        span: Optional[Span] = None
        if tracing:
            span = self.tracer.root(
                "evaluate", engine=_ENGINE_LABEL, tau=stamp
            ).start()
        started = time.perf_counter()
        stats = EvalStats()
        try:
            result = self.plan_cache.evaluate(
                expression,
                self.catalog,
                stamp,
                version=self._catalog_version,
                schema_version=self._schema_version,
                floor=self.clock.now,
                stats=stats,
                resolver=self.schema_resolver,
                trace=span,
                cached=cached and not tracing,
            )
        finally:
            if span is not None:
                span.finish()
        elapsed = time.perf_counter() - started
        self._eval_queries.labels(_ENGINE_LABEL).inc()
        self._eval_seconds.labels(_ENGINE_LABEL).observe(elapsed)
        for fld, counter in self._eval_counters.items():
            value = getattr(stats, fld)
            if value:
                counter.labels(_ENGINE_LABEL).inc(value)
        for kernel, rows in stats.columnar_kernel_rows.items():
            self._columnar_kernel_rows.labels(kernel).inc(rows)
        if span is not None:
            span.note(
                rows=len(result.relation),
                tuples_scanned=stats.tuples_scanned,
            )
        self.last_eval_stats = stats
        return result

    def trace_last_query(self) -> Optional[Span]:
        """The span tree of the most recent traced evaluation (or None)."""
        return self.tracer.last

    # -- views ------------------------------------------------------------------------

    def materialise(
        self,
        name: str,
        expression: Expression,
        policy: Optional[MaintenancePolicy] = None,
        patch_limit: Optional[int] = None,
    ) -> MaterialisedView:
        """Create a named materialised view -- the only way one comes to exist.

        The expression's shape picks the class.  A monotonic base-linear
        expression (σ/π/⋈/∪/∩ naming each table once) needs no policy
        (Theorem 1) and gets the insert-folding
        :class:`~repro.engine.maintenance.IncrementalView`: base inserts
        are folded in as deltas at the next read, never recomputed.
        ``policy=MaintenancePolicy.DELTA`` asks for the same on the
        non-monotonic shapes that can fold (a difference of base-disjoint
        monotonic sides, an aggregate over a monotonic child, optionally
        under a projection keeping its grouping attributes) and raises
        :class:`~repro.errors.ViewError` on any other.  Everything else is
        a :class:`~repro.engine.views.MaterialisedView` under ``RECOMPUTE``,
        ``SCHRODINGER`` or ``PATCH``, which a base insert marks stale.

        An omitted ``policy`` is ``DELTA`` for a non-monotonic shape that
        folds and ``SCHRODINGER`` otherwise (a monotonic view folds under
        either, so the recorded policy of one stays what it always was).

        ``patch_limit`` (PATCH policy only) bounds the helper patch queue;
        shedding trades space for a finite guarantee horizon, past which
        reads raise :class:`~repro.errors.StaleViewError`.
        """
        if name in self._views or name in self._tables:
            raise CatalogError(f"name {name!r} already in use")
        for base in expression.base_names():
            self.table(base)  # validate references
        foldable = supports_incremental(expression)
        if policy is None:
            policy = (
                MaintenancePolicy.DELTA
                if foldable and not expression.is_monotonic()
                else MaintenancePolicy.SCHRODINGER
            )
        if policy is MaintenancePolicy.DELTA and not foldable:
            raise ViewError(
                f"view {name!r}: the DELTA policy needs a monotonic base-linear "
                f"expression, a difference of two with disjoint bases, or an "
                f"aggregate over one (under a projection keeping its groups)"
            )
        if foldable and (
            policy is MaintenancePolicy.DELTA or expression.is_monotonic()
        ):
            view = IncrementalView(name, expression, self, policy, patch_limit)
        else:
            view = MaterialisedView(name, expression, self, policy, patch_limit)
        self._views[name] = view
        # SQL planning inlines view definitions, so a view is part of what
        # a planned statement was resolved against, exactly like a table.
        self.note_schema_change()
        if self.wal is not None:
            from repro.engine.persistence import view_spec

            # Only the definition is logged; the view's content is
            # re-materialised from the base tables at recovery.
            self._wal_append("create_view", spec=view_spec(view))
        self._maybe_verify()
        return view

    def view(self, name: str) -> MaterialisedView:
        """Look up a materialised view by name."""
        try:
            return self._views[name]
        except KeyError:
            raise CatalogError(f"unknown view {name!r}") from None

    def has_view(self, name: str) -> bool:
        """Whether a view with this name exists."""
        return name in self._views

    def view_names(self) -> List[str]:
        """All view names, sorted."""
        return sorted(self._views)

    def drop_view(self, name: str) -> None:
        """Remove a materialised view (detaching its base-table listeners)."""
        if name not in self._views:
            raise CatalogError(f"unknown view {name!r}")
        self._views[name]._unsubscribe()
        del self._views[name]
        self.note_schema_change()
        self._wal_append("drop_view", name=name)

    # -- durability -------------------------------------------------------------------

    def _wal_append(self, kind: str, sync: bool = False, **fields: Any) -> None:
        """Append one WAL record (no-op without a log).

        Physical records written while a transaction commit is applying
        are stamped with the transaction id so recovery can tell an
        unbracketed (in-flight-at-crash) transaction's work apart.
        """
        if self.wal is None:
            return
        if self._wal_txn is not None and kind in ("upsert", "remove"):
            fields.setdefault("txn", self._wal_txn)
        self.wal.append(kind, sync=sync, **fields)

    def _attach_wal(self, wal: WriteAheadLog) -> None:
        """Adopt an already-recovered log for subsequent appends."""
        self.wal = wal

    def checkpoint(self) -> None:
        """Write an atomic snapshot and truncate the write-ahead log.

        The one bound on the log: after a checkpoint the snapshot alone
        reproduces the database, so the log restarts empty; recovery
        loads the snapshot and replays whatever accumulated since.  The
        snapshot holds the rows the tables still store, so a row swept
        before the checkpoint leaves nothing on disk -- no record, no
        tombstone.  If the snapshot cannot be written, the log is left as
        it was.
        """
        if self.wal is None:
            raise WalError("checkpoint() needs a write-ahead log (wal_dir=)")
        if self._wal_txn is not None:
            raise WalError("cannot checkpoint while a transaction is applying")
        from repro.engine.persistence import save_database

        self.wal.sync()
        save_database(self, self.wal.snapshot_path)
        self.wal.reset()

    # -- transactions -----------------------------------------------------------------

    def transaction(self) -> Transaction:
        """Begin a buffered transaction (see :class:`Transaction`)."""
        return Transaction(self)

    # -- sessions ----------------------------------------------------------------------

    def session(self):
        """A :class:`~repro.server.client.LocalSession` over this database.

        The in-process twin of connecting to a served database: the same
        ``execute()/query()/subscribe()`` surface, the same session
        semantics (monotone clock floor, data-version snapshots), no
        sockets.  The database stays owned by the caller -- closing the
        session does not close the database.
        """
        from repro.server.client import LocalSession

        return LocalSession(self, own_database=False)

    # -- maintenance -------------------------------------------------------------------

    def vacuum_all(self) -> int:
        """Vacuum every table; returns the number of tuples reclaimed."""
        reclaimed = sum(table.vacuum() for table in self._tables.values())
        self._maybe_verify()
        return reclaimed

    # -- invariant auditing ------------------------------------------------------------

    def verify(self, strict: bool = True, deep: bool = True):
        """Audit every cross-structure consistency invariant.

        Checks that relations, expiration indexes, due buffers, shard
        routing, materialised views, and plan-cache results all agree
        (the invariant catalogue lives in :mod:`repro.check.invariants`).
        ``deep=False`` skips the expensive re-evaluation checks (view
        freshness, plan-cache results) and audits structure only.

        Returns the list of violations; with ``strict=True`` (default) a
        non-empty list raises :class:`~repro.errors.InvariantViolation`
        instead, with every violation in the message.
        """
        from repro.check.invariants import run_invariants
        from repro.errors import InvariantViolation

        if self._in_verify:  # re-entrant call from an audit's own read
            return []
        self._in_verify = True
        try:
            violations = run_invariants(self, deep=deep)
        finally:
            self._in_verify = False
        if strict and violations:
            detail = "\n".join(f"  - {violation}" for violation in violations)
            raise InvariantViolation(
                f"{len(violations)} invariant violation(s) at τ={self.clock.now}:\n"
                f"{detail}"
            )
        return violations

    def _maybe_verify(self) -> None:
        """Debug-mode hook: audit after a mutation if ``check_invariants``."""
        if self.check_invariants and not self._in_verify:
            self.verify(strict=True)

    def total_live_tuples(self) -> int:
        """Unexpired tuples across all tables (the 'smaller databases' metric)."""
        return sum(len(table) for table in self._tables.values())

    def total_physical_tuples(self) -> int:
        """Stored tuples across all tables, including unreclaimed expired ones."""
        return sum(table.physical_size for table in self._tables.values())

    def __repr__(self) -> str:
        return (
            f"Database(now={self.clock.now}, tables={self.table_names()!r}, "
            f"views={self.view_names()!r})"
        )
