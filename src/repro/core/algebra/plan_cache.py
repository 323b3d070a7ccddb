"""A validity-aware cache of compiled plans and their evaluation results.

The paper's Section 3.4 machinery makes result caching *sound without
invalidation messages*: an :class:`~repro.core.algebra.evaluator.EvalResult`
carries the exact Schrödinger interval set ``I(e)`` -- every time ``τ' ≥ τ``
at which the materialisation, restricted to unexpired tuples, equals a fresh
recomputation.  Each entry is a
:class:`~repro.core.algebra.evaluator.HeldAnswer` whose window is ``I(e)``,
so the one serve rule the views and standing queries follow decides a hit
at ``τ'`` -- expiration-driven drift is fully captured by the interval
set, so no clock-based invalidation is ever needed -- behind the cache's
own guard: the catalog has not been mutated since the result was computed,
as ``I(e)`` only predicts the future of the *data the evaluation saw*.
Unpredictable changes (inserts, deletes, renewals, DDL) are detected with a
single integer version check, bumped by the engine on every such mutation
and **not** on physical expiration processing (expiry is exactly what
``I(e)`` already accounts for -- the entire point of the cache).

A hit at ``τ'`` is served as ``exp_τ'(cached)`` with validity
``I(e) ∩ [τ', ∞)``, which is itself a correct :class:`EvalResult` for an
evaluation at ``τ'`` because ``exp_τ'' ∘ exp_τ' = exp_τ''`` for ``τ'' ≥ τ'``.

Compiled plans are cached separately from results: a plan survives data
mutations (it is keyed on schemas only) and is invalidated by a *schema*
version, so steady-state evaluation after an insert pays re-execution but
not re-compilation.  Nor is a plan keyed on the expression's constants:
it is compiled once per :func:`~repro.core.algebra.compiler.template_of`
template (the expression with its int, float and str constants made
slots, typed) and bound to each expression's constants, so ``k = 1`` and
``k = 2`` share one compilation while their results and held answers
stay apart, keyed on the literal expression.  The templates hold one
generation of the schema version, at most :data:`TEMPLATE_CAPACITY`.

Bookkeeping lives in the metrics registry (``repro_plan_cache_*`` /
``repro_compiler_*`` families); :attr:`PlanCache.stats` is a frozen
snapshot view over it, so the cache keeps no counter state of its own and
``EXPLAIN``, the benchmarks, and ``db.metrics`` all read the same numbers.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.core.algebra.compiler import CompiledPlan, compile_expression, template_of
from repro.core.algebra.evaluator import Catalog, EvalResult, EvalStats, HeldAnswer
from repro.core.algebra.expressions import Expression, SchemaResolver
from repro.core.intervals import IntervalSet
from repro.core.timestamps import INFINITY, TimeLike, Timestamp, ts
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Span

__all__ = ["PlanCache", "PlanCacheStats", "TEMPLATE_CAPACITY"]

#: Compiled templates kept, least recently used dropped first.  A constant,
#: like the statement cache's bound: a template is one compiled plan, and a
#: workload has a few dozen shapes.
TEMPLATE_CAPACITY = 256


@dataclass(frozen=True)
class PlanCacheStats:
    """A frozen snapshot of the cache's registry-backed counters."""

    hits: int = 0
    misses: int = 0
    compilations: int = 0
    evictions: int = 0
    validity_served: int = 0
    entries: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Entry(HeldAnswer):
    """A compiled plan and its last result, held on the result's ``I(e)``."""

    __slots__ = ("plan", "schema_version", "result", "result_version")

    def __init__(self, plan: CompiledPlan, schema_version: int) -> None:
        super().__init__(INFINITY)
        self.plan = plan
        self.schema_version = schema_version
        self.result: Optional[EvalResult] = None
        self.result_version: int = -1

    def answers(self, tau, version, schema_version, floor) -> bool:
        """The guards of :meth:`PlanCache.evaluate`, then the serve rule
        (``I(e)`` starts at the result's ``τ``: no earlier ``tau`` hits)."""
        return (
            self.result_version == version
            and self.schema_version == schema_version
            and (floor is None or floor <= tau)
            and self.serves(tau)
        )


class PlanCache:
    """LRU cache: expression → (compiled plan, last result + validity).

    >>> from repro.core.relation import relation_from_rows
    >>> from repro.core.algebra.expressions import BaseRef
    >>> from repro.core.algebra.predicates import col
    >>> pol = relation_from_rows(["uid", "deg"], [((1, 25), 10), ((2, 35), 20)])
    >>> catalog = {"Pol": pol}
    >>> cache = PlanCache()
    >>> expr = BaseRef("Pol").select(col(2) == 25)
    >>> first = cache.evaluate(expr, catalog, tau=0, version=0)
    >>> again = cache.evaluate(expr, catalog, tau=3, version=0)  # τ' ∈ I(e)
    >>> cache.stats.hits, cache.stats.misses
    (1, 1)
    >>> sorted(again.relation.rows())
    [(1, 25)]
    """

    def __init__(self, capacity: int = 128, registry: Optional[MetricsRegistry] = None) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.registry = registry if registry is not None else MetricsRegistry()
        self._entries: "OrderedDict[Expression, _Entry]" = OrderedDict()
        self._templates: "OrderedDict[Expression, CompiledPlan]" = OrderedDict()
        self._templates_version = -1
        reg = self.registry
        self._hits = reg.counter(
            "repro_plan_cache_hits_total",
            "Evaluations served from a cached result (τ' inside I(e)).")
        self._misses = reg.counter(
            "repro_plan_cache_misses_total",
            "Evaluations that had to execute the plan.")
        self._compilations = reg.counter(
            "repro_plan_cache_compilations_total",
            "Expression compilations (plan-cache misses without a plan "
            "whose template is not compiled yet).")
        self._evictions = reg.counter(
            "repro_plan_cache_evictions_total", "LRU evictions.")
        self._validity_served = reg.counter(
            "repro_plan_cache_validity_served_total",
            "Cache hits at a strictly later τ' than the cached evaluation "
            "-- served purely by the validity interval set.")
        self._entries_gauge = reg.gauge(
            "repro_plan_cache_entries", "Plans currently cached.")
        self._fused = reg.counter(
            "repro_compiler_operators_fused_total",
            "Operators compiled into fused streaming stages.")
        self._materialised = reg.counter(
            "repro_compiler_operators_materialised_total",
            "Operators compiled as materialising (pipeline-breaking) stages.")

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def stats(self) -> PlanCacheStats:
        """A frozen :class:`PlanCacheStats` snapshot from the registry."""
        return PlanCacheStats(
            hits=self._hits.value,
            misses=self._misses.value,
            compilations=self._compilations.value,
            evictions=self._evictions.value,
            validity_served=self._validity_served.value,
            entries=len(self._entries),
        )

    def clear(self) -> None:
        """Drop every cached plan and result."""
        self._entries.clear()
        self._templates.clear()
        self._entries_gauge.set(0)

    def entries(self):
        """``(expression, entry)`` pairs, for read-only auditing.

        The invariant checker walks these to compare each still-servable
        cached result against an uncached evaluation; entries must not be
        mutated (and iteration must not touch the LRU order, so this
        returns a plain list snapshot).
        """
        return list(self._entries.items())

    # -- the cache protocol --------------------------------------------------

    def evaluate(
        self,
        expression: Expression,
        catalog: Catalog,
        tau: TimeLike,
        version: int = 0,
        schema_version: int = 0,
        floor: Optional[Timestamp] = None,
        stats: Optional[EvalStats] = None,
        resolver: Optional[SchemaResolver] = None,
        trace: Optional[Span] = None,
        cached: bool = True,
    ) -> EvalResult:
        """Evaluate ``expression`` at ``tau``, serving from cache when sound.

        The keywords mirror :meth:`repro.engine.database.Database.evaluate`
        (the canonical evaluation surface): ``cached`` (default ``True``)
        permits serving a prior result when it is provably still valid;
        ``cached=False`` (``EXPLAIN ANALYZE``, differential testing)
        forces a real execution -- reusing the compiled plan but never a
        cached result, and without touching the hit/miss counters.

        ``version`` is the engine's catalog (data) version; ``schema_version``
        gates reuse of the compiled plan itself -- and with it the physical
        design, since a table's shard count and layout are fixed at
        ``CREATE TABLE`` and every create or drop bumps it.  ``floor`` (typically the
        database clock's *now*) rejects hits for past-time queries: a cached
        result restricted to a past ``τ'`` can be more complete than a fresh
        evaluation against an eagerly-purged store, so hits are only served
        at or after the time the engine has physically advanced to.

        ``trace`` hangs per-operator spans off the given span during plan
        execution.
        """
        tau = ts(tau)
        eval_stats = stats if stats is not None else EvalStats()
        entry = self._entries.get(expression)
        if (
            cached
            and entry is not None
            and entry.answers(tau, version, schema_version, floor)
        ):
            held = entry.result
            self._hits.inc()
            if held.tau < tau:
                self._validity_served.inc()
            eval_stats.cache_hits += 1
            if trace is not None:
                trace.child("cache_hit").note(cached_tau=held.tau, served_at=tau)
            self._entries.move_to_end(expression)
            return EvalResult(
                relation=held.relation.exp_at(tau),
                expiration=held.expiration,
                validity=held.validity & IntervalSet.from_onwards(tau),
                tau=tau,
            )
        if entry is not None and entry.schema_version != schema_version:
            entry = None  # DDL invalidated the plan itself

        if cached:
            self._misses.inc()
            eval_stats.cache_misses += 1
        if entry is None:
            template, constants = template_of(expression)
            plan = self._template_plan(template, catalog, schema_version, resolver, trace)
            entry = _Entry(plan.bind(expression, constants), schema_version)
            self._entries[expression] = entry
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions.inc()
        result = entry.plan.execute(catalog, tau, eval_stats, trace=trace)
        entry.result = result
        entry.result_version = version
        entry.hold(tau, result.validity)
        self._entries.move_to_end(expression)
        self._entries_gauge.set(len(self._entries))
        return result

    def _template_plan(self, template, catalog, schema_version, resolver, trace) -> CompiledPlan:
        """The plan compiled for ``template`` under ``schema_version``."""
        if schema_version != self._templates_version:
            self._templates.clear()
            self._templates_version = schema_version
        plan = self._templates.get(template)
        if plan is not None:
            self._templates.move_to_end(template)
            return plan
        compile_span = trace.child("compile").start() if trace is not None else None
        plan = compile_expression(
            template, resolver if resolver is not None else _catalog_resolver(catalog)
        )
        if compile_span is not None:
            compile_span.finish().note(
                fused=plan.fused_operators,
                materialised=plan.materialised_operators,
            )
        self._compilations.inc()
        self._fused.inc(plan.fused_operators)
        self._materialised.inc(plan.materialised_operators)
        self._templates[template] = plan
        if len(self._templates) > TEMPLATE_CAPACITY:
            self._templates.popitem(last=False)
        return plan


def _catalog_resolver(catalog: Catalog) -> SchemaResolver:
    if callable(catalog):
        return lambda name: catalog(name).schema
    return lambda name: catalog[name].schema
