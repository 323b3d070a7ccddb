"""Evaluation of expiration-time algebra expressions.

:func:`evaluate` materialises an expression ``e`` at a time ``τ`` against a
catalog of base relations and returns an :class:`EvalResult` carrying:

* ``relation`` -- the materialised result, each tuple with its expiration
  time per the operator definitions of Sections 2.3-2.6;
* ``expiration`` -- the expression-level ``texp(e)``: a lower bound on the
  first time the materialisation stops agreeing with a recomputation
  (``∞`` for purely monotonic expressions, Theorem 1);
* ``validity`` -- the *exact* Schrödinger validity interval set ``I(e)``
  of Section 3.4: all times ``τ' ≥ τ`` at which ``exp_τ'(e materialised at
  τ)`` equals a fresh recomputation of ``e`` at ``τ'``.  It always contains
  ``[τ, texp(e))`` and is typically much larger -- e.g. a difference becomes
  valid again once its critical tuples have expired.

Per the paper's convention, every operator sees ``exp_τ`` of its arguments:
base relations are restricted to unexpired tuples at evaluation time, and
results therefore only contain tuples with ``texp > τ``.

Join evaluation uses a hash join on the equi-join pairs (falling back to a
filtered Cartesian product for general predicates); semantics are identical
to the paper's ``σexp_p'(R ×exp S)`` rewrite -- Equation (5) -- including
the min-of-parents expiration times.

Each operator builds its result as a plain ``row -> expiration`` dict and
adopts it (``Relation._from_trusted``): every output row is made from rows
a relation already holds, so the public :meth:`Relation.insert` checks
would re-validate what cannot be wrong.  Only projection and union can
produce a row twice; both merge with :func:`_max_merge`, the one place the
interpreter spells the max rule of Equations (3)-(4).  The interpreter is
the oracle the compiled evaluator and the view maintainers are checked
against, so it shares no merge code with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union as TypingUnion,
)

from repro.core.aggregates import (
    ExpirationStrategy,
    get_aggregate,
    mixed_type_error,
    strategy_head,
)
from repro.core.algebra.expressions import (
    Aggregate,
    AntiSemiJoin,
    BaseRef,
    Difference,
    Expression,
    Intersect,
    Join,
    Literal,
    Product,
    Project,
    Rename,
    Select,
    SemiJoin,
    Union,
)
from repro.core.intervals import Interval, IntervalSet
from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.timestamps import INFINITY, TimeLike, Timestamp, ts, ts_min
from repro.core.tuples import Row
from repro.errors import CatalogError, EvaluationError, RelationError, ViewError

__all__ = [
    "EvalResult",
    "EvalStats",
    "Evaluator",
    "HeldAnswer",
    "evaluate",
    "operator_label",
    "Catalog",
]

#: Anything that can resolve base-relation names for evaluation.
Catalog = TypingUnion[Mapping[str, Relation], Callable[[str], Relation]]


@dataclass
class EvalStats:
    """Operational counters accumulated during one evaluation.

    The benchmark harnesses read these to report work done (e.g. how many
    tuples a recomputation touches versus an incremental patch).  One bag
    describes one evaluation -- a snapshot by construction.  Cross-query
    aggregation lives in the metrics registry (``db.metrics``), which
    :meth:`repro.engine.database.Database.evaluate` flushes every bag
    into; hand-merging bags is deprecated.
    """

    tuples_scanned: int = 0
    tuples_emitted: int = 0
    partitions_built: int = 0
    hash_probes: int = 0
    operators_evaluated: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    columnar_batches: int = 0
    columnar_rows: int = 0
    lookup_probes: int = 0

    def __post_init__(self) -> None:
        #: Rows processed per columnar batch kernel (``scan_filter``,
        #: ``select_mask``, ``hash_join``, ...); kept off the dataclass
        #: fields so :meth:`as_dict` stays a flat int mapping.
        self.columnar_kernel_rows: Dict[str, int] = {}

    def note_columnar(self, kernel: str, rows: int) -> None:
        """Bill one batch-kernel invocation that processed ``rows`` rows."""
        self.columnar_batches += 1
        self.columnar_rows += rows
        per_kernel = self.columnar_kernel_rows
        per_kernel[kernel] = per_kernel.get(kernel, 0) + rows

    def as_dict(self) -> Dict[str, int]:
        """All counters by name (stable order for reporting)."""
        from dataclasses import fields

        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class EvalResult:
    """The outcome of materialising an expression at time ``τ``."""

    relation: Relation
    expiration: Timestamp
    validity: IntervalSet
    tau: Timestamp


class HeldAnswer:
    """An answer held at ``τ`` and the window it may be served in (§3.4).

    The one serve rule of Schrödinger semantics: a held answer is served at
    ``τ'`` iff nothing invalidated it since it was recorded (no pending
    *cause*) and ``τ'`` lies in the *window* its build recorded
    (:meth:`serves`).  Plan-cache entries, views and standing queries are
    held answers.

    Holders that move their state forward in time (``_forward_only``)
    refuse reads before the held ``τ``.  :meth:`_bring_current` is the one
    read protocol: that guard, then the :meth:`_catch_up` hook, then
    either count a serve (``_served()``) or ``_renew(τ, cause)`` -- rebuild
    and :meth:`hold` -- with the cause named: ``initial`` before the first
    build, the pending cause, else ``validity``.  At the very held ``τ``
    with nothing pending all three are already decided.  :meth:`read`
    serves ``_serve(τ)`` at the holder's ``clock``.
    """

    __slots__ = ("held_at", "window", "cause", "_since")

    _forward_only = False
    #: Changes a listener recorded for the catch-up hook to fold in; the
    #: hook resets it.
    _unfolded = 0

    def __init__(self, tau: Timestamp) -> None:
        self.held_at = tau
        self.window: Optional[IntervalSet] = None
        self.cause: Optional[str] = "initial"
        self._since: Optional[Timestamp] = None

    def hold(self, tau: Timestamp, window: IntervalSet) -> None:
        """Record an answer built at ``tau``, servable in ``window`` (which
        holds ``tau``: an answer is exact where it was built)."""
        self.held_at = tau
        self.window = window
        self.cause = None
        # One unbounded interval -- the common window -- is a tick compare.
        spans = window.intervals
        unbounded = len(spans) == 1 and spans[0].end.is_infinite
        self._since = spans[0].start if unbounded else None

    def invalidate(self, cause: str) -> None:
        """Name why the held answer may not be served; ``initial`` stays."""
        if self.cause != "initial":
            self.cause = cause

    def admits(self, tau: Timestamp) -> bool:
        """Whether a read at ``tau`` passes the forward-only guard."""
        return not (self._forward_only and tau < self.held_at)

    def serves(self, tau: Timestamp) -> bool:
        """The serve rule: no pending cause and ``tau`` inside the window."""
        if self.cause is not None:
            return False
        since = self._since
        if since is None:
            return self.window.contains(tau)
        return since <= tau < INFINITY

    def _bring_current(self, tau: Timestamp) -> Optional[str]:
        """Make the held answer servable at ``tau``: ``None`` when it was
        served as held, else the cause it was renewed for."""
        if tau is self.held_at and not self._unfolded and self.cause is None:
            # Decided at this very τ, nothing recorded or invalidated since
            # (and a build's window holds the τ it was built at).
            self._served()
            return None
        if not self.admits(tau):
            raise ViewError(
                f"{type(self).__name__} {self.name!r} cannot go back in "
                f"time: {tau} < last read {self.held_at}"
            )
        self._catch_up(tau)
        if self.serves(tau):
            self._served()
            self.held_at = tau
            return None
        cause = self.cause or "validity"
        self._renew(tau, cause)
        return cause

    def read(self, at: TimeLike = None):
        """The answer at ``at`` (default: now), by the one serve rule."""
        tau = self.clock.now if at is None else ts(at)
        self._bring_current(tau)
        return self._serve(tau)

    def _catch_up(self, tau: Timestamp) -> None:
        """Hook: fold recorded changes forward to ``tau``; may invalidate."""


def _max_merge(
    merged: Dict[Row, Timestamp], pairs: Iterable[Tuple[Row, Timestamp]]
) -> Dict[Row, Timestamp]:
    """Equations (3)-(4): a row produced twice keeps its later expiration."""
    get = merged.get
    for row, texp in pairs:
        held = get(row)
        if held is None or held < texp:
            merged[row] = texp
    return merged


def operator_label(expression: Expression) -> str:
    """The span / EXPLAIN ANALYZE label for one operator node."""
    name = type(expression).__name__
    if isinstance(expression, BaseRef):
        return f"{name}({expression.name})"
    return name


class Evaluator:
    """Evaluates expressions against a catalog at a fixed time ``τ``.

    ``trace``, when given, is an open :class:`~repro.obs.tracing.Span`;
    every operator evaluated hangs a child span off it with its inclusive
    wall time, rows emitted, and cumulative tuples scanned (the same
    span shape the compiled plan hangs off ``EXPLAIN ANALYZE``).
    """

    def __init__(self, catalog: Catalog, tau: TimeLike = 0, trace=None) -> None:
        self._lookup = self._make_lookup(catalog)
        self.tau = ts(tau)
        self.stats = EvalStats()
        self._trace = trace

    @staticmethod
    def _make_lookup(catalog: Catalog) -> Callable[[str], Relation]:
        if callable(catalog):
            return catalog

        def lookup(name: str) -> Relation:
            try:
                return catalog[name]
            except KeyError:
                raise CatalogError(f"unknown base relation {name!r}") from None

        return lookup

    def schema_resolver(self, name: str) -> Schema:
        """Resolve a base-relation name to its schema (for infer_schema)."""
        return self._lookup(name).schema

    # -- dispatch ------------------------------------------------------------

    def evaluate(self, expression: Expression) -> EvalResult:
        """Materialise ``expression`` at this evaluator's ``τ``."""
        self.stats.operators_evaluated += 1
        if self._trace is None:
            return self._dispatch(expression)
        parent = self._trace
        span = parent.child(operator_label(expression)).start()
        scanned_before = self.stats.tuples_scanned
        self._trace = span
        try:
            result = self._dispatch(expression)
        except BaseException as error:
            span.note(error=type(error).__name__)
            raise
        finally:
            span.finish()
            self._trace = parent
        span.note(
            rows=len(result.relation),
            tuples_scanned=self.stats.tuples_scanned - scanned_before,
        )
        return result

    def _dispatch(self, expression: Expression) -> EvalResult:
        if isinstance(expression, BaseRef):
            return self._eval_base(expression)
        if isinstance(expression, Literal):
            return self._eval_literal(expression)
        if isinstance(expression, Select):
            return self._eval_select(expression)
        if isinstance(expression, Project):
            return self._eval_project(expression)
        if isinstance(expression, Product):
            return self._eval_product(expression)
        if isinstance(expression, Union):
            return self._eval_union(expression)
        if isinstance(expression, Intersect):
            return self._eval_intersect(expression)
        if isinstance(expression, Join):
            return self._eval_join(expression)
        if isinstance(expression, SemiJoin):
            return self._eval_semijoin(expression)
        if isinstance(expression, AntiSemiJoin):
            return self._eval_antijoin(expression)
        if isinstance(expression, Rename):
            return self._eval_rename(expression)
        if isinstance(expression, Difference):
            return self._eval_difference(expression)
        if isinstance(expression, Aggregate):
            return self._eval_aggregate(expression)
        raise EvaluationError(f"unknown expression node {type(expression).__name__}")

    # -- leaves ----------------------------------------------------------------

    def _eval_base(self, node: BaseRef) -> EvalResult:
        relation = self._lookup(node.name)
        visible = relation.exp_at(self.tau)
        self.stats.tuples_scanned += len(relation)
        self.stats.tuples_emitted += len(visible)
        # texp of a base relation is ∞ (Section 2.3); its materialisation is
        # valid forever since tuples carry their own expirations.
        return EvalResult(visible, INFINITY, IntervalSet.from_onwards(self.tau), self.tau)

    def _eval_literal(self, node: Literal) -> EvalResult:
        visible = node.relation.exp_at(self.tau)
        self.stats.tuples_scanned += len(node.relation)
        self.stats.tuples_emitted += len(visible)
        return EvalResult(visible, INFINITY, IntervalSet.from_onwards(self.tau), self.tau)

    def _adopt(
        self,
        schema: Schema,
        tuples: Dict[Row, Timestamp],
        expiration: Timestamp,
        validity: IntervalSet,
    ) -> EvalResult:
        """An operator's result: the ``row -> texp`` dict it built, adopted."""
        self.stats.tuples_emitted += len(tuples)
        return EvalResult(
            Relation._from_trusted(schema, tuples), expiration, validity, self.tau
        )

    # -- monotonic operators ------------------------------------------------------

    def _eval_select(self, node: Select) -> EvalResult:
        child = self.evaluate(node.child)
        predicate = node.predicate.resolve(child.relation.schema)
        tuples = {
            row: texp for row, texp in child.relation.items() if predicate.matches(row)
        }
        self.stats.tuples_scanned += len(child.relation)
        return self._adopt(
            child.relation.schema, tuples, child.expiration, child.validity
        )

    def _eval_project(self, node: Project) -> EvalResult:
        child = self.evaluate(node.child)
        schema = child.relation.schema
        indexes = [schema.index(ref) for ref in node.refs]
        # Duplicate elimination keeps the maximum expiration time (Equation 3).
        tuples = _max_merge(
            {},
            (
                (tuple([row[i] for i in indexes]), texp)
                for row, texp in child.relation.items()
            ),
        )
        self.stats.tuples_scanned += len(child.relation)
        return self._adopt(
            schema.project(node.refs), tuples, child.expiration, child.validity
        )

    def _eval_product(self, node: Product) -> EvalResult:
        left = self.evaluate(node.left)
        right = self.evaluate(node.right)
        right_items = list(right.relation.items())
        # Equation (2): min of the participating tuples' lifetimes.  Distinct
        # pairs make distinct rows, so nothing merges.
        tuples = {
            left_row + right_row: left_texp if left_texp < right_texp else right_texp
            for left_row, left_texp in left.relation.items()
            for right_row, right_texp in right_items
        }
        self.stats.tuples_scanned += len(left.relation) * len(right_items)
        return self._adopt(
            left.relation.schema.concat(right.relation.schema),
            tuples,
            ts_min((left.expiration, right.expiration)),
            left.validity & right.validity,
        )

    def _eval_union(self, node: Union) -> EvalResult:
        left = self.evaluate(node.left)
        right = self.evaluate(node.right)
        left.relation.schema.check_union_compatible(right.relation.schema)
        # Equation (4): shared tuples get the max of the two expirations.
        tuples = _max_merge(dict(left.relation.items()), right.relation.items())
        self.stats.tuples_scanned += len(left.relation) + len(right.relation)
        return self._adopt(
            left.relation.schema,
            tuples,
            ts_min((left.expiration, right.expiration)),
            left.validity & right.validity,
        )

    def _eval_intersect(self, node: Intersect) -> EvalResult:
        left = self.evaluate(node.left)
        right = self.evaluate(node.right)
        left.relation.schema.check_union_compatible(right.relation.schema)
        tuples: Dict[Row, Timestamp] = {}
        for row, left_texp in left.relation.items():
            right_texp = right.relation.expiration_or_none(row)
            if right_texp is None:
                continue
            # Equation (6): the minimum of the participating expirations
            # (created in the inner Cartesian product of the derivation).
            tuples[row] = left_texp if left_texp < right_texp else right_texp
        self.stats.tuples_scanned += len(left.relation)
        return self._adopt(
            left.relation.schema,
            tuples,
            ts_min((left.expiration, right.expiration)),
            left.validity & right.validity,
        )

    def _eval_join(self, node: Join) -> EvalResult:
        left = self.evaluate(node.left)
        right = self.evaluate(node.right)
        left_schema = left.relation.schema
        right_schema = right.relation.schema
        schema = left_schema.concat(right_schema)

        residual = None
        if node.predicate is not None:
            residual = node.predicate.resolve(schema)

        # Distinct pairs make distinct rows: nothing merges.
        tuples: Dict[Row, Timestamp] = {}
        if node.on:
            left_keys = [left_schema.index(ref) for ref, _ in node.on]
            right_keys = [right_schema.index(ref) for _, ref in node.on]
            buckets: Dict[Tuple, List[Tuple[Row, Timestamp]]] = {}
            for row, texp in right.relation.items():
                buckets.setdefault(tuple([row[i] for i in right_keys]), []).append(
                    (row, texp)
                )
            probes = 0
            for left_row, left_texp in left.relation.items():
                matches = buckets.get(tuple([left_row[i] for i in left_keys]))
                if not matches:
                    continue
                probes += len(matches)
                for right_row, right_texp in matches:
                    combined = left_row + right_row
                    if residual is not None and not residual.matches(combined):
                        continue
                    tuples[combined] = left_texp if left_texp < right_texp else right_texp
            self.stats.tuples_scanned += len(right.relation) + len(left.relation)
            self.stats.hash_probes += probes
        else:
            right_items = list(right.relation.items())
            for left_row, left_texp in left.relation.items():
                for right_row, right_texp in right_items:
                    combined = left_row + right_row
                    if residual is not None and not residual.matches(combined):
                        continue
                    tuples[combined] = left_texp if left_texp < right_texp else right_texp
            self.stats.tuples_scanned += len(left.relation) * len(right_items)

        return self._adopt(
            schema,
            tuples,
            ts_min((left.expiration, right.expiration)),
            left.validity & right.validity,
        )

    def _match_buckets(self, relation: Relation, key_indexes) -> Dict[Tuple, List[Timestamp]]:
        """Key -> expiration times of the matching tuples (for ⋉ / ▷)."""
        buckets: Dict[Tuple, List[Timestamp]] = {}
        for row, texp in relation.items():
            buckets.setdefault(tuple([row[i] for i in key_indexes]), []).append(texp)
        self.stats.tuples_scanned += len(relation)
        return buckets

    def _eval_semijoin(self, node: SemiJoin) -> EvalResult:
        left = self.evaluate(node.left)
        right = self.evaluate(node.right)
        left_schema = left.relation.schema
        right_schema = right.relation.schema
        left_keys = [left_schema.index(ref) for ref, _ in node.on]
        right_keys = [right_schema.index(ref) for _, ref in node.on]
        buckets = self._match_buckets(right.relation, right_keys)
        tuples: Dict[Row, Timestamp] = {}
        for row, texp in left.relation.items():
            matches = buckets.get(tuple([row[i] for i in left_keys]))
            if not matches:
                continue
            # π over the join's minima: min(texp_r, max over matches).
            best_match = matches[0]
            for candidate in matches[1:]:
                if best_match < candidate:
                    best_match = candidate
            tuples[row] = texp if texp < best_match else best_match
        self.stats.tuples_scanned += len(left.relation)
        return self._adopt(
            left_schema,
            tuples,
            ts_min((left.expiration, right.expiration)),
            left.validity & right.validity,
        )

    def _eval_antijoin(self, node: AntiSemiJoin) -> EvalResult:
        left = self.evaluate(node.left)
        right = self.evaluate(node.right)
        left_schema = left.relation.schema
        right_schema = right.relation.schema
        left_keys = [left_schema.index(ref) for ref, _ in node.on]
        right_keys = [right_schema.index(ref) for _, ref in node.on]
        buckets = self._match_buckets(right.relation, right_keys)
        tuples: Dict[Row, Timestamp] = {}
        reappear_bound = INFINITY
        invalid = IntervalSet.empty()
        for row, texp in left.relation.items():
            matches = buckets.get(tuple([row[i] for i in left_keys]))
            if not matches:
                tuples[row] = texp
                continue
            # The tuple is hidden while any match lives; it must re-appear
            # when the whole match set is gone, if it is still alive then.
            match_set_dies = matches[0]
            for candidate in matches[1:]:
                if match_set_dies < candidate:
                    match_set_dies = candidate
            if match_set_dies < texp:
                if match_set_dies < reappear_bound:
                    reappear_bound = match_set_dies
                invalid = invalid | IntervalSet.single(match_set_dies, texp)
        self.stats.tuples_scanned += len(left.relation)
        expiration = ts_min((left.expiration, right.expiration, reappear_bound))
        validity = (
            (IntervalSet.from_onwards(self.tau) - invalid)
            & left.validity
            & right.validity
        )
        return self._adopt(left_schema, tuples, expiration, validity)

    def _eval_rename(self, node: Rename) -> EvalResult:
        child = self.evaluate(node.child)
        tuples = dict(child.relation.items())
        self.stats.tuples_scanned += len(tuples)
        return self._adopt(
            child.relation.schema.rename(node.mapping),
            tuples,
            child.expiration,
            child.validity,
        )

    # -- non-monotonic operators -----------------------------------------------------

    def _eval_difference(self, node: Difference) -> EvalResult:
        left = self.evaluate(node.left)
        right = self.evaluate(node.right)
        left.relation.schema.check_union_compatible(right.relation.schema)

        # Equation (10) for the tuples; Equation (11) for texp(e); the exact
        # per-critical-tuple invalidity union for I(e) (each critical tuple t
        # makes the materialisation wrong on [texp_S(t), texp_R(t)) -- it
        # should re-appear when its S match expires and vanish again when it
        # expires in R itself).
        tuples: Dict[Row, Timestamp] = {}
        reappear_bound = INFINITY
        invalid = IntervalSet.empty()
        for row, left_texp in left.relation.items():
            right_texp = right.relation.expiration_or_none(row)
            if right_texp is None:
                tuples[row] = left_texp
            elif right_texp < left_texp:
                # Table 2 case (3a): t should re-appear at texp_S(t).
                if right_texp < reappear_bound:
                    reappear_bound = right_texp
                invalid = invalid | IntervalSet.single(right_texp, left_texp)
        self.stats.tuples_scanned += len(left.relation)

        expiration = ts_min((left.expiration, right.expiration, reappear_bound))
        validity = (
            (IntervalSet.from_onwards(self.tau) - invalid)
            & left.validity
            & right.validity
        )
        return self._adopt(left.relation.schema, tuples, expiration, validity)

    def _eval_aggregate(self, node: Aggregate) -> EvalResult:
        child = self.evaluate(node.child)
        schema = child.relation.schema
        function = get_aggregate(node.spec.function_name)
        group_indexes = [schema.index(ref) for ref in node.group_by]
        value_index = (
            schema.index(node.spec.attribute) if node.spec.attribute is not None else None
        )

        # Equation (7): stable partitioning by tuple-wise equality on the
        # grouping attributes (the only kind the paper permits).
        partitions: Dict[Tuple, List[Tuple[Row, Timestamp]]] = {}
        for row, texp in child.relation.items():
            key = tuple([row[i] for i in group_indexes])
            partitions.setdefault(key, []).append((row, texp))
        self.stats.tuples_scanned += len(child.relation)
        self.stats.partitions_built += len(partitions)

        # A partition's rows, each extended by its value, are distinct.
        tuples: Dict[Row, Timestamp] = {}
        expression_bound = child.expiration
        invalid = IntervalSet.empty()

        for members in partitions.values():
            items = [
                (row[value_index] if value_index is not None else None, texp)
                for row, texp in members
            ]
            try:
                # ``apply`` stays the oracle of the value the head reads.
                value = function.apply([v for v, _ in items])
                _, partition_expiration, invalidation, dies_at = strategy_head(
                    items, function, self.tau, node.strategy
                )
            except TypeError:
                raise mixed_type_error(function, items) from None
            if invalidation < expression_bound:
                expression_bound = invalidation
            try:
                for row, texp in members:
                    # Result tuples never outlive their own source row;
                    # combined with the max-of-duplicates projection rule
                    # this recovers exactly the strategy expiration at the
                    # group level.
                    tuples[row + (value,)] = (
                        texp if texp < partition_expiration else partition_expiration
                    )
            except TypeError:
                raise RelationError(
                    f"tuple values must be hashable: {row + (value,)!r}"
                ) from None
            if partition_expiration < dies_at:
                # The recomputation keeps each row (with some aggregate
                # value) until texp_R(r); the materialisation loses it at
                # the partition expiration -- invalid in between.  The
                # longest-lived row's gap covers every other row's.
                invalid = invalid | IntervalSet.single(
                    partition_expiration, dies_at
                )
        validity = (IntervalSet.from_onwards(self.tau) - invalid) & child.validity
        return self._adopt(
            schema.extend(node.spec.default_output_name(schema)),
            tuples,
            expression_bound,
            validity,
        )


def evaluate(
    expression: Expression,
    catalog: Catalog,
    tau: TimeLike = 0,
) -> EvalResult:
    """Materialise ``expression`` against ``catalog`` at time ``tau``.

    One-shot use of the row-at-a-time reference :class:`Evaluator`;
    :func:`~repro.core.algebra.compiler.evaluate_compiled` is the compiled
    counterpart and produces identical results.  There is no plan/result
    caching at this level (use a database or a
    :class:`~repro.core.algebra.plan_cache.PlanCache` for that).

    >>> from repro.core.relation import relation_from_rows
    >>> from repro.core.algebra.expressions import BaseRef
    >>> pol = relation_from_rows(["uid", "deg"],
    ...                          [((1, 25), 10), ((2, 25), 15), ((3, 35), 10)])
    >>> result = evaluate(BaseRef("Pol").project(2), {"Pol": pol}, tau=0)
    >>> sorted(result.relation.rows())
    [(25,), (35,)]
    >>> result.relation.expiration_of((25,))
    Timestamp(15)
    """
    return Evaluator(catalog, tau).evaluate(expression)
