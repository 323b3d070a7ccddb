"""Core data model and algebra of the expiration-time reproduction.

Everything from Section 2 and Section 3 of the paper lives here: the time
domain, relations with per-tuple expirations, the expiration-aware algebra
and its evaluator, the monotonicity classification, aggregation expiration
strategies, Schrödinger validity semantics, and difference patching.
"""

from repro.core.timestamps import FOREVER, INFINITY, Timestamp, ts, ts_max, ts_min
from repro.core.intervals import ALL_TIME, EMPTY_SET, Interval, IntervalSet
from repro.core.schema import Schema, anonymous_schema
from repro.core.tuples import ExpiringTuple, Row, make_row
from repro.core.relation import Relation, relation_from_rows
from repro.core.aggregates import (
    AggregateFunction,
    ExpirationStrategy,
    get_aggregate,
    known_aggregates,
    register_aggregate,
)
from repro.core.monotonicity import ExpressionClass, classify, is_monotonic
from repro.core.validity import (
    QueryAnswerer,
    QueryPolicy,
    difference_validity_exact,
    difference_validity_paper,
    recompute_equals_materialised,
    validity_oracle,
)
from repro.core.patching import (
    DifferencePatcher,
    Patch,
    PatchedDifference,
    compute_difference_with_patches,
)
from repro.core.approximate import (
    AbsoluteTolerance,
    EXACT_TOLERANCE,
    RelativeTolerance,
    Tolerance,
    approximate_expiration,
    approximate_validity,
)

__all__ = [
    "FOREVER",
    "INFINITY",
    "Timestamp",
    "ts",
    "ts_max",
    "ts_min",
    "ALL_TIME",
    "EMPTY_SET",
    "Interval",
    "IntervalSet",
    "Schema",
    "anonymous_schema",
    "ExpiringTuple",
    "Row",
    "make_row",
    "Relation",
    "relation_from_rows",
    "AggregateFunction",
    "ExpirationStrategy",
    "get_aggregate",
    "known_aggregates",
    "register_aggregate",
    "ExpressionClass",
    "classify",
    "is_monotonic",
    "QueryAnswerer",
    "QueryPolicy",
    "difference_validity_exact",
    "difference_validity_paper",
    "recompute_equals_materialised",
    "validity_oracle",
    "DifferencePatcher",
    "Patch",
    "PatchedDifference",
    "compute_difference_with_patches",
    "AbsoluteTolerance",
    "EXACT_TOLERANCE",
    "RelativeTolerance",
    "Tolerance",
    "approximate_expiration",
    "approximate_validity",
]
