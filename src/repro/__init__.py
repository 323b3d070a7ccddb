"""repro -- a reproduction of "Expiration Times for Data Management" (ICDE 2006).

An expiration-time-enabled relational data model, algebra, in-memory engine
with materialised views, SQL front end, and a loosely-coupled distributed
simulator, faithful to Schmidt, Jensen & Šaltenis, ICDE 2006.

Quick start::

    from repro import Database, FOREVER

    db = Database()
    pol = db.create_table("Pol", ["uid", "deg"])
    pol.insert((1, 25), expires_at=10)
    pol.insert((2, 25), expires_at=15)
    pol.insert((3, 35), expires_at=10)

    view = db.materialise("interests", db.table_expr("Pol").project(2))
    db.advance_to(10)
    sorted(view.read().rows())   # [(25,)] -- tuples expired transparently

See ``DESIGN.md`` for the full system inventory and ``EXPERIMENTS.md`` for
the per-figure/table reproduction results.
"""

from repro.core import (
    FOREVER,
    INFINITY,
    ExpirationStrategy,
    ExpiringTuple,
    Interval,
    IntervalSet,
    PatchedDifference,
    QueryAnswerer,
    QueryPolicy,
    Relation,
    Schema,
    Timestamp,
    classify,
    is_monotonic,
    relation_from_rows,
    ts,
)
from repro.core.algebra import (
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
    col,
    evaluate,
    val,
)
from repro.engine import (
    Database,
    MaintenancePolicy,
    Table,
    load_database,
    save_database,
)
from repro.check import run_fuzz, run_invariants
from repro.engine.config import DatabaseConfig
from repro.obs import MetricsRegistry, Span, Tracer
from repro.server import ReproServer, Result, Session, Subscription, connect
from repro.sql import execute_sql, parse_sql

__version__ = "1.9.0"

__all__ = [
    "FOREVER",
    "INFINITY",
    "ExpirationStrategy",
    "ExpiringTuple",
    "Interval",
    "IntervalSet",
    "PatchedDifference",
    "QueryAnswerer",
    "QueryPolicy",
    "Relation",
    "Schema",
    "Timestamp",
    "classify",
    "is_monotonic",
    "relation_from_rows",
    "ts",
    "Aggregate",
    "AntiSemiJoin",
    "BaseRef",
    "Difference",
    "Expression",
    "Intersect",
    "Join",
    "Literal",
    "Product",
    "Project",
    "Rename",
    "Select",
    "SemiJoin",
    "Union",
    "col",
    "evaluate",
    "val",
    "Database",
    "DatabaseConfig",
    "MaintenancePolicy",
    "ReproServer",
    "Result",
    "Session",
    "Subscription",
    "Table",
    "connect",
    "load_database",
    "save_database",
    "run_fuzz",
    "run_invariants",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "execute_sql",
    "parse_sql",
    "__version__",
]
