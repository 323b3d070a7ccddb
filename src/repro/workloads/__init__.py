"""Workload generators for tests, examples, and benchmarks.

``news`` carries the paper's exact Figure 1 fixture; the other modules
implement the application domains the paper motivates (sessions, sensor
monitoring, expiring authorization, streams) plus generic seeded
generators.
"""

from repro.workloads.authz import (
    AUDIT_SCHEMA,
    GRANT_SCHEMA,
    LOCKOUT_SCHEMA,
    TOKEN_SCHEMA,
    AuthzStore,
    declare_authz_families,
)
from repro.workloads.generators import (
    ConstantLifetime,
    GeometricLifetime,
    LifetimeDistribution,
    UniformLifetime,
    ZipfLifetime,
    overlapping_relations,
    random_relation,
    random_stream,
)
from repro.workloads.news import (
    PROFILE_SCHEMA,
    NewsWorkload,
    figure1_database,
    figure1_el,
    figure1_pol,
)
from repro.workloads.sensors import READING_SCHEMA, SensorFleet
from repro.workloads.streaming import (
    CONNECTION_SCHEMA,
    EVENT_SCHEMA,
    DistinctCount,
    ExtentAggregate,
    ReservoirSample,
    StandingQuery,
    StreamStore,
    ThresholdWatch,
    WindowedCount,
    declare_streaming_families,
)
from repro.workloads.sessions import (
    SESSION_SCHEMA,
    SessionEvent,
    SessionStore,
    SessionWorkload,
)

__all__ = [
    "AUDIT_SCHEMA",
    "GRANT_SCHEMA",
    "LOCKOUT_SCHEMA",
    "TOKEN_SCHEMA",
    "AuthzStore",
    "declare_authz_families",
    "ConstantLifetime",
    "GeometricLifetime",
    "LifetimeDistribution",
    "UniformLifetime",
    "ZipfLifetime",
    "overlapping_relations",
    "random_relation",
    "random_stream",
    "PROFILE_SCHEMA",
    "NewsWorkload",
    "figure1_database",
    "figure1_el",
    "figure1_pol",
    "READING_SCHEMA",
    "SensorFleet",
    "CONNECTION_SCHEMA",
    "EVENT_SCHEMA",
    "DistinctCount",
    "ExtentAggregate",
    "ReservoirSample",
    "StandingQuery",
    "StreamStore",
    "ThresholdWatch",
    "WindowedCount",
    "declare_streaming_families",
    "SESSION_SCHEMA",
    "SessionEvent",
    "SessionStore",
    "SessionWorkload",
]
