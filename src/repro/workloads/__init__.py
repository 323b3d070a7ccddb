"""The two application stores built on the engine.

``authz`` is expiring authorization (grants, tokens, lockouts, an audit
trail); ``streaming`` is continuous queries over expiring streams.
"""

from repro.workloads.authz import (
    AUDIT_SCHEMA,
    GRANT_SCHEMA,
    LOCKOUT_SCHEMA,
    TOKEN_SCHEMA,
    AuthzStore,
    declare_authz_families,
)
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

__all__ = [
    "AUDIT_SCHEMA",
    "GRANT_SCHEMA",
    "LOCKOUT_SCHEMA",
    "TOKEN_SCHEMA",
    "AuthzStore",
    "declare_authz_families",
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
]
