"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
applications can catch a single base class.  The sub-hierarchy mirrors the
package layout: model-level errors (time, schema, relation), algebra errors,
engine errors, SQL front-end errors, and distributed-simulation errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class TimeError(ReproError):
    """An invalid timestamp, interval, or time arithmetic operation."""


class SchemaError(ReproError):
    """A schema mismatch: wrong arity, unknown attribute, bad type."""


class UnionCompatibilityError(SchemaError):
    """Arguments of a union-family operator are not union-compatible."""


class RelationError(ReproError):
    """An invalid relation-level operation (bad tuple, expired insert...)."""


class AlgebraError(ReproError):
    """An ill-formed algebra expression (bad attribute index, predicate...)."""


class PredicateError(AlgebraError):
    """An ill-formed selection or join predicate."""


class AggregateError(AlgebraError):
    """An unknown or misapplied aggregate function."""


class EvaluationError(ReproError):
    """Evaluation of an algebra expression failed."""


class EngineError(ReproError):
    """Engine-level failure (catalog, storage, clock...)."""


class CatalogError(EngineError):
    """Unknown or duplicate table/view name in the database catalog."""


class ClockError(EngineError):
    """Attempt to move a logical clock backwards."""


class InvariantViolation(EngineError):
    """A cross-structure consistency invariant does not hold.

    Raised by :meth:`repro.engine.database.Database.verify` (and by the
    ``check_invariants=True`` debug mode after every mutation) when the
    audits in :mod:`repro.check.invariants` find state desync between a
    relation, its expiration index, due buffers, shard routing,
    materialised views, or the plan cache.
    """


class ViewError(EngineError):
    """Materialised-view maintenance failure."""


class StaleViewError(ViewError):
    """A view was read at a time outside its validity interval set."""


class TransactionError(EngineError):
    """Transaction misuse (commit without begin, write after abort...)."""


class WalError(EngineError):
    """Write-ahead-log misuse or an unrecoverable log condition.

    Torn tails are *not* errors (recovery truncates them with a warning);
    this is for genuine misuse: appending to a closed log, a record it
    cannot frame, a checkpoint without a log, or opening a fresh
    :class:`~repro.engine.database.Database` on a directory that needs
    recovery first.
    """


class RecoveryError(WalError):
    """Crash recovery could not reconstruct a consistent database."""


class SqlError(ReproError):
    """Base class for SQL front-end errors."""


class SqlLexError(SqlError):
    """The SQL lexer hit an unrecognised character sequence."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class SqlParseError(SqlError):
    """The SQL parser rejected the token stream."""


class SqlPlanError(SqlError):
    """The planner could not translate a SQL statement to the algebra."""


class UnsupportedSqlError(SqlPlanError):
    """A deliberately unsupported SQL feature (e.g. outer joins, NULLs)."""


class SimulationError(ReproError):
    """Distributed-simulation misconfiguration (a link, a retry policy)."""


class FaultInjectionError(SimulationError):
    """An invalid fault schedule or an inapplicable injected fault."""


class ServerError(ReproError):
    """Base class for the network server and the session/client layer."""


class WireProtocolError(ServerError):
    """A malformed, corrupt, or oversized frame on a server connection.

    Unlike the WAL's torn tails (truncate-and-warn), a corrupt frame on a
    live TCP stream means the two ends have lost framing sync; the only
    safe reaction is to drop the connection, so this error is
    connection-fatal.
    """


class SessionError(ServerError):
    """Session misuse: closed sessions, unknown subscriptions, bad resume."""


class RemoteError(ServerError):
    """A server-side error reported back over the wire.

    Carries the server-side exception class name in :attr:`remote_type` so
    clients can branch without parsing messages.
    """

    def __init__(self, message: str, remote_type: str = "ReproError") -> None:
        super().__init__(message)
        self.remote_type = remote_type
