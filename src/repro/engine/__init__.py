"""The expiration-time-enabled in-memory engine.

Substrate for the paper's data-management story: tables with expiration
indexes and eager/lazy removal (Section 3.2), ON-EXPIRE triggers,
materialised views with the Section-3 maintenance policies, transactions,
and a logical clock.
"""

from repro.engine.clock import LogicalClock
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.maintenance import supports_incremental
from repro.engine.partitioning import ShardedRelation
from repro.engine.persistence import (
    database_from_dict,
    database_to_dict,
    load_database,
    save_database,
)
from repro.engine.recovery import RecoveryReport, recover_database
from repro.engine.statistics import EngineStatistics, StatisticsSnapshot
from repro.engine.table import (
    EXPIRY_ABSOLUTE,
    EXPIRY_POLICIES,
    EXPIRY_SINCE_LAST_MODIFICATION,
    Table,
)
from repro.engine.transactions import Transaction, TransactionState
from repro.engine.triggers import ExpirationEvent, Trigger, TriggerManager
from repro.engine.views import MaintenancePolicy, MaterialisedView
from repro.engine.wal import WriteAheadLog

__all__ = [
    "LogicalClock",
    "Database",
    "RemovalPolicy",
    "supports_incremental",
    "ShardedRelation",
    "database_from_dict",
    "database_to_dict",
    "load_database",
    "save_database",
    "EngineStatistics",
    "StatisticsSnapshot",
    "EXPIRY_ABSOLUTE",
    "EXPIRY_POLICIES",
    "EXPIRY_SINCE_LAST_MODIFICATION",
    "Table",
    "Transaction",
    "TransactionState",
    "ExpirationEvent",
    "Trigger",
    "TriggerManager",
    "MaintenancePolicy",
    "MaterialisedView",
    "RecoveryReport",
    "WriteAheadLog",
    "recover_database",
]
