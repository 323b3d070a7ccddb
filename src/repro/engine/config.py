"""Construction-time configuration for :class:`~repro.engine.database.Database`.

The database grew its knobs one PR at a time -- plan cache sizing,
invariant auditing, durability -- and the server layer (PR 8) needs to
ship *all* of them across one API boundary
(``repro.connect``, the CLI ``serve`` subcommand, recovery).  This module
folds them into one frozen dataclass, :class:`DatabaseConfig`, accepted by
``Database(config=...)``.

Every individual keyword on ``Database(...)`` keeps working as a shim:
explicitly-passed keywords override the corresponding ``config`` field, so
``Database(config=cfg, wal_fsync="always")`` means "``cfg``, but fsync
every append".
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Optional, Union

from repro.engine.expiration_index import RemovalPolicy

__all__ = ["DatabaseConfig"]


@dataclasses.dataclass(frozen=True)
class DatabaseConfig:
    """Everything a :class:`~repro.engine.database.Database` is built from.

    Defaults are the documented production defaults:

    ``start_time``
        Initial logical time (``0``).
    ``default_removal_policy``
        Physical expiration processing for new tables:
        :attr:`~repro.engine.expiration_index.RemovalPolicy.EAGER`
        (sweep on clock advance) by default; ``LAZY`` defers to vacuums.
    ``plan_cache_capacity``
        LRU entries in the plan/result cache (``128``).
    ``check_invariants``
        Debug mode: audit every cross-structure invariant after each
        mutation (``False``; orders of magnitude slower).
    ``wal_dir``
        Directory for the write-ahead log and snapshots (``None`` = no
        durability).
    ``wal_fsync``
        ``"always"`` / ``"commit"`` (default) / ``"never"``.

    >>> DatabaseConfig().wal_fsync
    'commit'
    >>> DatabaseConfig(plan_cache_capacity=8).replace(wal_fsync="never").wal_fsync
    'never'
    """

    start_time: int = 0
    default_removal_policy: RemovalPolicy = RemovalPolicy.EAGER
    plan_cache_capacity: int = 128
    check_invariants: bool = False
    wal_dir: Optional[Union[str, Path]] = None
    wal_fsync: str = "commit"

    def replace(self, **changes) -> "DatabaseConfig":
        """A copy with ``changes`` applied (sugar over ``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)
