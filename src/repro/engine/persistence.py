"""Saving and loading databases as JSON snapshots.

A snapshot captures the logical clock, every table (schema, removal
policy, partitioning, layout, expiry policy, rows with expiration
times), and every materialised view (definition via
:mod:`repro.core.algebra.serde`, plus its maintenance policy and patch
limit).  Loading replays the snapshot into a fresh
:class:`~repro.engine.database.Database`, re-materialising the views at
the restored clock time.

Snapshots are written *crash-safely*: :func:`save_database` goes through
:func:`repro.codec.replace_file`, so a crash mid-save can never leave a
torn snapshot -- readers see either the old complete snapshot or the new
complete snapshot.

Not captured (they hold Python callables): triggers, constraints, and
incremental-view subscriptions -- re-register them after loading.  Values
must be JSON-representable (int / float / str / bool / null), which is
the attribute domain every workload in this repository uses.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.codec import decode_items, encode_items, read_json, replace_file
from repro.core.algebra.serde import expression_from_dict, expression_to_dict
from repro.engine.database import Database
from repro.engine.expiration_index import RemovalPolicy
from repro.engine.table import Table
from repro.engine.views import MaintenancePolicy
from repro.errors import EngineError

__all__ = [
    "database_to_dict",
    "database_from_dict",
    "save_database",
    "load_database",
    "table_spec",
    "view_spec",
    "restore_table",
    "restore_views",
]

_FORMAT_VERSION = 1
_JSON_SCALARS = (int, float, str, bool, type(None))

def table_spec(table: Table, include_rows: bool = True) -> Dict[str, Any]:
    """A table's persistable definition (shared by snapshots and WAL DDL)."""
    spec: Dict[str, Any] = {
        "name": table.name,
        "columns": list(table.schema.names),
        "removal_policy": table.removal_policy.value,
        "lazy_batch_size": table.lazy_batch_size,
    }
    if table.partitions is not None:
        spec["partitions"] = table.partitions
        spec["partition_key"] = table.partition_key
    if table.layout != "row":
        spec["layout"] = table.layout
    if table.expiry != "absolute":
        spec["expiry"] = table.expiry
    if table.default_ttl is not None:
        spec["default_ttl"] = table.default_ttl
    if include_rows:
        spec["rows"] = rows = encode_items(table.relation.items())
        for values, _ in rows:
            for value in values:
                if not isinstance(value, _JSON_SCALARS):
                    raise EngineError(
                        f"cannot snapshot non-JSON value {value!r} in "
                        f"table {table.name!r}"
                    )
    return spec


def view_spec(view) -> Dict[str, Any]:
    """A view's persistable definition (shared by snapshots and WAL DDL)."""
    spec = {
        "name": view.name,
        "policy": view.policy.value,
        "expression": expression_to_dict(view.expression),
    }
    if view.patch_limit is not None:
        spec["patch_limit"] = view.patch_limit
    return spec


def database_to_dict(db: Database) -> Dict[str, Any]:
    """The snapshot as a plain dict (see module docs for what's included)."""
    tables = [table_spec(db.table(name)) for name in db.table_names()]
    views = [view_spec(db.view(name)) for name in db.view_names()]
    return {
        "format": _FORMAT_VERSION,
        "now": db.now.value,
        "tables": tables,
        "views": views,
    }


def restore_table(db: Database, spec: Dict[str, Any]) -> Table:
    """Create and fill one table from its snapshot spec.

    Rows go through the trusted :meth:`Table.bulk_load` instead of
    per-row inserts and heap pushes -- this path dominates recovery time
    on large snapshots.  An ``index_factory`` key, which snapshots and
    ``create_table`` WAL records of earlier versions carry, is ignored:
    there is one expiration index now.
    """
    table = db.create_table(
        spec["name"],
        spec["columns"],
        removal_policy=RemovalPolicy(spec["removal_policy"]),
        lazy_batch_size=spec.get("lazy_batch_size", 64),
        partitions=spec.get("partitions"),
        partition_key=spec.get("partition_key"),
        layout=spec.get("layout", "row"),
        expiry=spec.get("expiry", "absolute"),
        default_ttl=spec.get("default_ttl"),
    )
    table.bulk_load(decode_items(spec.get("rows", ())))
    return table


def restore_views(db: Database, specs: List[Dict[str, Any]]) -> None:
    """Re-materialise views from their snapshot specs."""
    for spec in specs:
        db.materialise(
            spec["name"],
            expression_from_dict(spec["expression"]),
            policy=MaintenancePolicy(spec["policy"]),
            patch_limit=spec.get("patch_limit"),
        )


def database_from_dict(
    data: Dict[str, Any],
    include_views: bool = True,
    **db_kwargs: Any,
) -> Database:
    """Rebuild a database from a snapshot dict.

    ``db_kwargs`` are forwarded to the :class:`Database` constructor
    (``check_invariants=``, ``metrics=``, ...); ``include_views=False``
    restores tables only, which crash recovery uses so it can replay the
    log before materialising views.
    """
    if data.get("format") != _FORMAT_VERSION:
        raise EngineError(f"unsupported snapshot format {data.get('format')!r}")
    db = Database(start_time=data["now"], **db_kwargs)
    for spec in data["tables"]:
        restore_table(db, spec)
    if include_views:
        restore_views(db, data["views"])
    return db


def save_database(db: Database, path: Union[str, Path]) -> None:
    """Write a JSON snapshot to ``path`` atomically and durably.

    A crash at any point leaves either the previous snapshot or the new
    one -- never a torn file (:func:`repro.codec.replace_file`).
    """
    payload = json.dumps(database_to_dict(db), indent=1, sort_keys=True)
    replace_file(path, [payload.encode("utf-8")])


def load_database(path: Union[str, Path]) -> Database:
    """Load a JSON snapshot from ``path``."""
    return database_from_dict(read_json(path))
