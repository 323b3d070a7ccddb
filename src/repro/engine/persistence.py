"""Saving and loading databases as snapshots.

A snapshot captures the logical clock, every table (schema, removal
policy, partitioning, layout, expiry policy, rows with expiration
times), and every materialised view (definition via
:mod:`repro.core.algebra.serde`, plus its maintenance policy and patch
limit).  Loading replays the snapshot into a fresh
:class:`~repro.engine.database.Database`, re-materialising the views at
the restored clock time.

**The file** (format 2) is a sequence of :mod:`repro.codec` frames.  Frame
0 is a JSON object -- ``kind: "snapshot"``, ``format``, ``now``, the table
specs (each with its ``row_count``) and the view specs.  The rows follow
as *segments*: per table, runs of at most 2^16 rows **sorted by expiration
time**, immortal rows last, each one frame holding the raw ticks and one
column per attribute.  Sorted, because that is the order the expiration
index wants them in (a sorted run is already a valid heap) and the order
in which they will leave.  Which shard a row lives in is not recorded:
routing hashes the partition key, and ``hash(str)`` differs from one
process to the next.  Every frame carries a CRC, so :func:`read_snapshot`
-- the one reader recovery, :func:`load_database` and ``python -m repro
wal`` share -- refuses a damaged file whole instead of loading a flipped
digit as a different expiration time.  A file that starts with ``{`` is a
*format 1* snapshot, one JSON document with ``[[...values], texp]`` rows,
written by earlier versions; it still loads, unchecked as it always was.

Snapshots are written *crash-safely*: :func:`save_database` goes through
:func:`repro.codec.replace_file`, so a crash mid-save can never leave a
torn snapshot -- readers see either the old complete snapshot or the new
complete snapshot.

Not captured (they hold Python callables): triggers and
incremental-view subscriptions -- re-register them after loading.  Rows
are written unchecked: the table admits only values that read back as
themselves (:func:`repro.core.tuples.check_domain`).
"""

from __future__ import annotations

from array import array
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from repro.codec import (
    FrameError,
    decode_items,
    decode_record,
    encode_frame,
    encode_segment,
    read_json,
    replace_file,
)
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
    "read_snapshot",
    "table_spec",
    "view_spec",
    "restore_table",
    "restore_views",
]

_FORMAT_VERSION = 2
#: Rows per segment: bounds what one damaged frame can take with it and
#: what a reader holds decoded at once.
_SEGMENT_ROWS = 1 << 16
#: Sanity bound on one snapshot frame.
_MAX_FRAME = 1 << 30

#: One segment as it is held in memory: the rows' expiration ticks
#: (``array('q')``) and one sequence of values per attribute.
Segment = Tuple[array, List[Any]]


def _segments(table: Table) -> List[Segment]:
    """``table``'s rows as snapshot segments, sorted by expiration time."""
    pairs = sorted(
        ((stamp, row) for row, stamp in table.relation.items()),
        key=itemgetter(0),
    )
    segments = []
    for start in range(0, len(pairs), _SEGMENT_ROWS):
        chunk = pairs[start:start + _SEGMENT_ROWS]
        columns = list(zip(*map(itemgetter(1), chunk)))
        segments.append((array("q", map(itemgetter(0), chunk)), columns))
    return segments


def table_spec(table: Table, include_rows: bool = True) -> Dict[str, Any]:
    """A table's persistable definition (shared by snapshots and WAL DDL).

    With ``include_rows`` the spec also carries the rows, as ``segments``
    (see the module docs) and their total as ``row_count``.
    """
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
        spec["segments"] = segments = _segments(table)
        spec["row_count"] = sum(len(ticks) for ticks, _ in segments)
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
        "kind": "snapshot",
        "format": _FORMAT_VERSION,
        "now": db.now.value,
        "tables": tables,
        "views": views,
    }


def restore_table(db: Database, spec: Dict[str, Any]) -> Table:
    """Create and fill one table from its snapshot spec.

    Rows go through the trusted :meth:`Table.bulk_load` instead of
    per-row inserts and heap pushes -- this path dominates recovery time
    on large snapshots.  Segments are loaded as they were decoded: rows
    are ``zip(*columns)`` and expirations stay raw ticks, in one sorted
    run.  A format 1 spec has ``rows`` instead.  An ``index_factory`` key,
    which snapshots and ``create_table`` WAL records of earlier versions
    carry, is ignored: there is one expiration index now.
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
    if "rows" in spec:
        table.bulk_load(decode_items(spec["rows"]))
    if "segments" in spec:
        table.bulk_load(chain.from_iterable(
            zip(zip(*columns), ticks) for ticks, columns in spec["segments"]
        ))
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
    """Rebuild a database from a snapshot dict (:func:`database_to_dict`'s,
    :func:`read_snapshot`'s, or a format 1 document).

    ``db_kwargs`` are forwarded to the :class:`Database` constructor
    (``check_invariants=``, ``metrics=``, ...); ``include_views=False``
    restores tables only, which crash recovery uses so it can replay the
    log before materialising views.
    """
    if data.get("format") not in (1, _FORMAT_VERSION):
        raise EngineError(f"unsupported snapshot format {data.get('format')!r}")
    db = Database(start_time=data["now"], **db_kwargs)
    for spec in data["tables"]:
        restore_table(db, spec)
    if include_views:
        restore_views(db, data["views"])
    return db


def save_database(db: Database, path: Union[str, Path]) -> None:
    """Write a snapshot to ``path`` atomically and durably.

    A crash at any point leaves either the previous snapshot or the new
    one -- never a torn file (:func:`repro.codec.replace_file`); a frame
    over the size bound raises before any byte is written.
    """
    data = database_to_dict(db)
    try:
        segments = [
            encode_segment(index, ticks, columns, _MAX_FRAME)
            for index, spec in enumerate(data["tables"])
            for ticks, columns in spec.pop("segments")
        ]
        frames = [encode_frame(data, _MAX_FRAME), *segments]
    except FrameError as error:
        raise EngineError(f"cannot snapshot: {error}") from None
    replace_file(path, frames)


def read_snapshot(path: Union[str, Path]) -> Dict[str, Any]:
    """The snapshot at ``path`` as the dict :func:`database_from_dict` takes.

    Raises :class:`OSError` if the file cannot be read and
    :class:`ValueError` if it is not a complete, undamaged snapshot:
    every frame must decode, be what its position says, and agree with
    frame 0's table specs -- nothing of a damaged file is handed on.
    """
    blob = Path(path).read_bytes()
    if blob.startswith(b"{"):
        return read_json(path)  # format 1: one JSON document, no checksum
    found = decode_record(blob, 0, _MAX_FRAME)
    if found is None:
        raise ValueError("the file ends inside its first frame")
    data, offset = found
    if data["kind"] != "snapshot" or data.get("format") != _FORMAT_VERSION:
        raise ValueError(
            f"first frame is not a format {_FORMAT_VERSION} snapshot header"
        )
    tables = data["tables"]
    for spec in tables:
        spec["segments"] = []
    while offset < len(blob):
        found = decode_record(blob, offset, _MAX_FRAME)
        if found is None:
            raise ValueError(f"the file ends inside the frame at byte {offset}")
        segment, offset = found
        if segment["kind"] != "segment" or segment["table"] >= len(tables):
            raise ValueError(f"the frame before byte {offset} is not a segment "
                             f"of one of the {len(tables)} tables")
        spec = tables[segment["table"]]
        if len(segment["columns"]) != len(spec["columns"]):
            raise ValueError(
                f"a segment of table {spec['name']!r} has "
                f"{len(segment['columns'])} columns, not {len(spec['columns'])}"
            )
        spec["segments"].append((segment["ticks"], segment["columns"]))
    for spec in tables:
        held = sum(len(ticks) for ticks, _ in spec["segments"])
        if held != spec["row_count"]:
            raise ValueError(
                f"table {spec['name']!r} has {held} rows in its segments, "
                f"not the {spec['row_count']} its spec counts"
            )
    return data


def load_database(path: Union[str, Path]) -> Database:
    """Load the snapshot at ``path``."""
    try:
        data = read_snapshot(path)
    except ValueError as error:
        raise EngineError(f"unreadable snapshot {path}: {error}") from error
    return database_from_dict(data)
