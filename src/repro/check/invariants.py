"""The cross-structure consistency invariant catalogue.

Every check audits one agreement that the engine's layered structures must
maintain among themselves as time passes:

Structural (cheap, pure bookkeeping walks):

* ``index-schedules-stored`` -- every stored row with a finite, unexpired
  expiration is scheduled in its table's expiration index at exactly that
  time (otherwise it will never be swept or fire its trigger);
* ``index-entries-stored`` -- every live index entry refers to a
  physically present row whose stored expiration matches (otherwise a
  phantom entry later fires ON-EXPIRE for a row that no longer exists);
* ``due-buffer-consistent`` -- the entries in every shard's due buffer (a
  flat table has one shard) are actually due, and any still-present row
  carries an expiration no earlier than the buffered one (a row that
  lapsed is reclaimed before a verb re-admits it, so a leftover entry
  can only precede what is stored);
* ``shard-routing`` -- every row, index entry, and due-buffer entry of a
  table with more than one shard lives in the shard ``hash(row[key]) % N``
  says it should (a misrouted row is invisible to point reads and sweeps);
* ``physical-covers-live`` -- a table never reports more live tuples than
  it physically stores.

Deep (re-evaluation; quadratic-ish, for tests and fuzzing):

* ``view-freshness`` -- whatever a materialised view would serve from
  storage right now equals a from-scratch evaluation of its expression
  (Theorems 1-3 made executable);
* ``plan-cache-consistent`` -- every cached result the plan cache would
  still serve at the current time equals an uncached evaluation at that
  time (the Section 3.4 validity machinery made executable).

The audits are *sweep-order independent*: the debug mode runs them from
mid-clock-advance hooks, where some tables have already swept a tick and
others have not, so no check may assume global expiration processing has
finished.  That is why ``index-schedules-stored`` covers only unexpired
rows and why a due-buffer entry whose row is gone is legal (an explicit
delete may race a lazy vacuum).

All checks are read-only; :func:`run_invariants` returns the violations
found rather than raising, so callers choose strictness
(:meth:`Database.verify` raises on non-empty by default).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import countOf
from typing import (
    TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List, Optional, Tuple,
)

from repro.core.algebra.evaluator import Evaluator
from repro.core.columnar import ColumnarRelation
from repro.core.relation import Relation
from repro.core.timestamps import RAW_INFINITY, from_raw

if TYPE_CHECKING:  # pragma: no cover - typing-only import cycle guard
    from repro.engine.database import Database

__all__ = ["Violation", "run_invariants", "invariant_names"]


@dataclass(frozen=True)
class Violation:
    """One invariant breach: which check, on what, and how it failed."""

    invariant: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.subject}: {self.message}"


def _stored_ticks(relation: Relation) -> dict:
    """A shard's ``row -> tick`` in its own form: a row relation's dict
    itself, a columnar one's rows zipped with its raw ``int64`` ticks."""
    if isinstance(relation, ColumnarRelation):
        batch = relation.batch()
        return dict(zip(batch.iter_rows(), batch.texp))
    return relation._tuples


class _TickMaps:
    """Each table's index and storage as ``row -> tick`` dicts.

    Built at most once per table per :func:`run_invariants` call and
    shared by the checks that read ticks.  A flat row table's maps are its
    live index and storage dicts, not copies; a columnar shard's ticks
    stay raw (``RAW_INFINITY`` is ``∞``), decoded only to word a
    violation.  The checks only read them.
    """

    def __init__(self, database: "Database") -> None:
        self._database = database
        self._maps: Dict[str, Tuple[dict, dict]] = {}

    def of(self, name: str) -> Tuple[dict, dict]:
        """``(scheduled, stored)`` for table ``name``."""
        maps = self._maps.get(name)
        if maps is None:
            shards = self._database.table(name)._shards
            if len(shards) == 1:
                scheduled = shards[0].index.ticks
                stored = _stored_ticks(shards[0].relation)
            else:
                scheduled, stored = {}, {}
                for shard in shards:
                    scheduled.update(shard.index.ticks)
                    stored.update(_stored_ticks(shard.relation))
            maps = self._maps[name] = (scheduled, stored)
        return maps


Check = Callable[["Database", _TickMaps], Iterator[Violation]]

_STRUCTURAL: List[Tuple[str, Check]] = []
_DEEP: List[Tuple[str, Check]] = []


def _structural(name: str):
    def register(fn: Check) -> Check:
        _STRUCTURAL.append((name, fn))
        return fn

    return register


def _deep(name: str):
    def register(fn: Check) -> Check:
        _DEEP.append((name, fn))
        return fn

    return register


def invariant_names(deep: bool = True) -> List[str]:
    """The catalogue's check names, in execution order."""
    names = [name for name, _ in _STRUCTURAL]
    if deep:
        names.extend(name for name, _ in _DEEP)
    return names


def run_invariants(
    database: "Database",
    deep: bool = True,
    names: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Run the catalogue against ``database``; returns all violations.

    ``deep=False`` audits bookkeeping only; ``names`` restricts the run to
    a subset of :func:`invariant_names`.
    """
    wanted = None if names is None else set(names)
    checks = list(_STRUCTURAL) + (list(_DEEP) if deep else [])
    violations: List[Violation] = []
    ticks = _TickMaps(database)
    for name, check in checks:
        if wanted is not None and name not in wanted:
            continue
        violations.extend(check(database, ticks))
    return violations


# -- structural checks -------------------------------------------------------


@_structural("index-schedules-stored")
def _index_schedules_stored(db: "Database", ticks: _TickMaps) -> Iterator[Violation]:
    now = db.clock.now
    for name in db.table_names():
        scheduled, stored = ticks.of(name)
        # Clean when the index holds exactly the finite stored items: then
        # every unexpired finite row is scheduled at its tick.
        finite = len(stored) - countOf(stored.values(), RAW_INFINITY)
        if (
            len(scheduled) == finite
            and not countOf(scheduled.values(), RAW_INFINITY)
            and scheduled.items() <= stored.items()
        ):
            continue
        for row, texp in stored.items():
            if texp <= now or texp == RAW_INFINITY:
                continue  # immortal rows are never indexed; expired rows
                # may already sit in a due buffer awaiting vacuum
            entry = scheduled.get(row)
            if entry is None:
                yield Violation(
                    "index-schedules-stored",
                    f"{name}{row}",
                    f"stored row expires at {texp} but has no index entry",
                )
            elif entry != texp:
                yield Violation(
                    "index-schedules-stored",
                    f"{name}{row}",
                    f"index schedules {entry}, stored expiration is {texp}",
                )


@_structural("index-entries-stored")
def _index_entries_stored(db: "Database", ticks: _TickMaps) -> Iterator[Violation]:
    for name in db.table_names():
        scheduled, stored = ticks.of(name)
        if scheduled.items() <= stored.items():
            continue
        for row, stamp in scheduled.items():
            if row not in stored:
                yield Violation(
                    "index-entries-stored",
                    f"{name}{row}",
                    f"index entry at {stamp} refers to a row that is not "
                    f"physically present (phantom ON-EXPIRE)",
                )
            elif stored[row] != stamp:
                yield Violation(
                    "index-entries-stored",
                    f"{name}{row}",
                    f"index entry at {stamp}, stored expiration is "
                    f"{from_raw(stored[row])}",
                )


@_structural("due-buffer-consistent")
def _due_buffer_consistent(db: "Database", ticks: _TickMaps) -> Iterator[Violation]:
    now = db.clock.now
    for name in db.table_names():
        table = db.table(name)
        for shard in table._shards:
            where = (
                name if table.partitions is None
                else f"{name}[shard {shard.label}]"
            )
            for row, texp in shard.due:
                if texp > now:
                    yield Violation(
                        "due-buffer-consistent",
                        f"{where}{row}",
                        f"buffered entry at {texp} is not due yet (now {now})",
                    )
                current = shard.relation.expiration_or_none(row)
                # An absent row is legal: a verb that met the lapsed row
                # reclaimed it before its buffered entry drained.
                if current is not None and current < texp:
                    yield Violation(
                        "due-buffer-consistent",
                        f"{where}{row}",
                        f"stored expiration {current} precedes the buffered "
                        f"entry {texp} (max-merge only moves later)",
                    )


@_structural("shard-routing")
def _shard_routing(db: "Database", ticks: _TickMaps) -> Iterator[Violation]:
    for name in db.table_names():
        table = db.table(name)
        if table.partitions is None:
            continue
        key, count = table.relation.key_index, table.partitions
        for shard_id, shard in enumerate(table._shards):
            for where, rows in (
                ("stored in relation", shard.relation.rows()),
                ("indexed in", (row for row, _ in shard.index.items())),
                ("buffered in", (row for row, _ in shard.due)),
            ):
                for row in rows:
                    owner = hash(row[key]) % count
                    if owner != shard_id:
                        yield Violation(
                            "shard-routing",
                            f"{name}{row}",
                            f"{where} shard {shard_id}, key hashes to "
                            f"shard {owner}",
                        )


@_structural("physical-covers-live")
def _physical_covers_live(db: "Database", ticks: _TickMaps) -> Iterator[Violation]:
    now = db.clock.now
    for name in db.table_names():
        _, stored = ticks.of(name)
        live = sum(map(now.__lt__, stored.values()))
        physical = db.table(name).physical_size
        if physical < live:
            yield Violation(
                "physical-covers-live",
                name,
                f"{live} live tuples but only {physical} stored",
            )


# -- deep checks -------------------------------------------------------------


@_deep("view-freshness")
def _view_freshness(db: "Database", ticks: _TickMaps) -> Iterator[Violation]:
    now = db.clock.now
    for name in db.view_names():
        view = db.view(name)
        served = view._audit_serveable(now)
        if served is None:
            continue  # a real read would refresh (or refuse); nothing to audit
        fresh = Evaluator(db.catalog, now).evaluate(view.expression).relation
        if not served.same_content(fresh):
            yield Violation(
                "view-freshness",
                name,
                f"materialised read at {now} diverges from a from-scratch "
                f"evaluation ({len(served)} vs {len(fresh)} rows)",
            )


@_deep("plan-cache-consistent")
def _plan_cache_consistent(db: "Database", ticks: _TickMaps) -> Iterator[Violation]:
    now = db.clock.now
    for expression, entry in db.plan_cache.entries():
        # Only what the cache would serve at `now` can be served wrong.
        if not entry.answers(now, db.catalog_version, db.schema_version, now):
            continue
        cached = entry.result
        served = cached.relation.exp_at(now)
        fresh = Evaluator(db.catalog, now).evaluate(expression).relation
        if not served.same_content(fresh):
            yield Violation(
                "plan-cache-consistent",
                repr(expression),
                f"cached result (τ={cached.tau}) served at {now} diverges "
                f"from an uncached evaluation ({len(served)} vs "
                f"{len(fresh)} rows)",
            )
