"""The statement cache: SQL text → prepared statement, in front of the plan cache.

The plan cache (:mod:`repro.core.algebra.plan_cache`) already answers a
repeated *expression* at a later τ from its validity intervals, but a
served query arrives as text and was lexed, parsed and planned again only
to reach that lookup.  This cache keeps what those three steps produce for
a row-producing statement, on two levels:

* **Text.**  Keyed by the exact text, so a repeat goes from text to
  ``Database.evaluate`` with the same expression object: one dict probe.
* **Shape.**  Keyed by the text's tokens with each literal replaced by its
  type (:func:`repro.sql.shapes.shape_of`).  A text missing at the first
  level but of a known shape is lexed, and its literals are bound into a
  copy of the shape's statement and plan; it is not parsed or planned.
  The result is then kept at the text level like any other entry.

An entry of either level is a pure function of (text, catalog): planning
resolves table schemas and inlines view definitions, nothing else.  The
whole cache is therefore one generation of
:attr:`Database.schema_version` -- the first lookup under a new version
empties both levels -- and no data mutation, clock advance or expiration
ever touches it.

What the entries *are* is the SQL executor's business
(:mod:`repro.sql.executor` decides what is worth keeping); this module
only bounds and counts them.  A text miss counts as a miss whichever way
it is then prepared; those a shape served also count as shape hits.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

from repro.obs.registry import MetricsRegistry

__all__ = ["CAPACITY", "MAX_TEXT_LENGTH", "StatementCache"]

#: Entries kept per level, least recently used evicted first.  Constants
#: rather than configuration: an entry is an AST plus an expression (a few
#: KB), so the bound only has to stop unbounded growth under generated SQL
#: with inlined literals, and no deployment needs a different value for that.
CAPACITY = 1024
#: Texts longer than this are never kept: they are almost always bulk
#: statements with inlined data, which do not repeat.
MAX_TEXT_LENGTH = 4096


class StatementCache:
    """Bounded LRU of prepared statements under one schema version.

    >>> cache = StatementCache()
    >>> cache.get("SELECT 1", schema_version=3) is None
    True
    >>> cache.put("SELECT 1", 3, "prepared")
    >>> cache.get("SELECT 1", schema_version=3)
    'prepared'
    >>> cache.get("SELECT 1", schema_version=4) is None  # DDL since
    True
    >>> len(cache)
    0
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        reg = registry if registry is not None else MetricsRegistry()
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._shapes: "OrderedDict[tuple, Any]" = OrderedDict()
        self._schema_version = -1
        self._hits = reg.counter(
            "repro_sql_statement_cache_hits_total",
            "SQL texts executed without lexing, parsing or planning.")
        self._misses = reg.counter(
            "repro_sql_statement_cache_misses_total",
            "SQL texts not kept by their exact text (uncacheable ones and "
            "shape hits included).")
        self._shape_hits = reg.counter(
            "repro_sql_statement_cache_shape_hits_total",
            "Text misses served from a prepared shape: lexed, not parsed "
            "or planned.")
        self._evictions = reg.counter(
            "repro_sql_statement_cache_evictions_total", "LRU evictions.")
        self._entries_gauge = reg.gauge(
            "repro_sql_statement_cache_entries",
            "Prepared statements currently cached.")

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, text: str, schema_version: int) -> Optional[Any]:
        """The entry prepared for ``text`` under ``schema_version``, if any."""
        if schema_version != self._schema_version:
            self._entries.clear()
            self._shapes.clear()
            self._entries_gauge.set(0)
            self._schema_version = schema_version
        entry = self._entries.get(text)
        if entry is None:
            self._misses.inc()
            return None
        self._hits.inc()
        self._entries.move_to_end(text)
        return entry

    def put(self, text: str, schema_version: int, entry: Any) -> None:
        """Keep ``entry``, prepared under ``schema_version``, for ``text``."""
        if len(text) > MAX_TEXT_LENGTH or schema_version != self._schema_version:
            return
        self._entries[text] = entry
        if len(self._entries) > CAPACITY:
            self._entries.popitem(last=False)
            self._evictions.inc()
        self._entries_gauge.set(len(self._entries))

    def get_shape(self, key: tuple) -> Any:
        """What :meth:`put_shape` kept for ``key`` in this generation
        (call :meth:`get` first): ``None`` if nothing, counted as a shape
        hit if it is true."""
        entry = self._shapes.get(key)
        if entry:
            self._shape_hits.inc()
            self._shapes.move_to_end(key)
        return entry

    def put_shape(self, key: tuple, schema_version: int, entry: Any) -> None:
        """Keep ``entry`` for the shape ``key``; a false one marks a shape
        whose texts are prepared one by one."""
        if schema_version != self._schema_version:
            return
        self._shapes[key] = entry
        if len(self._shapes) > CAPACITY:
            self._shapes.popitem(last=False)
