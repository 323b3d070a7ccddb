"""The suite's own span recorder and the wrappers it installs.

Nothing in ``src/`` knows about this module.  A traced repetition imports
``repro``, resolves each entry point in :data:`TARGETS` by dotted name and
replaces it with a wrapper that records one span per call: name, start,
end, parent, and the request id current at the time.  Spans stay in memory
(five parallel arrays) and are folded into per-name totals once the
workload has ended.  A name that no longer resolves -- a later refactor
moved it -- puts its span name in :attr:`Tracer.unresolved` and the
metrics built on that span come out as ``None``; it never fails the run.

A span's *self time* is its duration minus the durations of its direct
children, so a layer is charged only for the time spent in its own code.
"""

from __future__ import annotations

import importlib
import sys
import threading
from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["TARGETS", "Tracer", "resolve"]

#: role -> [(dotted entry point, span name)].  The span name's prefix (all
#: but the last component) is the layer the time is charged to.
_ENGINE = [
    ("repro.sql.parser.parse_statements", "sql.parser.parse"),
    ("repro.sql.planner.plan_query", "sql.planner.plan"),
    ("repro.sql.executor.execute_statement", "sql.executor.execute"),
    ("repro.core.algebra.compiler.compile_expression",
     "core.algebra.compiler.compile"),
    ("repro.core.algebra.compiler.CompiledPlan.execute",
     "core.algebra.compiler.execute"),
    ("repro.engine.table.Table.insert", "engine.table.insert"),
    ("repro.engine.table.Table.renew", "engine.table.mutate"),
    ("repro.engine.table.Table.touch", "engine.table.mutate"),
    ("repro.engine.table.Table.override", "engine.table.mutate"),
    ("repro.engine.table.Table.delete", "engine.table.mutate"),
    ("repro.engine.database.Database.advance_to", "engine.database.advance"),
    ("repro.engine.database.Database.tick", "engine.database.advance"),
    ("repro.engine.views.MaterialisedView.read", "engine.views.read"),
    ("repro.engine.views.MaterialisedView.refresh", "engine.views.refresh"),
    ("repro.engine.maintenance.IncrementalView._on_insert",
     "engine.maintenance.delta"),
    ("repro.engine.wal.WriteAheadLog.append", "engine.wal.append"),
    ("repro.engine.wal.WriteAheadLog.records", "engine.wal.scan"),
    ("repro.engine.recovery.recover_database", "engine.recovery.replay"),
    ("repro.engine.database.Database.verify", "engine.recovery.verify"),
    ("repro.engine.persistence.restore_views", "engine.recovery.restore_views"),
    ("repro.engine.persistence.database_from_dict",
     "engine.persistence.snapshot_load"),
]
TARGETS: Dict[str, List[Tuple[str, str]]] = {
    # the served engine's process
    "server": _ENGINE + [
        ("repro.server.protocol.encode_frame", "server.protocol.encode"),
        ("repro.server.protocol.FrameDecoder.feed", "server.protocol.decode"),
        ("repro.server.server.ReproServer.pump", "server.server.pump"),
        ("repro.server.session.diff_states", "server.session.diff"),
    ],
    # the load generator's process, client side of the wire
    "client": [
        ("repro.server.protocol.encode_frame", "server.client.encode"),
        ("repro.server.protocol.FrameDecoder.feed", "server.client.decode"),
    ],
    # in-process workloads: the engine runs inside the worker
    "inprocess": _ENGINE,
}
#: A verb that delegates to another verb of the same layer (``renew`` and
#: ``touch`` call ``insert``) keeps the whole call in its own span.
_MERGE_UNDER = {"engine.table.insert": "engine.table.mutate"}


def resolve(dotted: str):
    """``(owner, attribute, object)`` for a dotted name, or ``None``."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for name in parts[split:-1]:
                owner = getattr(owner, name)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


class Tracer:
    """In-memory span store with per-thread parent stacks."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.request = array("q")
        self._stacks: Dict[int, List[int]] = {}
        #: The request id the generator assigned to the work now running.
        self.current_request = -1
        self.unresolved: List[str] = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> List[int]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def begin(self, name_id: int, request: Optional[int] = None) -> int:
        stack = self._stack()
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.request.append(self.current_request if request is None else request)
        self.end.append(0)
        stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        stack = self._stack()
        while stack and stack.pop() != index:
            pass  # an exception skipped inner finishes: unwind to this span

    def wrap(self, fn: Callable, name: str,
             request_of: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call under ``name``.

        ``request_of(args)`` names the request a call belongs to when the
        call itself carries it (a reply frame echoes its request's id).
        """
        name_id = self.name_id(name)
        merge = _MERGE_UNDER.get(name)
        merge_id = self.name_id(merge) if merge is not None else -1
        begin, finish, stack_of, names = (
            self.begin, self.finish, self._stack, self.name)

        def wrapper(*args, **kwargs):
            if merge_id >= 0:
                stack = stack_of()
                if stack and names[stack[-1]] == merge_id:
                    return fn(*args, **kwargs)
            index = begin(
                name_id, None if request_of is None else request_of(args))
            try:
                return fn(*args, **kwargs)
            finally:
                finish(index)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, role: str,
                request_of: Optional[Dict[str, Callable]] = None) -> None:
        """Replace every entry point of ``role`` with a recording wrapper.

        ``request_of`` maps a span name to the :meth:`wrap` hook of that name.
        """
        for dotted, name in TARGETS[role]:
            found = resolve(dotted)
            if found is None:
                self.unresolved.append(name)
                print(f"benchmarks.suite: warning: {dotted} no longer "
                      f"resolves; its metrics will be null", file=sys.stderr)
                continue
            owner, attribute, original = found
            self.replace(owner, attribute, original, self.wrap(
                original, name, (request_of or {}).get(name)))

    @staticmethod
    def replace(owner, attribute: str, original, wrapper) -> None:
        """Rebind ``original`` on its owner and wherever it was imported."""
        setattr(owner, attribute, wrapper)
        if isinstance(owner, type):
            return
        # ``from x import f`` copied the binding: patch those copies too.
        for module in list(sys.modules.values()):
            if module is None or not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    # -- folding -------------------------------------------------------------

    def mark(self) -> int:
        """The index the next span will get (delimits the timed section)."""
        return len(self.start)

    def fold(self, first: int = 0, last: Optional[int] = None) -> Dict[str, dict]:
        """Per-name ``{count, self_ns}`` over spans [first, last)."""
        last = len(self.start) if last is None else last
        child = {}
        for index in range(first, last):
            parent = self.parent[index]
            if parent >= first and self.end[index]:
                child[parent] = child.get(parent, 0) + (
                    self.end[index] - self.start[index])
        out: Dict[str, dict] = {}
        for index in range(first, last):
            if not self.end[index]:
                continue  # still open when the section closed
            duration = self.end[index] - self.start[index]
            entry = out.setdefault(
                self.names[self.name[index]], {"count": 0, "self_ns": 0})
            entry["count"] += 1
            entry["self_ns"] += duration - child.get(index, 0)
        return out
