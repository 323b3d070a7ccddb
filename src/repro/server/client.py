"""``repro.connect(...)`` -- the one client-facing session surface.

The same three verbs everywhere -- ``execute()``, ``query()``,
``subscribe()`` -- whether the engine lives in this process or behind a
socket:

* :func:`connect` with no target (or ``":memory:"``) owns a fresh
  in-memory :class:`~repro.engine.database.Database`;
* with an existing ``Database`` it wraps it without taking ownership;
* with a filesystem path it opens (or crash-recovers) a durable database
  rooted there;
* with a ``repro://host:port`` URL it speaks the wire protocol
  (:mod:`repro.server.protocol`) to a :class:`~repro.server.server.ReproServer`.

Sessions carry the paper's loosely-coupled client state: a monotone
**clock floor** (reads never travel backwards past a time the client has
observed) and the **data version** its last result reflected.
Subscriptions materialise a view client-side and keep it current the way
the paper prescribes: expiration does most of the maintenance locally
(expired tuples drop out with *no* message), and only genuine drift
arrives as patches -- or, past the backpressure ladder, as an
``invalidate`` that defers the refetch until the view is actually read
again.
"""

from __future__ import annotations

import abc
import asyncio
import itertools
import socket
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.codec import decode_exp
from repro.core.timestamps import Timestamp, ts
from repro.engine.config import DatabaseConfig
from repro.engine.database import Database
from repro.engine.wal import WriteAheadLog
from repro.errors import RemoteError, SessionError, WireProtocolError
from repro.server.protocol import PROTOCOL_VERSION, FrameDecoder, encode_frame
from repro.sql.executor import SqlResult, execute_sql

__all__ = [
    "AsyncSession",
    "LocalSession",
    "NetworkSession",
    "Result",
    "Session",
    "Subscription",
    "connect",
]

#: The most one read from the connection takes.
_CHUNK = 65536


@dataclass
class Result:
    """One statement's outcome, transport-independent.

    ``rows`` is the presentation (ordered per ORDER BY, truncated per
    LIMIT); ``items`` is the full set-semantics result *with expiration
    times*, so clients keep the paper's semantics rather than a dead row
    list.  ``now``/``data_version`` snapshot the engine state the result
    reflects.
    """

    kind: str
    message: str = ""
    columns: Tuple[str, ...] = ()
    rows: Optional[List[tuple]] = None
    items: Optional[List[Tuple[tuple, Timestamp]]] = None
    rowcount: int = 0
    names: Tuple[str, ...] = ()
    now: Timestamp = field(default_factory=lambda: ts(0))
    data_version: int = 0

    def __iter__(self):
        return iter(self.rows or [])

    def __len__(self) -> int:
        return len(self.rows or [])


def _result_from_sql(result: SqlResult, db: Database) -> Result:
    columns: Tuple[str, ...] = ()
    rows = None
    items = None
    if result.relation is not None:
        columns = tuple(result.relation.schema.names)
        rows = [tuple(row) for row in (result.rows or [])]
        items = list(result.relation.items())
    return Result(
        kind=result.kind,
        message=result.message,
        columns=columns,
        rows=rows,
        items=items,
        rowcount=result.rowcount,
        names=tuple(result.names),
        now=db.clock.now,
        data_version=db.catalog_version,
    )


class Subscription(abc.ABC):
    """A client-side materialisation of one server-side view."""

    def __init__(self, sub_id: int, view: str, columns: Tuple[str, ...]) -> None:
        self.sub_id = sub_id
        self.view = view
        self.columns = columns
        self.closed = False

    @abc.abstractmethod
    def items(self) -> List[Tuple[tuple, Timestamp]]:
        """Current ``(row, texp)`` pairs, unexpired at the session's now."""

    def read(self) -> List[tuple]:
        """The view's rows as of the session's observed time, sorted."""
        return sorted(row for row, _ in self.items())

    @abc.abstractmethod
    def close(self) -> None:
        """Drop the subscription."""


class Session(abc.ABC):
    """The transport-independent session surface.

    ``execute`` runs any single statement; ``query`` runs one
    row-producing statement (and refuses anything else before executing
    it); ``subscribe`` opens a client-side materialisation of a view.
    Sessions are context managers.
    """

    closed: bool = False

    @abc.abstractmethod
    def execute(self, text: str) -> Result:
        """Run one SQL statement (any kind) and return its result."""

    @abc.abstractmethod
    def query(self, text: str) -> Result:
        """Run one row-producing statement; refuses DDL/DML up front."""

    @abc.abstractmethod
    def subscribe(self, view: str) -> Subscription:
        """Open a client-side materialisation of the named view."""

    @abc.abstractmethod
    def close(self) -> None:
        """End the session (idempotent)."""

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self.closed:
            raise SessionError("session is closed")


# ---------------------------------------------------------------------------
# In-process
# ---------------------------------------------------------------------------


class LocalSubscription(Subscription):
    """A subscription served straight off the engine's view object."""

    def __init__(self, session: "LocalSession", sub_id: int, view) -> None:
        relation = view.read(session.db.clock.now)
        super().__init__(sub_id, view.name, tuple(relation.schema.names))
        self._session = session
        self._view = view

    def items(self) -> List[Tuple[tuple, Timestamp]]:
        if self.closed:
            raise SessionError(f"subscription to {self.view!r} is closed")
        return list(self._view.read(self._session.db.clock.now).items())

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._session._subscriptions.pop(self.sub_id, None)


class LocalSession(Session):
    """The in-process session: same verbs, no serialisation.

    Wraps a :class:`~repro.engine.database.Database` -- owned (created by
    :func:`connect`) or borrowed (``Database.session()``).  Carries the
    same floor/data-version snapshot state as a server-side session, so
    code written against it behaves identically over a socket.
    """

    def __init__(self, db: Database, own_database: bool = False) -> None:
        self.db = db
        self._own = own_database
        self.floor: Timestamp = db.clock.now
        self.data_version: int = db.catalog_version
        self._subscriptions: Dict[int, LocalSubscription] = {}
        self._sub_ids = itertools.count(1)
        self.closed = False

    @property
    def now(self) -> Timestamp:
        """The engine's current logical time."""
        return self.db.clock.now

    def _observe(self) -> None:
        now = self.db.clock.now
        if now > self.floor:
            self.floor = now
        self.data_version = self.db.catalog_version

    def _check_floor(self) -> None:
        if self.floor > self.db.clock.now:
            raise SessionError(
                f"session has observed τ={self.floor} but the engine is at "
                f"τ={self.db.clock.now}; refusing to travel back in time"
            )

    def _run(self, text: str, require_rows: bool) -> Result:
        self._check_open()
        self._check_floor()
        result = execute_sql(self.db, text, require_rows=require_rows)
        self._observe()
        return _result_from_sql(result, self.db)

    def execute(self, text: str) -> Result:
        return self._run(text, require_rows=False)

    def query(self, text: str) -> Result:
        return self._run(text, require_rows=True)

    def subscribe(self, view: str) -> LocalSubscription:
        self._check_open()
        sub = LocalSubscription(self, next(self._sub_ids), self.db.view(view))
        self._subscriptions[sub.sub_id] = sub
        return sub

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        for sub in list(self._subscriptions.values()):
            sub.close()
        if self._own:
            self.db.close()


# ---------------------------------------------------------------------------
# Shared wire-side subscription state
# ---------------------------------------------------------------------------


def _queued(frame: dict):
    """The ``patches`` a frame carries, as ``(row, (due, texp))`` pairs."""
    for (due, *row), texp in frame.get("patches", ()):
        yield tuple(row), (ts(due), texp)


class _WireSubscription(Subscription):
    """Client-side replica of a server patch stream.

    Applies snapshots and in-order patches to a ``row -> texp`` map;
    everything the server deliberately never sends -- pure expiration, and
    the due patches of the Theorem-3 queue a PATCH view's frames carry
    (:attr:`patches`) -- happens locally in :meth:`items`, against the
    session's observed time.  An ``invalidate`` flips :attr:`degraded`;
    the owning session refetches on the next read (invalidate-and-refetch,
    reached lazily).
    """

    def __init__(
        self, session, sub_id: int, view: str, columns: Tuple[str, ...]
    ) -> None:
        super().__init__(sub_id, view, columns)
        self._session = session
        self.state: Dict[tuple, Timestamp] = {}
        #: The view's patch queue: row -> (due, texp); the row re-appears
        #: at ``due`` and lives until ``texp``.
        self.patches: Dict[tuple, Tuple[Timestamp, Timestamp]] = {}
        self.epoch = 0
        self.applied = 0  # cumulative: highest seq applied this epoch
        #: Envelopes that arrived past a gap, by seq, until it fills.
        self._early: Dict[int, dict] = {}
        self.degraded = False
        self.patches_applied = 0
        self.duplicates_dropped = 0

    def apply_snapshot(self, frame: dict) -> None:
        self.state = dict(frame.get("rows", ()))
        self.patches = dict(_queued(frame))
        self.epoch = int(frame.get("epoch", 0))
        self.applied = 0
        self._early.clear()
        self.degraded = False

    def apply_patch(self, frame: dict) -> bool:
        """Apply one patch envelope; False for anything not applied.

        An envelope is applied only right after the one it follows:
        ``after`` names that seq when the server retired the ones between
        as expired, else it is ``seq - 1``.  One past a gap waits until
        the gap fills; a duplicate or an envelope of another epoch is
        dropped.  Either way the cumulative re-ack of :attr:`applied`
        tells the server what is still missing.
        """
        if int(frame.get("epoch", -1)) != self.epoch:
            return False  # a stream that no longer exists
        seq = int(frame.get("seq", -1))
        if seq <= self.applied:
            self.duplicates_dropped += 1
            return False  # retransmission of something already applied
        if not self._follows(frame):
            self._early[seq] = frame  # past a gap: one before it is missing
            return False
        self._apply(frame)
        early = self._early
        while early and self._follows(early[first := min(early)]):
            frame = early.pop(first)
            if first > self.applied:  # else overtaken by an ``after``
                self._apply(frame)
        return True

    def _follows(self, frame: dict) -> bool:
        return int(frame.get("after", frame["seq"] - 1)) <= self.applied

    def _apply(self, frame: dict) -> None:
        state, queue = self.state, self.patches
        upserts = frame.get("upserts", ())
        removes = frame.get("removes", ())
        state.update(upserts)
        for row in removes:
            state.pop(row, None)
        if queue:  # a row the patch names is no longer (so) queued
            for row, _ in upserts:
                queue.pop(row, None)
            for row in removes:
                queue.pop(row, None)
        for row, entry in _queued(frame):  # queued anew, so not shown now
            state.pop(row, None)
            queue[row] = entry
        self.applied = frame["seq"]
        self.patches_applied += 1

    def apply_invalidate(self, frame: dict) -> None:
        epoch = int(frame.get("epoch", self.epoch + 1))
        if epoch <= self.epoch:
            return  # a resend: degraded already, or refetched since
        self.epoch = epoch
        self.applied = 0
        self._early.clear()
        self.degraded = True

    def ack_payload(self) -> dict:
        return {
            "kind": "ack",
            "sub": self.sub_id,
            "epoch": self.epoch,
            "cum": self.applied,
        }

    def items(self) -> List[Tuple[tuple, Timestamp]]:
        if self.closed:
            raise SessionError(f"subscription to {self.view!r} is closed")
        if self.degraded:
            self._session._refetch(self)
        return self.visible(self._session.now)

    def visible(self, now: Timestamp) -> List[Tuple[tuple, Timestamp]]:
        """The ``(row, texp)`` pairs held at ``now``: the queue's patches
        due by then applied, expired rows left out."""
        if self.patches:
            state = self.state
            for row, (due, texp) in list(self.patches.items()):
                if due <= now:
                    del self.patches[row]
                    if state.get(row, texp) <= texp:
                        state[row] = texp
        return [
            (row, texp) for row, texp in self.state.items() if texp > now
        ]

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._session._unsubscribe(self)


class _WireSessionState:
    """The one frame loop under both wire sessions, free of I/O.

    It owns the connection's :class:`FrameDecoder` and a ``write(bytes)``
    callable, and turns received bytes into replies and applied pushes
    (:meth:`_receive`).  The two session classes add only how the next
    chunk is awaited and whether their verbs block or ``await``.
    """

    def __init__(self) -> None:
        self.token: Optional[str] = None
        self.now: Timestamp = ts(0)
        self.floor: Timestamp = ts(0)
        self.data_version = 0
        self.subscriptions: Dict[int, _WireSubscription] = {}
        self._ids = itertools.count(1)
        self._pushes = 0  # push frames handled, for ``poll``'s count
        self.closed = False
        self.resumed = False

    def _attach(self, write: Callable[[bytes], object]) -> None:
        """Start a fresh byte stream whose frames go out through ``write``."""
        self._write = write
        self._decoder = FrameDecoder()
        self._queue: Deque[dict] = deque()

    def _send(self, payload: dict) -> None:
        self._write(encode_frame(payload))

    def _request(self, payload: dict) -> int:
        """Send ``payload`` as a request; returns the id its reply echoes."""
        if self.closed:
            raise SessionError("session is closed")
        rid = payload["id"] = next(self._ids)
        self._send(payload)
        return rid

    def _receive(self, chunk: bytes, awaited: Optional[int] = None) -> Optional[dict]:
        """Handle the frames ``chunk`` completes, in arrival order.

        A push is applied and acked at once.  The reply to ``awaited`` is
        returned, and the frames behind it stay queued for the next call
        (a resumed session's replay sits right behind ``hello-ok``, before
        its subscriptions are known).  A reply no request awaits -- one
        whose request timed out, or to a fire-and-forget ``unsubscribe``
        -- goes to :meth:`_on_reply`.
        """
        queue = self._queue
        queue.extend(self._decoder.feed(chunk))
        while queue:
            frame = queue.popleft()
            rid = frame.get("re")
            if rid is None:
                self._handle_push(frame)
            elif rid == awaited:
                return frame
            else:
                self._on_reply(frame)
        return None

    def _on_reply(self, frame: dict) -> None:
        """A reply nobody waits for: a blocking session drops it."""

    def _hung_up(self) -> Exception:
        """What the server hanging up means to a request awaiting its reply."""
        if self._decoder.buffered:
            return WireProtocolError("server closed mid-frame")
        return ConnectionError("server closed the connection")

    def _hello(
        self, resume: Optional[str], acks: Optional[dict] = None
    ) -> dict:
        """The ``hello`` request; with ``resume``, the delivery state too."""
        hello: dict = {"kind": "hello", "version": PROTOCOL_VERSION}
        if resume is not None:
            hello["resume"] = resume
            hello["acks"] = self._ack_state() if acks is None else acks
        return hello

    def _checked(
        self, reply: dict, message: str = "", error: str = "ReproError"
    ) -> dict:
        """``reply`` with its time noted, or the ``RemoteError`` it carries."""
        if reply.get("kind") == "error":
            raise RemoteError(
                reply.get("message", message), reply.get("error", error)
            )
        self._note_time(reply)
        return reply

    def _adopt_hello(self, reply: dict) -> None:
        """Take the session identity from ``hello-ok`` (or fail for good)."""
        if reply.get("kind") == "error":
            self.closed = True
        self._checked(reply, "hello rejected", "ServerError")
        self.token = reply["session"]
        self.resumed = bool(reply.get("resumed"))
        self.data_version = reply.get("data_version", self.data_version)

    def _result(self, reply: dict) -> Result:
        """A ``result`` frame as the transport-independent :class:`Result`."""
        self.data_version = reply.get("data_version", self.data_version)
        items = reply.get("items")  # presentation order: the rows first
        rows = None
        if items is not None:
            shown = reply.get("shown")
            rows = [row for row, _ in (items if shown is None else items[:shown])]
        now = reply.get("now")
        return Result(
            kind=reply.get("result_kind", ""),
            message=reply.get("message", ""),
            columns=tuple(reply.get("columns", ())),
            rows=rows,
            items=items,
            rowcount=reply.get("rowcount", 0),
            names=tuple(reply.get("names", ())),
            now=ts(0) if now is None else decode_exp(now),
            data_version=reply.get("data_version", 0),
        )

    def _open_subscription(self, reply: dict, view: str) -> _WireSubscription:
        """A ``sub-ok`` frame's subscription, registered; :meth:`_restore`
        then puts it at the frame's snapshot."""
        sub = _WireSubscription(
            self,
            int(reply["sub"]),
            reply.get("view", view),
            tuple(reply.get("columns", ())),
        )
        self.subscriptions[sub.sub_id] = sub
        return sub

    def _restore(self, sub: _WireSubscription, frame: dict) -> _WireSubscription:
        """Reset ``sub`` to the snapshot ``frame`` carries and ack it."""
        sub.apply_snapshot(frame)
        self._send(sub.ack_payload())
        return sub

    def _unsubscribe(self, sub: _WireSubscription) -> None:
        """Drop ``sub`` and tell the server, fire-and-forget: closing a
        subscription does not wait, so its reply is dropped on arrival."""
        self.subscriptions.pop(sub.sub_id, None)
        if not self.closed:
            try:
                self._request({"kind": "unsubscribe", "sub": sub.sub_id})
            except OSError:  # the connection is gone; so is the stream
                pass

    def _note_time(self, frame: dict) -> None:
        raw = frame.get("now")
        if raw is not None or "now" in frame:
            stamp = decode_exp(raw)
            if not stamp.is_infinite and stamp > self.now:
                self.now = stamp
                if stamp > self.floor:
                    self.floor = stamp

    def _handle_push(self, frame: dict) -> None:
        """Apply one push frame, acking what it delivered."""
        self._pushes += 1
        self._note_time(frame)
        kind = frame.get("kind")
        sub = self.subscriptions.get(int(frame.get("sub", -1)))
        if sub is None or sub.closed:
            return
        if kind == "patch":
            sub.apply_patch(frame)
            self._send(sub.ack_payload())  # cumulative: re-acks duplicates too
        elif kind == "snapshot":
            # A refetch's reply taken as a push (the simulator's client);
            # one from an epoch since invalidated is stale.
            if int(frame.get("epoch", -1)) >= sub.epoch:
                self._restore(sub, frame)
        elif kind == "invalidate":
            sub.apply_invalidate(frame)
            self._send(sub.ack_payload())  # the server holds it until acked

    def _ack_state(self) -> dict:
        """The per-subscription delivery state sent with a resume hello."""
        return {
            str(sub.sub_id): {"epoch": sub.epoch, "cum": sub.applied}
            for sub in self.subscriptions.values()
            if not sub.closed
        }


# ---------------------------------------------------------------------------
# Synchronous socket client
# ---------------------------------------------------------------------------


class NetworkSession(Session, _WireSessionState):
    """A blocking-socket session speaking the frame protocol.

    One in-flight request at a time (requests are serialised on the
    server's event loop anyway); subscription pushes are handled while
    waiting for replies and on explicit :meth:`poll`.  Reconnect with
    :meth:`reconnect` -- the server resumes the session by token and
    retransmits exactly the unexpired remainder.
    """

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        _WireSessionState.__init__(self)
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._connect(resume=None)

    # -- transport -----------------------------------------------------------

    def _connect(self, resume: Optional[str]) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._attach(self._sock.sendall)
        self._adopt_hello(self._await(self._request(self._hello(resume))))

    def _await(self, rid: int) -> dict:
        """Block (up to the timeout per ``recv``) for the reply to ``rid``."""
        assert self._sock is not None
        reply = None
        while reply is None:
            chunk = self._sock.recv(_CHUNK)
            if not chunk:
                raise self._hung_up()
            reply = self._receive(chunk, rid)
        return reply

    def _rpc(self, payload: dict) -> dict:
        return self._checked(self._await(self._request(payload)))

    def poll(self, timeout: float = 0.0) -> int:
        """Handle queued pushes without issuing a request.

        Returns the number of push frames handled; ``timeout`` bounds the
        wait for the *first* byte (0 = only what is already queued).
        Pushes that arrived in the same chunk as an earlier reply are
        handled first, without waiting.  After the first chunk only bytes
        already buffered are read, and nothing is waited for: a stream that
        never pauses must not hold the caller (a socket timeout is a
        millisecond at least, so a drain that waited for a lull read on
        while the caller's clock ran).
        """
        self._check_open()
        sock = self._sock
        assert sock is not None
        before = self._pushes
        self._receive(b"")
        try:
            # A zero timeout reads without waiting.
            sock.settimeout(max(timeout, 0.0) if self._pushes == before else 0.0)
            chunk = sock.recv(_CHUNK)
            while chunk:
                self._receive(chunk)
                if len(chunk) < _CHUNK:
                    break  # that was all there was
                sock.settimeout(0.0)
                chunk = sock.recv(_CHUNK)
        except (socket.timeout, BlockingIOError):
            pass
        finally:
            sock.settimeout(self.timeout)
        return self._pushes - before

    # -- the session surface -------------------------------------------------

    def execute(self, text: str) -> Result:
        return self._result(self._rpc({"kind": "sql", "text": text}))

    def query(self, text: str) -> Result:
        return self._result(self._rpc({"kind": "query", "text": text}))

    def subscribe(self, view: str) -> _WireSubscription:
        reply = self._rpc({"kind": "subscribe", "view": view})
        return self._restore(self._open_subscription(reply, view), reply)

    def _refetch(self, sub: _WireSubscription) -> None:
        self._restore(sub, self._rpc({"kind": "refetch", "sub": sub.sub_id}))

    # -- lifecycle -----------------------------------------------------------

    def disconnect(self) -> None:
        """Drop the socket *without* closing the server-side session."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def reconnect(self) -> None:
        """Re-dial and resume: the server replays the unexpired remainder."""
        self._check_open()
        self.disconnect()
        self._connect(resume=self.token)
        # Whatever the server owed us was queued right behind hello-ok.
        self.poll(timeout=0.05)

    def close(self) -> None:
        if self.closed:
            return
        try:
            if self._sock is not None:
                self._rpc({"kind": "bye"})
        except (ConnectionError, OSError, WireProtocolError, RemoteError):
            pass
        finally:
            self.closed = True
            self.disconnect()


# ---------------------------------------------------------------------------
# Asyncio client (used by the load generator and the server's own tests)
# ---------------------------------------------------------------------------


class AsyncSession(_WireSessionState):
    """The asyncio twin of :class:`NetworkSession`.

    Works over any ``(StreamReader, writer)`` pair -- a real TCP
    connection (:meth:`open`) or a server's in-process loopback transport
    (:meth:`over_loopback`), which is how one process hosts 10k+
    concurrent clients with zero sockets.
    """

    def __init__(self, reader, writer) -> None:
        super().__init__()
        self._reader = reader
        self._writer = writer
        self._attach(writer.write)

    @classmethod
    async def open(cls, host: str, port: int, resume: Optional[str] = None,
                   acks: Optional[dict] = None) -> "AsyncSession":
        reader, writer = await asyncio.open_connection(host, port)
        return await cls._handshake(reader, writer, resume, acks)

    @classmethod
    async def over_loopback(cls, server, resume: Optional[str] = None,
                            acks: Optional[dict] = None) -> "AsyncSession":
        reader, writer = server.open_loopback()
        return await cls._handshake(reader, writer, resume, acks)

    @classmethod
    async def _handshake(cls, reader, writer, resume, acks) -> "AsyncSession":
        session = cls(reader, writer)
        rid = session._request(session._hello(resume, acks))
        session._adopt_hello(await session._await(rid))
        return session

    async def _await(self, rid: int) -> dict:
        """The reply to ``rid``, once the writes before it have drained."""
        await self._writer.drain()
        reply = None
        while reply is None:
            chunk = await self._reader.read(_CHUNK)
            if not chunk:
                raise self._hung_up()
            reply = self._receive(chunk, rid)
        return reply

    async def _rpc(self, payload: dict) -> dict:
        return self._checked(await self._await(self._request(payload)))

    async def execute(self, text: str) -> Result:
        """Run one SQL statement (any kind) and return its result."""
        return self._result(await self._rpc({"kind": "sql", "text": text}))

    async def query(self, text: str) -> Result:
        """Run one row-producing statement; the server refuses DDL/DML."""
        return self._result(await self._rpc({"kind": "query", "text": text}))

    async def subscribe(self, view: str) -> _WireSubscription:
        """Open a client-side materialisation of the named view."""
        reply = await self._rpc({"kind": "subscribe", "view": view})
        return self._restore(self._open_subscription(reply, view), reply)

    async def refetch(self, sub: "_WireSubscription") -> None:
        """Restore a degraded subscription with a full snapshot."""
        self._restore(sub, await self._rpc({"kind": "refetch", "sub": sub.sub_id}))

    async def poll(self, timeout: float = 0.0) -> int:
        """Handle pushes already in flight; returns how many.

        Pushes already queued are handled, without reading; else one
        chunk is read, ``timeout`` bounding the wait for it.  A cancelled
        read consumes nothing, so a frame cut off by the timeout is
        finished by the next call.
        """
        before = self._pushes
        self._receive(b"")
        if self._pushes == before:
            try:
                chunk = await asyncio.wait_for(
                    self._reader.read(_CHUNK), timeout=max(timeout, 0.001)
                )
            except asyncio.TimeoutError:
                chunk = b""  # nothing in flight
            # One chunk is what the reader had buffered, up to _CHUNK; a
            # poll that read on would wait for the next frame to arrive.
            self._receive(chunk)
        if self._pushes > before:
            await self._writer.drain()
        return self._pushes - before

    async def ping(self) -> Timestamp:
        """Round-trip liveness probe; returns the server's logical now."""
        reply = await self._rpc({"kind": "ping"})
        return decode_exp(reply.get("now"))

    async def close(self) -> None:
        """Orderly ``bye`` and transport teardown (idempotent)."""
        if self.closed:
            return
        try:
            await self._rpc({"kind": "bye"})
        except (ConnectionError, WireProtocolError, RemoteError, OSError):
            pass
        finally:
            self.closed = True
            try:
                self._writer.close()
            except (ConnectionError, RuntimeError, OSError):
                pass

    def _refetch(self, sub: "_WireSubscription") -> None:
        raise SessionError(
            "this subscription degraded to invalidate-and-refetch; "
            "await session.refetch(subscription) to restore it"
        )


# ---------------------------------------------------------------------------
# connect()
# ---------------------------------------------------------------------------


def _open_durable(path: Path, config: Optional[DatabaseConfig]) -> Database:
    """Open (or crash-recover) the durable database rooted at ``path``."""
    if config is None:
        config = DatabaseConfig()
    snapshot = path / WriteAheadLog.SNAPSHOT_NAME
    log = path / WriteAheadLog.LOG_NAME
    if snapshot.exists() or (log.exists() and log.stat().st_size > 0):
        from repro.engine.recovery import recover_database

        # The whole config, so a restart builds the database a fresh
        # directory would; the clock and the log come from the recovered
        # state (recovery attaches the log itself, after replay).
        return recover_database(
            path,
            fsync=config.wal_fsync,
            config=config.replace(start_time=0, wal_dir=None),
        )
    return Database(config=config.replace(wal_dir=path))


def connect(
    target: Union[None, str, Path, Database] = None,
    *,
    config: Optional[DatabaseConfig] = None,
    timeout: float = 10.0,
) -> Session:
    """Open a session on an engine, wherever it lives.

    ========================  =============================================
    ``target``                behaviour
    ========================  =============================================
    ``None`` / ``":memory:"`` a fresh in-memory database, owned by the
                              session (closed with it)
    a ``Database``            wrap it; the caller keeps ownership
    ``"repro://host:port"``   speak the wire protocol to a running server
    a filesystem path         open -- or crash-recover -- a durable
                              database rooted there (owned)
    ========================  =============================================

    ``config`` supplies a :class:`~repro.engine.config.DatabaseConfig` for
    the paths that create a database; ``timeout`` applies to the socket
    path.
    """
    if isinstance(target, Database):
        return LocalSession(target, own_database=False)
    if target is None or target == ":memory:":
        return LocalSession(Database(config=config), own_database=True)
    if isinstance(target, str) and target.startswith("repro://"):
        rest = target[len("repro://"):].rstrip("/")
        host, _, port = rest.rpartition(":")
        if not host or not port.isdigit():
            raise SessionError(
                f"malformed server URL {target!r}; expected repro://host:port"
            )
        return NetworkSession(host, int(port), timeout=timeout)
    return LocalSession(
        _open_durable(Path(target), config), own_database=True
    )
