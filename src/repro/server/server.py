"""The asyncio server: one engine, many sessions, patch streams on sockets.

One :class:`ReproServer` wraps one :class:`~repro.engine.database.Database`
and serves it over two interchangeable transports:

* real TCP via :meth:`ReproServer.start` / ``loop.create_server``;
* an **in-process loopback** via :meth:`ReproServer.open_loopback`, which
  wires a client's :class:`asyncio.StreamReader` to the server with no
  file descriptors at all -- the load generator drives 10k+ concurrent
  clients through it in a single process without touching ``ulimit``.

Everything above the transport is identical: each connection is one
:class:`_Connection` protocol object whose ``data_received`` decodes the
bytes, dispatches every complete frame and writes the session's outbox
back as one ``transport.write``, all inside the loop's callback -- no
task, no stream buffer and no writer wake-up per request (a socket reads
into one buffer the server owns).  What it does between bytes in and
bytes out -- the hello, the dispatch, the encoding -- is
:class:`ServerEnd`, free of I/O, which the simulator
(:mod:`repro.distributed.simulator`) drives over its lossy links too.
The session itself outlives the connection for resume
(:mod:`repro.server.session`).

The engine is single-threaded and so is the server: all statements execute
on the event loop, serialised by construction, which is exactly the
engine's existing concurrency contract.  After every statement,
:meth:`ReproServer.pump` ships each subscription what its view changed
since the subscription's cursor -- a view the statement did not touch is
skipped on its own state -- and queues patches, applying the backpressure
ladder per session.

Metrics land in the database's registry under the ``repro_server_*``
families declared by :func:`declare_server_families`.
"""

from __future__ import annotations

import asyncio
import time
from functools import partial
from typing import Dict, List, Optional, Set, Tuple

from repro.codec import Block, encode_exp
from repro.engine.config import DatabaseConfig
from repro.engine.database import Database
from repro.errors import (
    RemoteError,
    ReproError,
    SessionError,
    WireProtocolError,
)
from repro.obs.registry import MetricsRegistry
from repro.server.protocol import PROTOCOL_VERSION, FrameDecoder, encode_frame
from repro.server.session import RetryPolicy, ServerSession
from repro.sql.executor import SqlResult, execute_sql

__all__ = ["ReproServer", "ServerEnd", "declare_server_families"]


def declare_server_families(registry: MetricsRegistry) -> Dict[str, object]:
    """Register (idempotently) every ``repro_server_*`` metric family."""
    return {
        "connections": registry.counter(
            "repro_server_connections_total",
            "Connections accepted (TCP and loopback)",
        ),
        "active": registry.gauge(
            "repro_server_connections_active",
            "Connections currently attached",
        ),
        "sessions": registry.gauge(
            "repro_server_sessions_active",
            "Server-side sessions alive (attached or resumable)",
        ),
        "resumed": registry.counter(
            "repro_server_sessions_resumed_total",
            "Sessions re-attached via hello/resume",
        ),
        "requests": registry.counter(
            "repro_server_requests_total",
            "Request frames dispatched, by kind",
            labels=("kind",),
        ),
        "request_seconds": registry.histogram(
            "repro_server_request_seconds",
            "Server-side dispatch latency per request frame",
        ),
        "frames_in": registry.counter(
            "repro_server_frames_received_total",
            "Frames read off connections (after the hello)",
        ),
        "frames_out": registry.counter(
            "repro_server_frames_sent_total",
            "Frames written to connections",
        ),
        "bytes_out": registry.counter(
            "repro_server_bytes_sent_total",
            "Payload bytes written to connections (incl. frame headers)",
        ),
        "patches": registry.counter(
            "repro_server_patches_sent_total",
            "Incremental subscription patch envelopes queued",
        ),
        "patch_rows": registry.counter(
            "repro_server_patch_rows_total",
            "Rows carried by patch envelopes, by operation",
            labels=("op",),
        ),
        "snapshots": registry.counter(
            "repro_server_snapshots_sent_total",
            "Full view snapshots shipped (subscribe and refetch)",
        ),
        "retransmissions": registry.counter(
            "repro_server_retransmissions_total",
            "Patch envelopes retransmitted (resume and timer sweeps)",
        ),
        "avoided": registry.counter(
            "repro_server_retransmissions_avoided_total",
            "Retransmissions cancelled because every tuple had expired",
        ),
        "degrades": registry.counter(
            "repro_server_backpressure_degrades_total",
            "Subscriptions degraded to invalidate-and-refetch",
        ),
        "invalidates": registry.counter(
            "repro_server_invalidates_sent_total",
            "Invalidate notices queued",
        ),
        "errors": registry.counter(
            "repro_server_errors_total",
            "Error frames sent back to clients",
        ),
        "subs": registry.gauge(
            "repro_server_subscriptions_active",
            "Open subscriptions across all sessions",
        ),
    }


class LoopbackWriter:
    """One end of the in-process transport: ``write``, ``drain``, ``close``.

    ``write`` hands the bytes to ``feed`` and ``close`` calls ``hang_up``.
    The server's end feeds the client's :class:`asyncio.StreamReader`; the
    client's end hands bytes and hang-up to the server's
    :class:`_Connection` one loop iteration later, so a write never
    re-enters the server synchronously.  No sockets, no file descriptors
    -- which is what lets one process hold 10k+ concurrent "connections".
    """

    def __init__(self, feed, hang_up) -> None:
        self._feed, self._hang_up = feed, hang_up
        self._closed = False

    def write(self, data: bytes) -> None:
        if not self._closed:
            self._feed(bytes(data))

    async def drain(self) -> None:
        # No kernel buffer to await; yield so a busy writer cannot starve
        # the loop.
        await asyncio.sleep(0)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._hang_up()

    abort = close  # nothing is buffered that a hang-up could drop


class ServerEnd:
    """One connection's work between bytes in and bytes out, free of I/O.

    :meth:`_receive` feeds a chunk to the decoder and runs every frame it
    completes -- the ``hello`` first, then :meth:`ReproServer._dispatch`
    -- and says whether the connection must hang up once the replies are
    out; :meth:`_write` encodes payloads and hands the frames to
    :meth:`_transmit`.  A transport subclass supplies :meth:`_transmit`
    and :meth:`_wake` (the session queued a frame), and decides when the
    session's outbox goes out.
    """

    def __init__(self, server: "ReproServer") -> None:
        self.server = server
        self.session: Optional[ServerSession] = None
        self.decoder = FrameDecoder()
        self._farewell = False

    def _receive(self, data: bytes) -> bool:
        """Run the frames ``data`` completes; True when the connection
        must hang up after answering them (a corrupt frame, a refused
        hello, a ``bye``)."""
        try:
            frames, fault = self.decoder.feed(data), False
        except WireProtocolError as error:  # framing sync lost: answer the
            frames, fault = error.frames, True  # good frames, then hang up
        for frame in frames:
            if self.session is None:
                self._farewell = not self._hello(frame)
            else:
                self.server.families["frames_in"].inc()
                self._farewell = self.server._dispatch(self.session, frame)
            if self._farewell:
                break  # refused or said bye: nothing after it runs
        return fault or self._farewell

    def _hello(self, hello: dict) -> bool:
        """Open or resume the session; False when the hello is refused."""
        try:
            if hello.get("kind") != "hello":
                raise WireProtocolError(f"expected hello, got {hello.get('kind')!r}")
            if hello.get("version") != PROTOCOL_VERSION:
                raise WireProtocolError(
                    f"protocol version mismatch: client "
                    f"{hello.get('version')!r}, server {PROTOCOL_VERSION}")
            acks = _resume_acks(hello.get("acks"))
            session, resumed = self.server._open_session(hello.get("resume"))
            session.check_floor()
        except (WireProtocolError, SessionError) as error:
            self._write([_error_payload(hello.get("id"), error)])
            return False
        self.session = session
        session.attached, session.detached_at = True, None
        session.on_enqueue = self._wake
        session.enqueue({
            "kind": "hello-ok", "re": hello.get("id"), "resumed": resumed,
            "session": session.token, "data_version": session.data_version,
            "now": encode_exp(self.server.db.clock.now),
            "floor": encode_exp(session.floor), "version": PROTOCOL_VERSION})
        if resumed:
            self.server.families["resumed"].inc()
            before = _retrans_counts(session)
            for frame in session.resume_frames(acks, self.server._monotonic()):
                session.enqueue(frame)
            self.server._publish_retrans(session, before)
        return True

    def _wake(self) -> None:
        """The session queued a frame."""
        raise NotImplementedError

    def _transmit(self, frames: List[bytes]) -> None:
        """Put encoded frames on the transport, in order."""
        raise NotImplementedError

    def _write(self, payloads) -> None:
        fam = self.server.families
        frames = []
        for payload in payloads:
            try:
                frames.append(encode_frame(payload))
            except WireProtocolError as error:  # fails this reply only
                fam["errors"].inc()
                frames.append(encode_frame(_error_payload(payload.get("re"), error)))
        fam["frames_out"].inc(len(frames))
        fam["bytes_out"].inc(sum(map(len, frames)))
        self._transmit(frames)


class _Connection(ServerEnd, asyncio.BufferedProtocol):
    """One connection, TCP or loopback, served in the loop's callbacks; frames
    queued elsewhere (a pump, a sweep) schedule one flush per loop turn."""

    def __init__(self, server: "ReproServer") -> None:
        super().__init__(server)
        self.transport = None
        self._call_soon = asyncio.get_running_loop().call_soon
        self._flush_due = self._paused = False

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._connections.add(self)
        self.server.families["connections"].inc()
        self.server.families["active"].inc()

    # A socket reads into the server's one buffer (``Protocol`` allocates
    # 256 KiB per recv); the decoder copies what it keeps.
    def get_buffer(self, sizehint: int) -> memoryview:
        return self.server._read_buffer

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self.server._read_buffer[:nbytes])

    def data_received(self, data: bytes) -> None:
        if self.transport is None:
            return  # loopback bytes still in flight at the hang-up
        # One flush below covers every reply; it hangs up unless all ran.
        self._flush_due = last = True
        try:
            last = self._receive(data)
        finally:  # after a bug too: answer what ran, then the loop reports it
            self._flush(last)

    def _wake(self) -> None:
        if not self._flush_due:
            self._flush_due = True
            self._call_soon(self._flush)

    def _flush(self, last: bool = False) -> None:
        # ``last`` writes even while paused, then hangs up.
        self._flush_due = False
        outbox = self.session.outbox if self.session else None
        if outbox and self.transport and (last or not self._paused):
            self._write(list(outbox))
            outbox.clear()
        if last:
            self.close()

    def _transmit(self, frames: List[bytes]) -> None:
        self.transport.write(b"".join(frames))

    def pause_writing(self) -> None:
        self._paused = True  # the outbox holds its frames until resumed

    def resume_writing(self) -> None:
        self._paused = False
        self._flush()

    def close(self, exc: Optional[Exception] = None) -> None:
        """Hang up and detach the session (idempotent)."""
        transport, self.transport = self.transport, None
        if transport is None:
            return
        transport.close()  # a transport sends what it holds, then closes
        self.server._connections.discard(self)
        self.server.families["active"].dec()
        if self.session is not None:
            self.session.on_enqueue = None
            self.session.detach(self.server._monotonic())
            if self._farewell or self.server._closed:
                self.server._drop_session(self.session)
        self.server._gc_sessions()

    connection_lost = close


class ReproServer:
    """Serve one expiration-time database over frames.

    ``db=None`` creates (and owns) a fresh in-memory database, optionally
    from ``config``; passing an existing database serves it without taking
    ownership (``stop`` will not close it).
    """

    #: The clock retransmission timers and detach times read: monotonic
    #: seconds (the simulator's subclass reads its ticks).
    _monotonic = staticmethod(time.monotonic)

    def __init__(
        self,
        db: Optional[Database] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        config: Optional[DatabaseConfig] = None,
        max_outbox: int = 256,
        retry: Optional[RetryPolicy] = None,
        session_ttl: float = 60.0,
        retransmit_interval: Optional[float] = None,
    ) -> None:
        if db is None:
            db = Database(config=config)
            self._owns_db = True
        else:
            self._owns_db = False
        self.db = db
        self.host = host
        self.port = port
        self.max_outbox = max_outbox
        self.retry = retry if retry is not None else RetryPolicy()
        #: How long a detached session stays resumable before GC.
        self.session_ttl = session_ttl
        #: Period of the timer-driven retransmission sweep; ``None``
        #: disables the background task (sweeps can still be forced with
        #: :meth:`retransmit_now` -- tests do, for determinism).
        self.retransmit_interval = retransmit_interval
        self.sessions: Dict[str, ServerSession] = {}
        #: Sessions holding at least one subscription -- the only ones the
        #: pump and the retransmission sweep ever need to visit.  Keeping
        #: this index makes per-statement pump cost O(subscribers), not
        #: O(connected clients).
        self._streaming: Dict[str, ServerSession] = {}
        self._sub_count = 0
        self._last_gc = 0.0
        self.families = declare_server_families(db.metrics)
        self._server: Optional[asyncio.AbstractServer] = None
        self._sweep_task: Optional[asyncio.Task] = None
        self._connections: Set[_Connection] = set()
        #: What every socket connection reads into (see ``get_buffer``).
        self._read_buffer = memoryview(bytearray(1 << 16))
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the TCP listener; returns the bound ``(host, port)``."""
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        if self.retransmit_interval is not None and self._sweep_task is None:
            self._sweep_task = asyncio.ensure_future(self._sweep_loop())
        return self.host, self.port

    @property
    def address(self) -> str:
        """The server's URL, suitable for :func:`repro.connect`."""
        return f"repro://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        """Block serving the TCP listener until cancelled."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop listening, drop connections, close sessions (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._sweep_task is not None:
            self._sweep_task.cancel()
            self._sweep_task = None
        if self._server is not None:
            self._server.close()
        for conn in list(self._connections):
            conn.transport.abort()  # the session goes too: drop what is queued
            conn.close()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        for session in list(self.sessions.values()):
            session.close()
        self.sessions.clear()
        self._streaming.clear()
        self._sub_count = 0
        self.families["sessions"].set(0)
        self.families["subs"].set(0)
        if self._owns_db:
            self.db.close()

    # -- transports ----------------------------------------------------------

    def open_loopback(self) -> Tuple[asyncio.StreamReader, LoopbackWriter]:
        """Open an in-process connection; returns the *client* end.

        Works without :meth:`start` -- no listener, no socket: the server
        side is a :class:`_Connection` on the current loop, fed by the
        returned writer and feeding the returned reader.
        """
        reader, conn = asyncio.StreamReader(), _Connection(self)
        conn.connection_made(LoopbackWriter(reader.feed_data, reader.feed_eof))
        later = conn._call_soon
        return reader, LoopbackWriter(
            partial(later, conn.data_received), partial(later, conn.close))

    # -- sessions ------------------------------------------------------------

    def _open_session(
        self, resume: Optional[str]
    ) -> Tuple[ServerSession, bool]:
        if resume is not None:
            candidate = self.sessions.get(resume)
            if (
                candidate is not None
                and not candidate.closed
                and not candidate.attached
            ):
                return candidate, True
        session = ServerSession(
            self.db, max_outbox=self.max_outbox, retry=self.retry
        )
        self.sessions[session.token] = session
        self.families["sessions"].set(len(self.sessions))
        return session, False

    def _drop_session(self, session: ServerSession) -> None:
        if session.subscriptions:
            self._adjust_subs(-len(session.subscriptions))
        session.close()
        self.sessions.pop(session.token, None)
        self._streaming.pop(session.token, None)
        self.families["sessions"].set(len(self.sessions))

    def _gc_sessions(self) -> None:
        """Expire detached sessions older than ``session_ttl``.

        Throttled to at most one full scan per second: it runs on every
        connection teardown, and an unthrottled O(sessions) scan would
        make a mass disconnect quadratic.
        """
        monotonic_now = self._monotonic()
        if monotonic_now - self._last_gc < 1.0:
            return
        self._last_gc = monotonic_now
        cutoff = monotonic_now - self.session_ttl
        for session in list(self.sessions.values()):
            if (
                not session.attached
                and session.detached_at is not None
                and session.detached_at < cutoff
            ):
                self._drop_session(session)

    def _adjust_subs(self, delta: int) -> None:
        self._sub_count = max(0, self._sub_count + delta)
        self.families["subs"].set(self._sub_count)

    def _note_unsubscribed(self, session: ServerSession) -> None:
        """Bookkeeping after one subscription left ``session``."""
        self._adjust_subs(-1)
        if not session.subscriptions:
            self._streaming.pop(session.token, None)

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, session: ServerSession, frame: dict) -> bool:
        """Handle one request frame; returns True on orderly ``bye``."""
        kind = frame.get("kind")
        rid = frame.get("id")
        fam = self.families
        fam["requests"].labels(str(kind)).inc()
        started = time.perf_counter()
        try:
            if kind in ("sql", "query"):
                self._dispatch_sql(session, frame, rid, require_rows=(kind == "query"))
            elif kind == "subscribe":
                self._dispatch_subscribe(session, frame, rid)
            elif kind == "unsubscribe":
                session.unsubscribe(_wire_int(frame, "sub"))
                self._note_unsubscribed(session)
                session.enqueue({"kind": "result", "re": rid,
                                 "result_kind": "unsubscribe", "message": "ok"})
            elif kind == "refetch":
                self._dispatch_refetch(session, frame, rid)
            elif kind == "ack":
                sub = session.subscriptions.get(_wire_int(frame, "sub"))
                epoch, cum = _wire_int(frame, "epoch"), _wire_int(frame, "cum")
                if sub is not None:
                    sub.on_ack(epoch, cum)
            elif kind == "ping":
                session.enqueue(
                    {"kind": "pong", "re": rid,
                     "now": encode_exp(self.db.clock.now)}
                )
            elif kind == "bye":
                session.enqueue({"kind": "bye-ok", "re": rid})
                return True
            else:
                raise WireProtocolError(f"unknown request kind {kind!r}")
        except ReproError as error:
            fam["errors"].inc()
            session.enqueue(_error_payload(rid, error))
        finally:
            fam["request_seconds"].observe(time.perf_counter() - started)
        return False

    def _dispatch_sql(
        self, session: ServerSession, frame: dict, rid, require_rows: bool
    ) -> None:
        session.check_floor()
        result = execute_sql(
            self.db, frame.get("text", ""), require_rows=require_rows
        )
        session.observe()
        session.enqueue(self._result_payload(session, result, rid))
        self.pump()

    def _dispatch_subscribe(
        self, session: ServerSession, frame: dict, rid
    ) -> None:
        name = frame.get("view")
        view = self.db.view(str(name))  # CatalogError for unknown names
        sub = session.subscribe(view)
        self._streaming[session.token] = session
        self._adjust_subs(1)
        payload = sub.snapshot_payload(self.db.clock.now, columns=True)
        payload["kind"] = "sub-ok"
        payload["re"] = rid
        payload["view"] = view.name
        self.families["snapshots"].inc()
        session.enqueue(payload)

    def _dispatch_refetch(
        self, session: ServerSession, frame: dict, rid
    ) -> None:
        sub_id = _wire_int(frame, "sub")
        sub = session.subscriptions.get(sub_id)
        if sub is None:
            raise SessionError(
                f"session {session.token}: unknown subscription {sub_id}"
            )
        payload = sub.snapshot_payload(self.db.clock.now)
        payload["re"] = rid
        self.families["snapshots"].inc()
        session.enqueue(payload)

    def _result_payload(
        self, session: ServerSession, result: SqlResult, rid
    ) -> dict:
        payload = {
            "kind": "result",
            "re": rid,
            "result_kind": result.kind,
            "message": result.message,
            "rowcount": result.rowcount,
            "now": encode_exp(self.db.clock.now),
            "floor": encode_exp(session.floor),
            "data_version": session.data_version,
        }
        if result.names:
            payload["names"] = list(result.names)
        relation = result.relation
        if relation is not None:
            payload["columns"] = list(relation.schema.names)
            # The full item set with expirations, so clients keep the
            # paper's semantics rather than a dead row list, shipped once:
            # the presentation rows (ordered, limited) first, then the rest.
            rows = result.rows or []
            items = list(relation.items_of(rows))
            if len(items) < len(relation):
                shown = set(rows)
                items += [item for item in relation.items() if item[0] not in shown]
            if len(rows) < len(items):
                payload["shown"] = len(rows)
            payload["items"] = Block(items)
        return payload

    # -- subscription pump ---------------------------------------------------

    def pump(self) -> int:
        """Ship every live subscription what its view changed.

        Called after each statement.  Only sessions holding subscriptions
        are visited (the ``_streaming`` index).  A subscription is skipped
        when its view is settled (no fold batch, touched row, stale cause
        or due partition or patch tick at now) and its cursor is at the
        end of the view's change log, so a write elsewhere costs nothing
        per view row.  Otherwise the first subscription brings the view
        current, which appends the changes to the log, and each one takes
        the entries past its cursor (:meth:`ServerSubscription.diff_payload`).
        The logs are then trimmed to their oldest cursor.  Returns the
        number of envelopes queued (patches plus invalidates).
        """
        db = self.db
        now = db.clock.now
        fam = self.families
        queued = 0
        moved = {}  # the views whose logs were taken from, to trim
        for session in list(self._streaming.values()):
            if session.closed:
                continue
            for sub in list(session.subscriptions.values()):
                view = sub.view
                if not db.has_view(view.name) or db.view(view.name) is not view:
                    # The view was dropped (or dropped and recreated) out
                    # from under the stream; the client must resubscribe.
                    notice = sub.degrade(now, "view-dropped")
                    session.unsubscribe(sub.sub_id)
                    session.enqueue(notice)
                    fam["invalidates"].inc()
                    self._note_unsubscribed(session)
                    queued += 1
                    continue
                if sub.degraded or (
                    view.settled(now) and not view.log.has_news(sub)
                ):
                    continue
                if sub.fell_behind():
                    session.degrade(sub, "lagging", self._monotonic())
                    fam["degrades"].inc()
                    fam["invalidates"].inc()
                    queued += 1
                    continue
                moved[id(view)] = view
                patch = sub.diff_payload(now)
                if patch is None:
                    continue
                payload, expires_at = patch
                before = _retrans_counts(session)
                notice = session.enqueue_patch(
                    sub, payload, expires_at, self._monotonic()
                )
                # A full outbox first retires envelopes whose tuples died.
                self._publish_retrans(session, before)
                queued += 1
                if notice is not None:
                    fam["degrades"].inc()
                    fam["invalidates"].inc()
                else:
                    fam["patches"].inc()
                    fam["patch_rows"].labels("upsert").inc(
                        len(payload.get("upserts", ()))
                    )
                    fam["patch_rows"].labels("remove").inc(
                        len(payload.get("removes", ()))
                    )
        for view in moved.values():
            if view.log is not None:
                view.log.trim()
        return queued

    # -- retransmission ------------------------------------------------------

    def retransmit_now(self, monotonic_now: Optional[float] = None) -> int:
        """Run one retransmission sweep over every attached session.

        Returns the number of envelopes resent.  Normally driven by the
        background task (``retransmit_interval``); callable directly for
        deterministic tests.
        """
        if monotonic_now is None:
            monotonic_now = self._monotonic()
        fam = self.families
        resent = 0
        # Only streaming sessions can owe patch envelopes.
        for session in list(self._streaming.values()):
            if session.closed or not session.attached:
                continue
            before = _retrans_counts(session)
            frames, degraded = session.retransmit_due(monotonic_now)
            for frame in frames:
                session.enqueue(frame)
            resent += len(frames)
            if degraded:
                fam["degrades"].inc(degraded)
                fam["invalidates"].inc(degraded)
            self._publish_retrans(session, before)
        return resent

    async def _sweep_loop(self) -> None:
        assert self.retransmit_interval is not None
        try:
            while True:
                await asyncio.sleep(self.retransmit_interval)
                self.retransmit_now()
        except asyncio.CancelledError:
            pass

    def _publish_retrans(
        self, session: ServerSession, before: Tuple[int, int]
    ) -> None:
        delta_sent = session.stats.retransmissions - before[0]
        delta_avoided = session.stats.retransmissions_avoided - before[1]
        if delta_sent:
            self.families["retransmissions"].inc(delta_sent)
        if delta_avoided:
            self.families["avoided"].inc(delta_avoided)


def _retrans_counts(session: ServerSession) -> Tuple[int, int]:
    return session.stats.retransmissions, session.stats.retransmissions_avoided


def _wire_int(fields: dict, key: str) -> int:
    """``fields[key]`` as a request field that must be an integer."""
    value = fields.get(key)
    if type(value) is not int:
        raise WireProtocolError(
            f"field {key!r} must be an integer, got {value!r}"
        )
    return value


def _resume_acks(acks) -> Dict[int, Tuple[int, int]]:
    """A resuming hello's ``{"<sub>": {"epoch": e, "cum": n}, ...}`` as
    ``{sub: (e, n)}``; absent means none."""
    try:
        return {int(key): (_wire_int(state, "epoch"), _wire_int(state, "cum"))
                for key, state in (acks or {}).items()}
    except (AttributeError, ValueError, WireProtocolError):
        raise WireProtocolError(
            f"hello 'acks' is not a delivery state: {acks!r}"
        ) from None


def _error_payload(rid, error: Exception) -> dict:
    remote_type = type(error).__name__
    if isinstance(error, RemoteError):  # don't re-wrap on proxy chains
        remote_type = error.remote_type
    return {
        "kind": "error",
        "re": rid,
        "error": remote_type,
        "message": str(error),
    }
