"""The network serving layer: an asyncio TCP front-end for the service.

``python -m repro serve --listen HOST:PORT`` puts the existing JSONL
wire protocol (:mod:`repro.serve.protocol` — queries and aggregate ops,
newline-framed, ``ok``/``shed``/``error`` statuses) on a socket, so the
:class:`~repro.serve.service.ProfilingService` becomes reachable by
many concurrent out-of-process clients instead of one stdin pipe.

Design (every guarantee here is pinned by ``tests/test_serve_net.py``):

* **One line in, at least one line out.**  Every complete request line
  produces exactly one response — one per matched session for the
  ``"*"`` wildcard (expanded server-side, echoing the line's ``id``) —
  and a malformed, oversized, or unparseable line produces a typed
  ``status: error`` response.  Nothing is silently dropped, and no
  exception escapes a connection handler.
* **Read backpressure.**  Each connection holds a bounded in-flight
  permit pool (:attr:`NetConfig.inflight_per_connection`); when a
  client has that many queries outstanding the server simply stops
  reading its socket, and TCP flow control pushes the wait back to the
  sender.  A slowloris writer or a mid-line disconnect affects only its
  own connection.
* **Write backpressure.**  Responses flow through a bounded per-
  connection outbound queue drained by a single writer task.  A read
  chunk's inline answers go in as one item; each wake-up of the writer
  takes every item already queued, writes their lines in one ``write``
  and ``await``\\ s one ``drain()``; a client that stops reading stalls
  only its own pipeline.
* **Queries answered inline.**  A query is answered on the event loop
  itself — hit or miss, no executor hop — whenever that needs no
  waiting: no fault plane is armed, the query's session is not spilled
  (a fault-in reads the store and may back off), and the service lock
  is free at that instant.  The pool buys no parallelism here:
  the GIL and the service lock serialise all service work, and a pool
  hop costs more CPU than most misses.  After an inline miss the read
  loop yields, so a connection streaming misses cannot starve the
  others.  Everything else (aggregates, spilled sessions, any query
  while the lock is held or a plane is armed) goes to the thread
  pool and runs under the service lock.  Either way the response is
  encoded by :func:`~repro.serve.protocol.encode_response_line`, which
  reuses a cached report's JSON text.
* **Admission control.**  Only pool work is admitted: a query that
  arrives while the server-wide pending count is at
  :attr:`NetConfig.max_pending` is refused with an explicit
  ``status: shed`` response through
  :meth:`~repro.serve.service.ProfilingService.shed` (shedding comes
  before any inline answer), keeping the service-wide
  ``received == answered + errors + shed`` invariant.
* **Deadlines.**  Every query admitted to the pool carries a deadline
  stamped at admission; a query that cannot produce its answer in
  :attr:`NetConfig.deadline_s` comes back as a typed ``error`` naming
  the query and session — the connection never hangs.  A pool thread
  checks the deadline again before any service work, so expired work
  never takes the service lock.
* **Graceful shutdown.**  :meth:`NetServer.shutdown` stops accepting,
  lets every connection finish the lines it has already received,
  flushes all in-flight responses, and only then closes sockets
  (bounded by :attr:`NetConfig.shutdown_timeout_s`).

Chaos sites ``net.accept`` / ``net.read`` / ``net.write`` /
``net.latency`` thread the transport through the fault plane
(:mod:`repro.faults`): latency injections exercise the deadline path,
io-errors kill a connection loudly (the peer sees the close), and
read/write corruption surfaces as parse errors — never a wrong answer.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..faults import fault_point, filter_read, filter_write, is_active
from ..faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy, retry_rng
from .client import QueryFailedError, build_query
from .core import (
    Reply,
    RequestStream,
    WorkItem,
    answer,
    error_line,
    failure,
    label,
    reply_line,
    work_items,
)
from .protocol import (
    ALL_SESSIONS,
    MAX_LINE_BYTES,
    STATUS_OK,
    STATUS_SHED,
    QueryRequest,
    QueryResponse,
)
from .service import ProfilingService

#: Socket read granularity for the line assembler.
READ_CHUNK = 1 << 16

#: Outbound-queue sentinel telling a connection's writer task to stop.
_CLOSE = object()


@dataclass(frozen=True)
class NetConfig:
    """Knobs for one TCP front-end."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: pick an ephemeral port (see NetServer.address)
    max_line_bytes: int = MAX_LINE_BYTES
    max_connections: int = 64
    max_pending: int = 256  # server-wide admission depth
    inflight_per_connection: int = 32
    pool_workers: int = 4  # threads answering queries off the event loop
    deadline_s: float = 30.0
    shutdown_timeout_s: float = 5.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (for manifests and smoke artifacts)."""
        return {
            "host": self.host,
            "port": self.port,
            "max_line_bytes": self.max_line_bytes,
            "max_connections": self.max_connections,
            "max_pending": self.max_pending,
            "inflight_per_connection": self.inflight_per_connection,
            "pool_workers": self.pool_workers,
            "deadline_s": self.deadline_s,
            "shutdown_timeout_s": self.shutdown_timeout_s,
        }


@dataclass
class NetStats:
    """Transport-level counters (the service keeps its own).

    The accounting identity the tests pin:
    ``received == answered + errors + shed`` over admitted queries, and
    every non-skipped line yields at least one response.
    """

    connections_opened: int = 0
    connections_closed: int = 0
    connections_refused: int = 0
    lines: int = 0
    oversized: int = 0
    parse_errors: int = 0
    received: int = 0
    answered: int = 0
    errors: int = 0
    shed: int = 0
    deadline_exceeded: int = 0
    responses_written: int = 0
    read_errors: int = 0
    write_errors: int = 0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form (for the CLI summary / smoke artifacts)."""
        return {
            "connections_opened": self.connections_opened,
            "connections_closed": self.connections_closed,
            "connections_refused": self.connections_refused,
            "lines": self.lines,
            "oversized": self.oversized,
            "parse_errors": self.parse_errors,
            "received": self.received,
            "answered": self.answered,
            "errors": self.errors,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "responses_written": self.responses_written,
            "read_errors": self.read_errors,
            "write_errors": self.write_errors,
        }


class LineAssembler:
    """Chunk stream -> newline-framed lines, with oversized resync.

    Pure and synchronous so the framing logic is property-testable
    without sockets (``tests/test_protocol_property.py``): feeding the
    same byte stream in any chunking yields the same events.  Events
    are ``("line", bytes)`` for each complete line and
    ``("oversized", None)`` exactly once per line whose length exceeds
    ``max_line_bytes`` — the rest of that line is discarded and the
    assembler resynchronises at the next newline.
    """

    def __init__(self, max_line_bytes: int = MAX_LINE_BYTES) -> None:
        self.max_line_bytes = int(max_line_bytes)
        self._buf = bytearray()
        self._skipping = False

    def feed(self, chunk: bytes) -> List[Tuple[str, Optional[bytes]]]:
        """Absorb one chunk; return the framing events it completes."""
        events: List[Tuple[str, Optional[bytes]]] = []
        self._buf += chunk
        while True:
            newline = self._buf.find(b"\n")
            if newline < 0:
                if self._skipping:
                    self._buf.clear()
                elif len(self._buf) > self.max_line_bytes:
                    # The line is already too long and still unfinished:
                    # flag it now, drop what we have, resync at the next
                    # newline.  Read backpressure would otherwise let a
                    # hostile client balloon the buffer without bound.
                    events.append(("oversized", None))
                    self._skipping = True
                    self._buf.clear()
                break
            line = bytes(self._buf[:newline])
            del self._buf[: newline + 1]
            if self._skipping:
                self._skipping = False  # the oversized line's tail
                continue
            if len(line) > self.max_line_bytes:
                events.append(("oversized", None))
                continue
            events.append(("line", line))
        return events

    def finish(self) -> None:
        """EOF: a trailing partial line (no newline) is dropped.

        A mid-line disconnect therefore never produces a half-parsed
        query — the incomplete tail simply dies with the connection.
        """
        self._buf.clear()
        self._skipping = False


class _Connection:
    """Per-connection state: queues, permits, tasks."""

    def __init__(self, conn_id: int, reader, writer, config: NetConfig) -> None:
        self.id = conn_id
        self.reader = reader
        self.writer = writer
        peer = writer.get_extra_info("peername")
        self.peer = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else str(peer)
        self.stream = RequestStream(config.max_line_bytes)
        self.responses = 0
        self.broken = False  # write side failed; discard, don't wedge
        self.inflight = asyncio.Semaphore(config.inflight_per_connection)
        self.outbound: "asyncio.Queue[Any]" = asyncio.Queue(
            maxsize=2 * config.inflight_per_connection
        )
        self.pending: Set[asyncio.Task] = set()
        self.writer_task: Optional[asyncio.Task] = None


class NetServer:
    """The asyncio TCP front-end over one in-process ProfilingService."""

    def __init__(
        self, service: ProfilingService, config: Optional[NetConfig] = None
    ) -> None:
        self.service = service
        self.config = config or NetConfig()
        self.stats = NetStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Dict[int, _Connection] = {}
        self._conn_seq = 0
        self._pending = 0  # admitted queries not yet responded, server-wide
        self._closing = False
        self._executor: Optional[ThreadPoolExecutor] = None
        # The service is not thread-safe (stats, LRU): the pool threads
        # and inline answers serialise on this lock; the pool still
        # overlaps deadline waits and injected latency, which sleep
        # before it.
        self._service_lock = threading.Lock()
        self._bus = service.bus

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.pool_workers),
            thread_name_prefix="repro-net",
        )
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — resolves ``port=0`` ephemeral binds."""
        assert self._server is not None and self._server.sockets
        name = self._server.sockets[0].getsockname()
        return (name[0], name[1])

    async def shutdown(self) -> None:
        """Graceful stop: flush in-flight responses, then close.

        Stops accepting, then feeds EOF to every connection's reader so
        each finishes the lines it has already received, drains its
        pending queries and outbound responses, and closes.  Bounded by
        ``shutdown_timeout_s``; stragglers are cancelled after that.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for conn in list(self._connections.values()):
            conn.reader.feed_eof()
        deadline = asyncio.get_running_loop().time() + self.config.shutdown_timeout_s
        while self._connections:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                for conn in list(self._connections.values()):
                    for task in list(conn.pending):
                        task.cancel()
                    if conn.writer_task is not None:
                        conn.writer_task.cancel()
                    try:
                        conn.writer.transport.abort()
                    except Exception:
                        pass
                break
            await asyncio.sleep(min(0.01, remaining))
        if self._executor is not None:
            # Don't wait for threads parked in injected latency sleeps;
            # their results are already discarded.
            self._executor.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        try:
            fault_point("net.accept")
        except (OSError, RuntimeError):
            # Injected accept failure: refuse loudly and hang up.  The
            # peer sees a typed error line, never a silent hang.
            self.stats.connections_refused += 1
            await self._refuse(writer, "connection refused (accept fault)")
            return
        if self._closing:
            self.stats.connections_refused += 1
            await self._refuse(writer, "server is shutting down")
            return
        if len(self._connections) >= self.config.max_connections:
            self.stats.connections_refused += 1
            await self._refuse(
                writer,
                f"connection limit ({self.config.max_connections}) reached; "
                "retry later",
            )
            return
        self._conn_seq += 1
        conn = _Connection(self._conn_seq, reader, writer, self.config)
        self._connections[conn.id] = conn
        self.stats.connections_opened += 1
        self._publish_connection_opened(conn)
        conn.writer_task = asyncio.ensure_future(self._write_loop(conn))
        try:
            await self._read_loop(conn)
        finally:
            await self._close_connection(conn)

    async def _refuse(self, writer, reason: str) -> None:
        """One error line, then close — for connections never admitted."""
        try:
            writer.write(reply_line(error_line(0, reason)).encode("utf-8"))
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_loop(self, conn: _Connection) -> None:
        assembler = LineAssembler(self.config.max_line_bytes)
        while True:
            try:
                chunk = await conn.reader.read(READ_CHUNK)
            except (ConnectionError, OSError):
                break  # mid-line disconnect: only this connection dies
            if not chunk:
                assembler.finish()
                break
            try:
                chunk = filter_read("net.read", bytes(chunk))
            except (OSError, RuntimeError):
                self.stats.read_errors += 1
                break  # injected read failure: the peer sees the close
            # The chunk's inline answers and error lines, in order: they
            # go out as one outbound item (see _admit for the flushes).
            batch: List[str] = []
            for kind, line in assembler.feed(chunk):
                if kind == "oversized":
                    self.stats.oversized += 1
                    decoded = conn.stream.oversized()
                else:
                    decoded = conn.stream.decode(line)
                    if decoded is None:
                        continue  # a blank or comment line
                self.stats.lines += 1
                if decoded.kind == "error":
                    self.stats.errors += 1
                    self.stats.parse_errors += kind != "oversized"
                    batch.append(reply_line(error_line(decoded.id, decoded.error)))
                    continue
                for item in work_items(decoded, self.service.sessions):
                    await self._admit(conn, item, batch)
            await self._flush(conn, batch)

    async def _admit(
        self, conn: _Connection, item: WorkItem, batch: List[str]
    ) -> None:
        """Shed, answer inline into ``batch``, or admit to the pool.

        ``batch`` is flushed before a shed or a pool hand-off, so lines
        go out in the order they were answered, and after an inline miss,
        which then yields so that other connections get the loop.
        """
        if isinstance(item, QueryRequest):
            if self._pending >= self.config.max_pending:
                # Queue full: an explicit shed through the service's own
                # accounting path, never a silent drop.
                self.stats.received += 1
                self.stats.shed += 1
                await self._flush(conn, batch)
                await self._enqueue(
                    conn, self.service.shed(item, self.config.max_pending)
                )
                return
            reply = self._answer_inline(item)
            if reply is not None:
                self.stats.received += 1
                self._tally(reply)
                batch.append(reply_line(reply))
                if not (isinstance(reply, QueryResponse) and reply.cached):
                    await self._flush(conn, batch)
                    await asyncio.sleep(0)
                return
        await self._flush(conn, batch)
        # Bounded in-flight permits per connection: when they run out
        # the reader stops consuming this socket (read backpressure).
        await conn.inflight.acquire()
        self.stats.received += 1
        self._pending += 1
        deadline = asyncio.get_running_loop().time() + self.config.deadline_s
        task = asyncio.ensure_future(self._process(conn, item, deadline))
        conn.pending.add(task)
        task.add_done_callback(conn.pending.discard)

    def _answer_inline(self, query: QueryRequest) -> Optional[Reply]:
        """``query`` answered on the event loop, hit or miss, or None.

        Only when that needs no waiting: no fault plane armed (so every
        ``net.latency`` site and deadline path stays on the pool), the
        session not spilled (a fault-in reads the store and may back
        off), and the service lock free right now.
        """
        if is_active():
            return None
        record = self.service.sessions.get(query.session)
        if record is not None and record.spilled:
            return None
        if not self._service_lock.acquire(blocking=False):
            return None
        try:
            return answer(self.service, query)
        finally:
            self._service_lock.release()

    def _tally(self, reply: Reply) -> None:
        """Count one answered or errored reply."""
        status = reply.status if isinstance(reply, QueryResponse) else reply["status"]
        if status == STATUS_OK:
            self.stats.answered += 1
        else:
            self.stats.errors += 1

    async def _process(
        self, conn: _Connection, item: WorkItem, deadline: float
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            remaining = deadline - loop.time()
            reply: Optional[Reply]
            try:
                if remaining <= 0:
                    raise asyncio.TimeoutError
                future = loop.run_in_executor(
                    self._executor, self._dispatch, item, deadline
                )
                reply = await asyncio.wait_for(future, timeout=remaining)
                if reply is None:  # the pool thread saw it expire
                    raise asyncio.TimeoutError
            except asyncio.TimeoutError:
                self.stats.deadline_exceeded += 1
                qid, session = label(item)
                reply = error_line(
                    qid,
                    f"deadline exceeded: query {qid} on session {session!r} "
                    f"missed the {self.config.deadline_s:g}s deadline",
                    session,
                )
                self._publish_deadline(item)
            except Exception as exc:
                # Nothing may escape a connection handler: a fault at the
                # net.latency site becomes a typed error too.
                reply = failure(item, exc)
            self._tally(reply)
            await self._enqueue(conn, reply)
        finally:
            self._pending -= 1
            conn.inflight.release()

    def _dispatch(self, item: WorkItem, deadline: float) -> Optional[Reply]:
        """Runs on a pool thread: chaos latency point, then the service.

        Returns None without calling the service once ``deadline`` (a
        ``time.monotonic()`` instant, the event loop's clock) has
        passed: the caller has already answered with a deadline error.
        """
        fault_point("net.latency")
        if time.monotonic() >= deadline:
            return None
        with self._service_lock:
            if time.monotonic() >= deadline:
                return None
            return answer(self.service, item)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    async def _enqueue(self, conn: _Connection, reply: Reply) -> None:
        """Queue one response line as its own outbound item."""
        await self._flush(conn, [reply_line(reply)])

    async def _flush(self, conn: _Connection, batch: List[str]) -> None:
        """Queue ``batch``'s lines as one outbound item (bounded: write
        backpressure) and empty it."""
        if batch:
            lines = batch[:]
            batch.clear()
            if not conn.broken:  # else the peer is gone; nowhere to write
                await conn.outbound.put(lines)

    async def _write_loop(self, conn: _Connection) -> None:
        """One ``write`` and one ``drain()`` per wake-up.

        Every line already queued goes out together (an outbound item is
        a list of lines).  ``net.write`` still filters each line on its
        own, so a fault plan's rng streams advance once per line exactly
        as with one write per line.
        """
        closing = False
        while not closing:
            items = [await conn.outbound.get()]
            while not conn.outbound.empty():
                items.append(conn.outbound.get_nowait())
            if _CLOSE in items:
                closing = True
                items = items[: items.index(_CLOSE)]
            lines = [line for item in items for line in item]
            if conn.broken:
                continue  # drain without writing so producers never wedge
            chunks: List[bytes] = []
            failed = False
            for line in lines:
                try:
                    chunks.append(filter_write("net.write", line.encode("utf-8")))
                except (OSError, RuntimeError):
                    failed = True  # the lines before it still go out
                    break
            try:
                if chunks:
                    conn.writer.write(b"".join(chunks))
                    await conn.writer.drain()
                    conn.responses += len(chunks)
                    self.stats.responses_written += len(chunks)
            except (ConnectionError, OSError, RuntimeError):
                failed = True
            if failed:
                # Peer closed (or an injected write fault): mark the
                # connection broken and keep draining the queue so
                # in-flight producers are released, then wake the reader.
                self.stats.write_errors += 1
                conn.broken = True
                try:
                    conn.writer.transport.abort()
                except Exception:
                    pass

    async def _close_connection(self, conn: _Connection) -> None:
        """Flush everything this connection still owes, then close."""
        if conn.pending:
            await asyncio.gather(*list(conn.pending), return_exceptions=True)
        await conn.outbound.put(_CLOSE)
        if conn.writer_task is not None:
            try:
                await asyncio.wait_for(
                    conn.writer_task, timeout=self.config.shutdown_timeout_s
                )
            except (asyncio.TimeoutError, asyncio.CancelledError):
                conn.writer_task.cancel()
        try:
            conn.writer.close()
            await conn.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._connections.pop(conn.id, None)
        self.stats.connections_closed += 1
        self._publish_connection_closed(conn)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _publish(self, event) -> None:
        if self._bus is None:
            from ..telemetry import TelemetryBus

            self._bus = TelemetryBus()
        self._bus.publish(event)

    def _publish_connection_opened(self, conn: _Connection) -> None:
        from ..telemetry import ConnectionOpenedEvent

        self._publish(
            ConnectionOpenedEvent(
                time=0.0, peer=conn.peer, open_connections=len(self._connections)
            )
        )

    def _publish_connection_closed(self, conn: _Connection) -> None:
        from ..telemetry import ConnectionClosedEvent

        self._publish(
            ConnectionClosedEvent(
                time=0.0,
                peer=conn.peer,
                lines=conn.stream.seq,
                responses=conn.responses,
            )
        )

    def _publish_deadline(self, item: WorkItem) -> None:
        from ..telemetry import QueryDeadlineExceededEvent

        query = item if isinstance(item, QueryRequest) else None
        self._publish(
            QueryDeadlineExceededEvent(
                time=0.0,
                session=label(item)[1],
                backend=query.report.backend if query is not None else "aggregate",
                deadline_s=self.config.deadline_s,
            )
        )


# ----------------------------------------------------------------------
# the async client
# ----------------------------------------------------------------------
class AsyncServiceClient:
    """Async front door to a :class:`NetServer` over one TCP connection.

    The network twin of :class:`~repro.serve.client.ServiceClient`:
    keyword-style queries, typed :class:`QueryFailedError` on hard
    errors, and bounded resubmission of ``shed`` responses — the
    backoff between resubmits reuses the shared retry machinery
    (:data:`repro.faults.retry.DEFAULT_RETRY_POLICY` +
    :func:`repro.faults.retry.retry_rng`), so client-side backoff is as
    deterministic and analysable as every other retry site.

    Responses are matched to requests by ``id``, so one id is in flight
    at a time: a query whose id is already pending waits for that
    response before it is sent, and :meth:`submit_all` answers repeated
    ids by position.  The wildcard session is expanded *server-side*
    with the id echoed once per session, so :meth:`submit`
    (exactly-one-response semantics) refuses ``"*"``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        max_resubmits: int = 3,
        policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        max_line_bytes: int = 16 * MAX_LINE_BYTES,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.max_resubmits = int(max_resubmits)
        self.policy = policy
        self.max_line_bytes = int(max_line_bytes)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._read_task: Optional[asyncio.Task] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._unmatched: List[Dict[str, Any]] = []
        self._next_id = 1
        self._rng = retry_rng("net.client.shed")

    async def __aenter__(self) -> "AsyncServiceClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def connect(self) -> None:
        """Open the connection and start the response dispatcher."""
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=self.max_line_bytes
        )
        self._read_task = asyncio.ensure_future(self._read_loop())

    async def close(self) -> None:
        """Close the connection (pending futures fail with the reason)."""
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        if self._read_task is not None:
            try:
                await asyncio.wait_for(self._read_task, timeout=1.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                self._read_task.cancel()
        self._writer = None
        self._reader = None

    async def _read_loop(self) -> None:
        assert self._reader is not None
        error: Optional[BaseException] = None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    data = json.loads(line.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    continue  # a torn/corrupted response line (chaos)
                future = self._pending.pop(int(data.get("id", -1)), None)
                if future is not None and not future.done():
                    future.set_result(data)
                else:
                    self._unmatched.append(data)
        except (ConnectionError, OSError) as exc:
            error = exc
        finally:
            failure = error or ConnectionError(
                "connection closed before a response arrived"
            )
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(failure)
            self._pending.clear()

    def _take_id(self) -> int:
        qid = self._next_id
        self._next_id += 1
        return qid

    async def _roundtrip(self, query: QueryRequest) -> QueryResponse:
        assert self._writer is not None
        # The reader unregisters each future it settles, so a repeated
        # id waits here until the earlier one's response is in.
        while query.id in self._pending:
            await asyncio.wait({self._pending[query.id]})
        if self._read_task is not None and self._read_task.done():
            raise ConnectionError("connection closed before a response arrived")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[query.id] = future
        try:
            self._writer.write(
                (json.dumps(query.to_dict()) + "\n").encode("utf-8")
            )
            await self._writer.drain()
            data = await future
        finally:
            if self._pending.get(query.id) is future:
                del self._pending[query.id]
        return QueryResponse.from_dict(data)

    async def submit(self, query: QueryRequest) -> QueryResponse:
        """One query -> one response, resubmitting bounded on ``shed``."""
        if query.session == ALL_SESSIONS:
            raise ValueError(
                "AsyncServiceClient.submit needs a concrete session; "
                "the '*' wildcard fans out server-side (multiple "
                "responses per request line)"
            )
        response = await self._roundtrip(query)
        for attempt in range(self.max_resubmits):
            if response.status != STATUS_SHED:
                return response
            await asyncio.sleep(self.policy.delay_for(attempt, self._rng))
            response = await self._roundtrip(query)
        if response.status == STATUS_SHED:
            # A bare "shed" tells the caller nothing about *what* to retry.
            response = replace(
                response,
                error=(
                    f"query {query.id} on session {query.session!r} still "
                    f"shed after {self.max_resubmits} resubmit(s): {response.error}"
                ),
            )
        return response

    async def submit_all(
        self, queries: Sequence[QueryRequest]
    ) -> List[QueryResponse]:
        """Submit concurrently; ``responses[i]`` answers ``queries[i]``,
        so ids may repeat."""
        return list(await asyncio.gather(*(self.submit(q) for q in queries)))

    async def query(
        self,
        session: str,
        backend: str,
        start: float = 0.0,
        end: Optional[float] = None,
        owners: Optional[Sequence[int]] = None,
    ) -> Dict[str, Any]:
        """One report payload; raises :class:`QueryFailedError` on error."""
        request = build_query(self._take_id(), session, backend, start, end, owners)
        response = await self.submit(request)
        if response.status != STATUS_OK or response.report is None:
            raise QueryFailedError(response)
        return response.report

    async def total_j(
        self,
        session: str,
        backend: str,
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> float:
        """Convenience: just the report's total joules."""
        payload = await self.query(session, backend, start, end)
        return float(payload["total_j"])
