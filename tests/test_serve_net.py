"""Concurrency suite for the TCP serving front-end (`repro.serve.net`).

The contracts under test (see ``docs/SERVING.md``, "Network serving"):

* every complete request line produces exactly one response (one per
  matched session for the wildcard), malformed/oversized lines degrade
  to typed ``error`` responses, and nothing is ever silently dropped;
* the transport accounting closes: ``received == answered + errors +
  shed`` over admitted queries, and every response the server owes is
  written;
* one misbehaving connection — a mid-line disconnect, a slowloris
  writer — never wedges the others;
* deadlines surface as typed errors naming the query, never hangs, and
  work that has already expired never runs the service;
* graceful shutdown flushes in-flight responses before closing;
* payloads served over TCP are byte-identical to the in-process path;
* warm hits answered on the event loop and coalesced writes keep the
  same accounting and the same wire bytes, and a fault plane still
  sees every query at its ``net.latency`` site.

No pytest-asyncio in the environment: every test drives its own event
loop via ``asyncio.run``.
"""

import asyncio
import json
import sys

import pytest

from repro.faults import FaultPlan, FaultSpec, activate
from repro.faults.plane import FaultPlane
from repro.faults.retry import RetryPolicy
from repro.faults.soak import canonical_report_bytes
from repro.offline import capture_trace
from repro.reports import ReportRequest
from repro.serve import (
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    AsyncServiceClient,
    NetConfig,
    NetServer,
    ProfilingService,
    QueryRequest,
    QueryResponse,
    ServiceConfig,
)
from repro.serve.net import _CLOSE, _Connection
from repro.telemetry import capture
from repro.workloads import run_scene1


@pytest.fixture(scope="module")
def scene_trace():
    run = run_scene1()
    return capture_trace(run.system, run.eandroid)


@pytest.fixture
def service(scene_trace):
    svc = ProfilingService(ServiceConfig(telemetry=False))
    svc.ingest_trace("scene", scene_trace, "test")
    return svc


def _query(qid: int, backend: str = "eandroid", session: str = "scene"):
    return QueryRequest(
        id=qid, session=session, report=ReportRequest(backend=backend)
    )


def _line(qid: int, backend: str = "eandroid", session: str = "scene") -> bytes:
    return (json.dumps(_query(qid, backend, session).to_dict()) + "\n").encode()


def _latency_plan(delay_ms: float, max_injections: int = 1) -> FaultPlan:
    return FaultPlan(
        specs=(
            FaultSpec(
                site="net.latency",
                kind="latency",
                probability=1.0,
                max_injections=max_injections,
                delay_ms=delay_ms,
            ),
        )
    )


def run_net(service, config, scenario):
    """Start a NetServer, run ``scenario(server, host, port)``, shut down."""

    async def main():
        server = NetServer(service, config)
        await server.start()
        try:
            host, port = server.address
            result = await scenario(server, host, port)
        finally:
            await server.shutdown()
        return server, result

    return asyncio.run(main())


async def _raw_roundtrip(host, port, lines, read_all=True):
    """Write raw bytes lines, half-close, read response lines to EOF."""
    reader, writer = await asyncio.open_connection(host, port)
    for line in lines:
        writer.write(line)
    await writer.drain()
    writer.write_eof()
    responses = []
    while read_all:
        line = await asyncio.wait_for(reader.readline(), timeout=10.0)
        if not line:
            break
        responses.append(json.loads(line))
    writer.close()
    return responses


# ----------------------------------------------------------------------
# satellite contract: N concurrent clients, exactly-once responses
# ----------------------------------------------------------------------
class TestConcurrentClients:
    CLIENTS = 8
    QUERIES = 12

    def test_every_query_answered_exactly_once(self, service):
        backends = ("energy", "eandroid", "collateral")

        async def scenario(server, host, port):
            async def drive(client_index):
                queries = [
                    _query(qid, backends[qid % len(backends)])
                    for qid in range(1, self.QUERIES + 1)
                ]
                async with AsyncServiceClient(host, port) as client:
                    return await client.submit_all(queries)

            return await asyncio.gather(
                *(drive(i) for i in range(self.CLIENTS))
            )

        server, results = run_net(service, NetConfig(), scenario)
        assert len(results) == self.CLIENTS
        for responses in results:
            # exactly one response per query, ids echoed in order
            assert [r.id for r in responses] == list(
                range(1, self.QUERIES + 1)
            )
            assert all(r.status == STATUS_OK for r in responses)
        stats = server.stats
        assert stats.received == self.CLIENTS * self.QUERIES
        assert stats.received == stats.answered + stats.errors + stats.shed
        assert stats.responses_written == stats.answered + stats.errors + stats.shed
        assert stats.connections_opened == stats.connections_closed == self.CLIENTS
        # The service-level invariant holds through the transport too.
        assert (
            service.stats.received
            == service.stats.answered + service.stats.errors + service.stats.shed
        )

    def test_tcp_payloads_byte_identical_to_in_process(self, service):
        queries = [
            _query(qid, backend)
            for qid, backend in enumerate(
                ("energy", "batterystats", "powertutor", "eandroid", "collateral"),
                start=1,
            )
        ]
        expected = {
            q.id: canonical_report_bytes(service.submit(q).report) for q in queries
        }

        async def scenario(server, host, port):
            async with AsyncServiceClient(host, port) as client:
                return await client.submit_all(queries)

        _, responses = run_net(service, NetConfig(), scenario)
        for response in responses:
            assert response.status == STATUS_OK
            assert canonical_report_bytes(response.report) == expected[response.id]


# ----------------------------------------------------------------------
# wire behaviour: wildcard, malformed, oversized
# ----------------------------------------------------------------------
class TestWireBehaviour:
    def test_wildcard_expands_server_side_preserving_id(self, service, scene_trace):
        service.ingest_trace("second", scene_trace, "test")

        async def scenario(server, host, port):
            return await _raw_roundtrip(
                host, port, [b'{"id": 7, "session": "*", "backend": "energy"}\n']
            )

        _, responses = run_net(service, NetConfig(), scenario)
        assert len(responses) == 2  # one per ingested session
        assert {r["id"] for r in responses} == {7}
        assert {r["session"] for r in responses} == {"scene", "second"}
        assert all(r["status"] == STATUS_OK for r in responses)

    def test_wildcard_with_no_sessions_is_a_typed_error(self):
        empty = ProfilingService(ServiceConfig(telemetry=False))

        async def scenario(server, host, port):
            return await _raw_roundtrip(
                host, port, [b'{"id": 3, "session": "*", "backend": "energy"}\n']
            )

        _, responses = run_net(empty, NetConfig(), scenario)
        (response,) = responses
        assert response["id"] == 3
        assert response["status"] == STATUS_ERROR
        assert "no sessions" in response["error"]

    def test_malformed_lines_degrade_to_typed_errors(self, service):
        lines = [
            b"this is not json\n",
            b"[1, 2, 3]\n",
            b'{"id": 4, "session": "scene", "backend": "bogus"}\n',
            b'{"id": 5, "session": "scene", "backend": "energy"}\n',
        ]

        async def scenario(server, host, port):
            return await _raw_roundtrip(host, port, lines)

        server, responses = run_net(service, NetConfig(), scenario)
        assert len(responses) == len(lines)  # nothing silently dropped
        by_id = {r["id"]: r for r in responses}
        assert by_id[1]["status"] == STATUS_ERROR  # line seq as fallback id
        assert "not valid JSON" in by_id[1]["error"]
        assert by_id[2]["status"] == STATUS_ERROR
        assert "JSON object" in by_id[2]["error"]
        assert by_id[4]["status"] == STATUS_ERROR
        assert "bogus" in by_id[4]["error"]
        # The connection survived all three: the valid query answered.
        assert by_id[5]["status"] == STATUS_OK
        assert server.stats.parse_errors == 3

    def test_oversized_line_is_refused_and_connection_survives(self, service):
        config = NetConfig(max_line_bytes=1024)
        lines = [
            b'{"pad": "' + b"x" * 4096 + b'"}\n',
            b'{"id": 2, "session": "scene", "backend": "energy"}\n',
        ]

        async def scenario(server, host, port):
            return await _raw_roundtrip(host, port, lines)

        server, responses = run_net(service, config, scenario)
        assert len(responses) == 2
        assert responses[0]["status"] == STATUS_ERROR
        assert "maximum line size" in responses[0]["error"]
        assert responses[1]["status"] == STATUS_OK
        assert server.stats.oversized == 1

    def test_aggregate_requests_are_served_over_tcp(self, service):
        async def scenario(server, host, port):
            return await _raw_roundtrip(
                host, port, [b'{"id": 9, "op": "sum", "backend": "energy"}\n']
            )

        _, responses = run_net(service, NetConfig(), scenario)
        (response,) = responses
        assert response["id"] == 9
        assert response["status"] == STATUS_OK
        assert "aggregate" in response


# ----------------------------------------------------------------------
# isolation: one bad client never wedges the others
# ----------------------------------------------------------------------
class TestConnectionIsolation:
    def test_midline_disconnect_never_wedges_others(self, service):
        async def scenario(server, host, port):
            # Client A dies mid-line (no newline, hard abort).
            reader_a, writer_a = await asyncio.open_connection(host, port)
            writer_a.write(b'{"id": 1, "session": "scene", "ba')
            await writer_a.drain()
            writer_a.transport.abort()
            # Client B is unaffected.
            async with AsyncServiceClient(host, port) as client:
                payload = await asyncio.wait_for(
                    client.query("scene", "eandroid"), timeout=10.0
                )
            return payload

        server, payload = run_net(service, NetConfig(), scenario)
        assert payload["backend"] == "eandroid"
        # The half line died with its connection: no query, no response.
        assert server.stats.received == 1
        assert server.stats.connections_closed == 2

    def test_slowloris_never_wedges_others(self, service):
        line = b'{"id": 1, "session": "scene", "backend": "energy"}\n'

        async def scenario(server, host, port):
            async def slow_client():
                reader, writer = await asyncio.open_connection(host, port)
                for i in range(len(line)):
                    writer.write(line[i : i + 1])
                    await writer.drain()
                    await asyncio.sleep(0.004)
                response = json.loads(
                    await asyncio.wait_for(reader.readline(), timeout=10.0)
                )
                writer.close()
                return response

            async def fast_client():
                async with AsyncServiceClient(host, port) as client:
                    queries = [_query(qid) for qid in range(1, 21)]
                    return await client.submit_all(queries)

            return await asyncio.gather(slow_client(), fast_client())

        _, (slow_response, fast_responses) = run_net(
            service, NetConfig(), scenario
        )
        # The fast client's 20 queries all completed while the slowloris
        # dribbled — and the slow client still got its answer.
        assert all(r.status == STATUS_OK for r in fast_responses)
        assert slow_response["status"] == STATUS_OK

    def test_max_connections_refuses_loudly(self, service):
        config = NetConfig(max_connections=1)

        async def scenario(server, host, port):
            async with AsyncServiceClient(host, port) as client:
                await client.query("scene", "energy")  # A is admitted
                reader_b, writer_b = await asyncio.open_connection(host, port)
                refusal = json.loads(
                    await asyncio.wait_for(reader_b.readline(), timeout=10.0)
                )
                eof = await asyncio.wait_for(reader_b.read(), timeout=10.0)
                writer_b.close()
            return refusal, eof

        server, (refusal, eof) = run_net(service, config, scenario)
        assert refusal["status"] == STATUS_ERROR
        assert "connection limit" in refusal["error"]
        assert eof == b""  # the refused connection is closed, not hung
        assert server.stats.connections_refused == 1

    def test_accept_fault_refuses_with_an_id_zero_error_line(self, service):
        plan = FaultPlan(
            specs=(FaultSpec("net.accept", "io-error", 1.0, max_injections=1),)
        )

        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            refusal = json.loads(
                await asyncio.wait_for(reader.readline(), timeout=10.0)
            )
            eof = await asyncio.wait_for(reader.read(), timeout=10.0)
            writer.close()
            after = await _raw_roundtrip(host, port, [_line(2)])
            return refusal, eof, after

        with activate(plan, seed=0):
            server, (refusal, eof, after) = run_net(service, NetConfig(), scenario)
        assert refusal["id"] == 0 and refusal["status"] == STATUS_ERROR
        assert "accept fault" in refusal["error"]
        assert eof == b""  # refused and closed, never a hang
        assert [(r["id"], r["status"]) for r in after] == [(2, STATUS_OK)]
        assert server.stats.connections_refused == 1

    def test_read_fault_tears_down_only_that_connection(self, service):
        plan = FaultPlan(
            specs=(FaultSpec("net.read", "io-error", 1.0, max_injections=1),)
        )

        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(_line(1))
            await writer.drain()
            eof = await asyncio.wait_for(reader.read(), timeout=10.0)
            writer.close()
            after = await _raw_roundtrip(host, port, [_line(2)])
            return eof, after

        with activate(plan, seed=0):
            server, (eof, after) = run_net(service, NetConfig(), scenario)
        assert eof == b""  # the torn connection's line died with it
        assert [(r["id"], r["status"]) for r in after] == [(2, STATUS_OK)]
        assert server.stats.read_errors == 1


# ----------------------------------------------------------------------
# deadlines and shedding
# ----------------------------------------------------------------------
class TestDeadlinesAndShedding:
    def test_deadline_returns_typed_error_naming_the_query(self, service):
        config = NetConfig(deadline_s=0.2, pool_workers=1)

        async def scenario(server, host, port):
            async with AsyncServiceClient(host, port) as client:
                return await client.submit(_query(5))

        with activate(_latency_plan(1500.0), seed=0):
            server, response = run_net(service, config, scenario)
        assert response.status == STATUS_ERROR
        assert "deadline exceeded" in response.error
        assert "query 5" in response.error
        assert "'scene'" in response.error
        assert server.stats.deadline_exceeded == 1
        assert server.stats.received == (
            server.stats.answered + server.stats.errors + server.stats.shed
        )

    def test_expired_work_never_runs_the_service(self, service):
        """One slow query must not push expired work through the lock."""
        config = NetConfig(deadline_s=0.2, pool_workers=1)

        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            # A draws the one 1.5 s latency injection; B-E queue behind
            # it on the single pool thread.  All five time out.
            for qid in range(1, 6):
                writer.write(_line(qid))
            await writer.drain()
            expired = [
                json.loads(await asyncio.wait_for(reader.readline(), 10.0))
                for _ in range(5)
            ]
            await asyncio.sleep(1.5)  # A's injected sleep is over
            writer.write(_line(6))
            await writer.drain()
            late = json.loads(await asyncio.wait_for(reader.readline(), 10.0))
            writer.close()
            return expired, late

        with activate(_latency_plan(1500.0), seed=0):
            server, (expired, late) = run_net(service, config, scenario)
        assert sorted(r["id"] for r in expired) == [1, 2, 3, 4, 5]
        for response in expired:
            assert response["status"] == STATUS_ERROR
            assert "deadline exceeded" in response["error"]
        assert late["id"] == 6 and late["status"] == STATUS_OK
        assert server.stats.deadline_exceeded == 5
        # F runs after A-E on the one FIFO pool thread, so this is the
        # count of service calls the five expired items made: zero.
        assert service.stats.received == service.stats.answered == 1

    def test_shed_resubmit_recovers_through_the_retry_policy(self, service):
        config = NetConfig(max_pending=1, pool_workers=1)
        slow_line = b'{"id": 1, "session": "scene", "backend": "energy"}\n'
        policy = RetryPolicy(base_delay_s=0.4, multiplier=1.0, max_delay_s=1.0)

        async def scenario(server, host, port):
            # Occupy the single admission slot with a latency-injected
            # query, then submit through the retrying client: the first
            # attempt is shed, the resubmit (after ~0.4s) is answered.
            _, slow_writer = await asyncio.open_connection(host, port)
            slow_writer.write(slow_line)
            await slow_writer.drain()
            await asyncio.sleep(0.05)  # let the slow query be admitted
            client = AsyncServiceClient(host, port, policy=policy)
            await client.connect()
            try:
                response = await client.submit(_query(2, backend="eandroid"))
            finally:
                await client.close()
                slow_writer.close()
            return response

        with activate(_latency_plan(200.0), seed=0):
            server, response = run_net(service, config, scenario)
        assert response.status == STATUS_OK
        assert server.stats.shed >= 1

    def test_still_shed_after_bounded_resubmits_is_typed(self, scene_trace):
        config = NetConfig(max_pending=1, pool_workers=1)
        slow_line = b'{"id": 1, "session": "scene", "backend": "energy"}\n'

        async def scenario(server, host, port):
            _, slow_writer = await asyncio.open_connection(host, port)
            slow_writer.write(slow_line)
            await slow_writer.drain()
            await asyncio.sleep(0.05)
            # Default policy backs off ~35ms total: the slot is still
            # occupied (2s of injected latency) when resubmits run out.
            client = AsyncServiceClient(host, port, max_resubmits=2)
            await client.connect()
            try:
                response = await client.submit(_query(2, backend="eandroid"))
            finally:
                await client.close()
                slow_writer.close()
            return response

        with capture() as recorder:
            service = ProfilingService(ServiceConfig())
            service.ingest_trace("scene", scene_trace, "test")
            with activate(_latency_plan(2000.0), seed=0):
                server, response = run_net(service, config, scenario)
        assert response.status == STATUS_SHED
        assert response.id == 2 and response.session == "scene"
        assert response.error.startswith("query 2 on session 'scene' ")
        assert "still shed after 2 resubmit(s)" in response.error
        # The bound that refused it is the server's, not a service queue.
        assert "queue full (depth 1)" in response.error
        depths = [
            event.queue_depth
            for event in recorder.events
            if type(event).__name__ == "QueryShedEvent"
        ]
        assert set(depths) == {1}

    def test_async_client_refuses_the_wildcard(self, service):
        async def scenario(server, host, port):
            async with AsyncServiceClient(host, port) as client:
                with pytest.raises(ValueError, match="wildcard"):
                    await client.submit(_query(1, session="*"))
            return True

        run_net(service, NetConfig(), scenario)


# ----------------------------------------------------------------------
# the warm path: inline hits and coalesced writes
# ----------------------------------------------------------------------
class _RecordingWriter:
    """A stream-writer stand-in that records each ``write``."""

    def __init__(self):
        self.writes = []
        self.aborted = False
        self.transport = self

    def get_extra_info(self, name):
        return ("test", 0)

    def write(self, data):
        self.writes.append(data)

    async def drain(self):
        pass

    def abort(self):
        self.aborted = True


def _run_write_loop(service, lines):
    """Queue ``lines`` then close; run one connection's writer to the end."""

    async def main():
        server = NetServer(service, NetConfig())
        writer = _RecordingWriter()
        conn = _Connection(1, None, writer, server.config)
        for line in lines:
            conn.outbound.put_nowait([line])
        conn.outbound.put_nowait(_CLOSE)
        await asyncio.wait_for(server._write_loop(conn), timeout=10.0)
        return server, conn, writer

    return asyncio.run(main())


class TestWarmPath:
    HITS = 64

    def test_pipelined_warm_hits_keep_accounting_and_exact_bytes(self, service):
        service.submit(_query(0))  # warm the key

        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"".join(_line(qid) for qid in range(1, self.HITS + 1)))
            await writer.drain()
            lines = [
                await asyncio.wait_for(reader.readline(), 10.0)
                for _ in range(self.HITS)
            ]
            writer.close()
            return lines

        server, lines = run_net(service, NetConfig(), scenario)
        docs = [json.loads(line) for line in lines]
        assert sorted(d["id"] for d in docs) == list(range(1, self.HITS + 1))
        assert all(d["status"] == STATUS_OK and d["cached"] for d in docs)
        for line, doc in zip(lines, docs):
            wire = json.dumps(QueryResponse.from_dict(doc).to_dict()) + "\n"
            assert line == wire.encode("utf-8")
        net = server.stats
        assert net.received == net.answered + net.errors + net.shed == self.HITS
        assert net.responses_written == self.HITS
        svc = service.stats
        assert svc.received == svc.answered + svc.errors + svc.shed == self.HITS + 1
        # Answered on the event loop: the pool never started a thread.
        assert not server._executor._threads

    def test_inline_hits_and_pool_misses_under_thread_stress(self, service):
        """Loop-thread hits and pool-thread misses share the service
        under one lock: with more pool threads than cores and a tiny
        switch interval, a lost counter update would break the sums."""
        clients, per_client = 4, 24
        service.submit(_query(0))

        def query(client, i):
            if i % 3:
                return _query(i)  # the warm key
            window = ReportRequest(backend="energy", start=client + i * 1e-3)
            return QueryRequest(id=i, session="scene", report=window)

        async def scenario(server, host, port):
            async def drive(client):
                async with AsyncServiceClient(host, port) as conn:
                    return await conn.submit_all(
                        [query(client, i) for i in range(1, per_client + 1)]
                    )

            return await asyncio.wait_for(
                asyncio.gather(*(drive(c) for c in range(clients))), 60.0
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            server, results = run_net(service, NetConfig(pool_workers=4), scenario)
        finally:
            sys.setswitchinterval(interval)
        responses = [r for batch in results for r in batch]
        assert len(responses) == clients * per_client
        assert all(r.status == STATUS_OK for r in responses)
        svc = service.stats
        assert svc.received == svc.answered == clients * per_client + 1
        # Every answer made exactly one counted cache lookup.
        assert service.cache.hits + service.cache.misses == svc.received
        assert server.stats.answered == clients * per_client

    def test_hits_go_to_the_pool_while_the_service_lock_is_held(self, service):
        """The loop answers inline only what needs no waiting: with the
        lock held or a plane armed, a hit and a miss alike go to the
        pool; with the lock free, a miss is answered inline too."""
        service.submit(_query(0))
        server = NetServer(service, NetConfig())
        with server._service_lock:
            assert server._answer_inline(_query(1)) is None
            assert server._answer_inline(_query(2, backend="energy")) is None
        assert server._answer_inline(_query(3)).cached
        miss = server._answer_inline(_query(4, backend="energy"))
        assert miss.ok and not miss.cached
        with activate(_latency_plan(1.0), seed=0):
            assert server._answer_inline(_query(5)) is None
        assert service.stats.received == service.stats.answered == 3

    def test_spilled_sessions_go_to_the_pool_until_faulted_in(
        self, scene_trace, tmp_path
    ):
        """A fault-in reads the store and may back off, so a spilled
        session's queries leave the loop until one of them faults the
        trace back in."""
        service = ProfilingService(
            ServiceConfig(telemetry=False, store_dir=str(tmp_path), spill=True)
        )
        service.ingest_trace("scene", scene_trace, "test")
        assert service.sessions["scene"].spilled
        server = NetServer(service, NetConfig())
        assert server._answer_inline(_query(1)) is None
        service.submit(_query(2))  # the pool's answer faults the trace in
        assert server._answer_inline(_query(3)).cached
        assert server._answer_inline(_query(4, backend="energy")).ok

    def test_one_outbound_item_per_read_chunk(self, service):
        service.submit(_query(0))
        items = []

        class Recording(NetServer):
            async def _flush(self, conn, batch):
                items.append(len(batch))
                await super()._flush(conn, batch)

        async def main():
            server = Recording(service, NetConfig())
            await server.start()
            try:
                lines = [_line(qid) for qid in range(1, 9)] + [b"{\n"]
                return await _raw_roundtrip(*server.address, [b"".join(lines)])
            finally:
                await server.shutdown()

        responses = asyncio.run(main())
        assert [r["id"] for r in responses] == list(range(1, 10))
        assert [r["status"] for r in responses] == [STATUS_OK] * 8 + [STATUS_ERROR]
        # The eight hits and the parse error, one item; then EOF's empty read.
        assert [n for n in items if n] == [9]

    def test_a_burst_of_misses_does_not_stall_another_connection(self, service):
        """The loop yields after each inline miss, so a hit on a second
        connection is answered while the first one's misses are still
        being computed."""
        service.submit(_query(0))
        misses = 48

        def miss_line(qid):
            query = QueryRequest(
                id=qid,
                session="scene",
                report=ReportRequest(backend="eandroid", start=qid * 1e-3),
            )
            return (json.dumps(query.to_dict()) + "\n").encode()

        async def scenario(server, host, port):
            burst_reader, burst_writer = await asyncio.open_connection(host, port)
            burst_writer.write(b"".join(miss_line(q) for q in range(1, misses + 1)))
            await burst_writer.drain()
            first = await asyncio.wait_for(burst_reader.readline(), 10.0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(_line(1000))
            await writer.drain()
            hit = json.loads(await asyncio.wait_for(reader.readline(), 10.0))
            answered_by_then = service.stats.received
            rest = [
                await asyncio.wait_for(burst_reader.readline(), 10.0)
                for _ in range(misses - 1)
            ]
            for w in (writer, burst_writer):
                w.close()
            return json.loads(first), hit, answered_by_then, rest

        server, (first, hit, answered_by_then, rest) = run_net(
            service, NetConfig(), scenario
        )
        assert first["status"] == STATUS_OK and not first["cached"]
        assert hit["id"] == 1000 and hit["status"] == STATUS_OK and hit["cached"]
        # The warm-up, the hit, and only part of the burst were in.
        assert answered_by_then < 1 + 1 + misses
        assert all(json.loads(line)["status"] == STATUS_OK for line in rest)
        assert server.stats.answered == misses + 1

    def test_armed_plane_sees_every_hot_query_at_net_latency(self, service):
        service.submit(_query(0))
        queries = 12
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="net.latency",
                    kind="latency",
                    probability=1.0,
                    max_injections=10 * queries,
                    delay_ms=1.0,
                ),
            )
        )

        async def scenario(server, host, port):
            async with AsyncServiceClient(host, port) as client:
                return await client.submit_all(
                    [_query(qid) for qid in range(1, queries + 1)]
                )

        with activate(plan, seed=0) as plane:
            _, responses = run_net(service, NetConfig(), scenario)
            injected = plane.summary()["injected"]
        assert all(r.status == STATUS_OK and r.cached for r in responses)
        assert injected["net.latency:latency"] == queries

    def test_one_write_per_wake_up(self, service):
        lines = [f'{{"id": {i}}}\n' for i in range(5)]
        server, conn, writer = _run_write_loop(service, lines)
        assert writer.writes == ["".join(lines).encode("utf-8")]
        assert server.stats.responses_written == conn.responses == 5

    def test_write_fault_mid_batch_breaks_the_connection(self, service):
        lines = [f'{{"id": {i}}}\n' for i in range(8)]
        plan = FaultPlan(
            specs=(FaultSpec("net.write", "io-error", 0.5, max_injections=1),)
        )
        # Which line the seeded plan fails on, replayed on a twin plane
        # (seed 3 fails the third: mid-batch).
        twin = FaultPlane(plan, seed=3)
        failing = 0
        for line in lines:
            try:
                twin.filter_write("net.write", line.encode("utf-8"))
            except OSError:
                break
            failing += 1
        assert 0 < failing < len(lines)
        with activate(plan, seed=3):
            server, conn, writer = _run_write_loop(service, lines)
        # The lines before the fault still go out, in one write.
        assert writer.writes == ["".join(lines[:failing]).encode("utf-8")]
        assert server.stats.responses_written == failing
        assert server.stats.write_errors == 1
        assert conn.broken and writer.aborted

    def test_write_fault_over_tcp_never_wedges_producers(self, service):
        service.submit(_query(0))
        plan = FaultPlan(
            specs=(FaultSpec("net.write", "io-error", 1.0, max_injections=1),)
        )

        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"".join(_line(qid) for qid in range(1, 49)))
            await writer.drain()
            try:
                tail = await asyncio.wait_for(reader.read(), 10.0)
            except (ConnectionError, OSError):
                tail = b""
            writer.close()
            return tail

        with activate(plan, seed=0):
            server, tail = run_net(service, NetConfig(pool_workers=2), scenario)
        assert tail == b""  # the first write failed: nothing reached the peer
        net = server.stats
        assert net.write_errors == 1 and net.responses_written == 0
        assert net.received >= 1
        assert net.received == net.answered + net.errors + net.shed
        assert net.connections_closed == 1 and not server._connections


# ----------------------------------------------------------------------
# graceful shutdown
# ----------------------------------------------------------------------
class TestGracefulShutdown:
    def test_shutdown_flushes_in_flight_responses(self, service):
        async def scenario():
            server = NetServer(service, NetConfig(pool_workers=1))
            await server.start()
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            with activate(_latency_plan(300.0), seed=0):
                writer.write(
                    b'{"id": 11, "session": "scene", "backend": "energy"}\n'
                )
                await writer.drain()
                await asyncio.sleep(0.1)  # the query is now in flight
                shutdown = asyncio.ensure_future(server.shutdown())
                line = await asyncio.wait_for(reader.readline(), timeout=10.0)
                tail = await asyncio.wait_for(reader.read(), timeout=10.0)
                await shutdown
            writer.close()
            return server, json.loads(line), tail

        server, response, tail = asyncio.run(scenario())
        # The in-flight query's answer was flushed before the close.
        assert response["id"] == 11
        assert response["status"] == STATUS_OK
        assert tail == b""
        assert server.stats.connections_closed == 1
        assert not server._connections

    def test_connections_after_shutdown_are_refused(self, service):
        async def scenario():
            server = NetServer(service, NetConfig())
            await server.start()
            host, port = server.address
            await server.shutdown()
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.open_connection(host, port)
            return True

        assert asyncio.run(scenario())


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
class TestNetTelemetry:
    def test_connection_and_deadline_events_are_published(self, service):
        config = NetConfig(deadline_s=0.2, pool_workers=1)

        async def scenario(server, host, port):
            async with AsyncServiceClient(host, port) as client:
                return await client.submit(_query(5))

        with capture() as recorder:
            with activate(_latency_plan(1500.0), seed=0):
                run_net(service, config, scenario)
        names = [type(event).__name__ for event in recorder.events]
        assert "ConnectionOpenedEvent" in names
        assert "ConnectionClosedEvent" in names
        assert "QueryDeadlineExceededEvent" in names
        deadline_event = next(
            e
            for e in recorder.events
            if type(e).__name__ == "QueryDeadlineExceededEvent"
        )
        assert deadline_event.session == "scene"
        assert deadline_event.deadline_s == 0.2
