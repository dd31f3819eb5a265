"""Transport parity: the stdin daemon and TCP answer the same bytes alike.

Both front-ends route every line through the request core
(``repro.serve.core``), so one byte stream — hostile lines included —
must produce the same responses on either, up to ordering (TCP answers
concurrent lines as they finish) and ``latency_us``.
"""

import asyncio
import io
import json

import pytest

from repro.cli import _serve_daemon
from repro.offline import capture_trace
from repro.serve import (
    ALL_SESSIONS,
    MAX_LINE_BYTES,
    STATUS_ERROR,
    STATUS_OK,
    NetServer,
    ProfilingService,
    ServiceConfig,
)
from repro.workloads import run_scene1


@pytest.fixture(scope="module")
def scene_trace():
    run = run_scene1()
    return capture_trace(run.system, run.eandroid)


def _fleet(scene_trace, names=("a", "b", "c")):
    service = ProfilingService(ServiceConfig(telemetry=False))
    for name in names:
        service.ingest_trace(name, scene_trace, "test")
    return service


def _line(doc) -> bytes:
    return json.dumps(doc).encode() + b"\n"


def _padded(doc, size: int) -> bytes:
    """``doc`` as a line of exactly ``size`` bytes, newline excluded."""
    text = json.dumps(doc).encode()
    return text + b" " * (size - len(text)) + b"\n"


def _daemon(service, data: bytes, capsys):
    capsys.readouterr()
    _serve_daemon(service, io.BytesIO(data))
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def _tcp(service, data: bytes, capsys=None):
    async def main():
        server = NetServer(service)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                *server.address, limit=16 * MAX_LINE_BYTES
            )
            writer.write(data)
            await writer.drain()
            writer.write_eof()
            replies = []
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=30.0)
                if not line:
                    break
                replies.append(json.loads(line))
            writer.close()
        finally:
            await server.shutdown()
        return replies

    return asyncio.run(main())


TRANSPORTS = {"daemon": _daemon, "tcp": _tcp}


def _comparable(replies):
    rows = [{k: v for k, v in r.items() if k != "latency_us"} for r in replies]
    return sorted(rows, key=lambda r: (r["id"], r.get("session", "")))


HOSTILE_STREAM = b"".join(
    [
        b"\n",
        b"# a comment\n",
        b"   \n",
        _line({"session": ALL_SESSIONS, "backend": "energy"}),
        _line({"session": "b", "backend": "eandroid"}),
        _line({"backend": "eandroid", "op": "sum", "group_by": "owner"}),
        b"[1, 2, 3]\n",
        _line({"id": "x", "session": "a", "backend": "energy"}),
        b'{"id": broken\n',
        b'{"session": "\xff", "backend": "energy"}\n',
        _padded({"session": "a", "backend": "batterystats"}, MAX_LINE_BYTES),
        _padded({"session": "a", "backend": "powertutor"}, MAX_LINE_BYTES + 1),
        b"#" + b"x" * MAX_LINE_BYTES + b"\n",
        _line({"session": "c", "backend": "collateral"}),
    ]
)


@pytest.mark.parametrize("sessions", [("a", "b", "c"), ()], ids=["fleet", "empty"])
def test_daemon_and_tcp_answer_the_same_stream_alike(scene_trace, sessions, capsys):
    daemon = _daemon(_fleet(scene_trace, sessions), HOSTILE_STREAM, capsys)
    tcp = _tcp(_fleet(scene_trace, sessions), HOSTILE_STREAM)
    assert _comparable(daemon) == _comparable(tcp)
    # Eleven request lines (the wildcard fans out); nothing dropped.
    assert len(daemon) == 11 + max(len(sessions) - 1, 0)
    assert daemon[-1]["id"] == 11


@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
def test_size_boundary_excludes_the_newline(scene_trace, transport, capsys):
    data = _padded({"id": 1, "session": "a", "backend": "energy"}, MAX_LINE_BYTES)
    data += _padded({"id": 2, "session": "a", "backend": "energy"}, MAX_LINE_BYTES + 1)
    answered, refused = TRANSPORTS[transport](_fleet(scene_trace), data, capsys)
    assert answered["id"] == 1 and answered["status"] == STATUS_OK
    assert refused["id"] == 2 and refused["status"] == STATUS_ERROR
    assert "maximum line size" in refused["error"]


def test_overlong_comment_counts_toward_default_ids(scene_trace, capsys):
    data = b"#" + b"x" * MAX_LINE_BYTES + b"\n"
    data += _line({"session": "a", "backend": "energy"})
    data += _line({"session": "b", "backend": "energy"})
    daemon = _daemon(_fleet(scene_trace), data, capsys)
    tcp = _tcp(_fleet(scene_trace), data)
    assert [(r["id"], r["status"]) for r in daemon] == [
        (1, STATUS_ERROR),
        (2, STATUS_OK),
        (3, STATUS_OK),
    ]
    assert "maximum line size" in daemon[0]["error"]
    assert _comparable(daemon) == _comparable(tcp)
