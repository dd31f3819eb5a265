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

from repro.cli import _serve_daemon, main
from repro.offline import capture_trace
from repro.serve import (
    ALL_SESSIONS,
    MAX_LINE_BYTES,
    STATUS_ERROR,
    STATUS_OK,
    NetConfig,
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


def _daemon(service, data: bytes, capsys, max_line=MAX_LINE_BYTES):
    capsys.readouterr()
    _serve_daemon(service, io.BytesIO(data), max_line)
    return [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def _tcp(service, data: bytes, capsys=None, max_line=MAX_LINE_BYTES):
    async def main():
        server = NetServer(service, NetConfig(max_line_bytes=max_line))
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
    for limit in (MAX_LINE_BYTES, 100):
        data = _padded({"id": 1, "session": "a", "backend": "energy"}, limit)
        data += _padded({"id": 2, "session": "a", "backend": "energy"}, limit + 1)
        replies = TRANSPORTS[transport](_fleet(scene_trace), data, capsys, limit)
        answered, refused = sorted(replies, key=lambda r: r["id"])
        assert answered["id"] == 1 and answered["status"] == STATUS_OK
        assert refused["id"] == 2 and refused["status"] == STATUS_ERROR
        assert f"maximum line size ({limit} bytes)" in refused["error"]


def test_max_line_bounds_the_queries_file(scene_trace, tmp_path, capsys):
    trace = tmp_path / "a.json"
    trace.write_text(scene_trace.to_json(), encoding="utf-8")
    argv = ["serve", "--batch", str(trace), "--max-line", "100", "--queries"]
    at_limit = tmp_path / "at.jsonl"
    at_limit.write_bytes(_padded({"session": "a", "backend": "energy"}, 100))
    assert main(argv + [str(at_limit)]) == 0
    assert "1 answered" in capsys.readouterr().out
    over = tmp_path / "over.jsonl"
    over.write_bytes(_padded({"session": "a", "backend": "energy"}, 101))
    assert main(argv + [str(over)]) == 2
    assert "line 1: line exceeds the maximum line size (100 bytes)" in (
        capsys.readouterr().err
    )


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


def test_hot_lines_answer_alike_on_both_transports(scene_trace, capsys):
    """Lines that differ only in their id share one decode; a second id
    key, a leading zero or ``-0`` must not be answered from that table."""
    hot = b'"session": "a", "backend": "energy"}\n'
    data = b"".join(
        [
            b'{"id": 1, ' + hot,
            b'{"id": 2, ' + hot,
            b'{"id": 3, "session": "a", "backend": "energy", "id": 9}\n',
            b'{"id": 3, "session": "a", "backend": "energy", "id": 9}\n',
            b'{"id": 007, ' + hot,
            b'{"id": -0, ' + hot,
        ]
    )
    daemon = _daemon(_fleet(scene_trace), data, capsys)
    tcp = _tcp(_fleet(scene_trace), data)
    assert _comparable(daemon) == _comparable(tcp)
    assert [(r["id"], r["status"]) for r in daemon] == [
        (1, STATUS_OK),
        (2, STATUS_OK),
        (9, STATUS_OK),
        (9, STATUS_OK),
        (5, STATUS_ERROR),
        (0, STATUS_OK),
    ]
