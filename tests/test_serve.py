"""The energy query service: ingestion, serving, caching, backpressure."""

import asyncio
import json
from pathlib import Path

import pytest

from repro.accounting import BatteryStats, PowerTutor
from repro.faults import FaultPlan, FaultSpec, activate
from repro.faults.retry import RetryPolicy
from repro.offline import TraceFormatError, capture_trace
from repro.reports import BACKENDS, ReportRequest
from repro.serve import (
    ALL_SESSIONS,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    AsyncServiceClient,
    NetConfig,
    NetServer,
    ProfilingService,
    QueryFailedError,
    QueryRequest,
    QueryResponse,
    ServiceClient,
    ServiceConfig,
    expand_sessions,
)
from repro.workloads import run_attack3, run_scene1


@pytest.fixture(scope="module")
def scene_run():
    return run_scene1()


@pytest.fixture(scope="module")
def scene_trace(scene_run):
    return capture_trace(scene_run.system, scene_run.eandroid)


@pytest.fixture()
def service(scene_trace):
    svc = ProfilingService(ServiceConfig(telemetry=False))
    svc.ingest_trace("scene", scene_trace, "test")
    return svc


def _serve_tcp(service, config, scenario):
    """Run ``scenario(host, port)`` against a NetServer; (server, result)."""

    async def main():
        server = NetServer(service, config)
        await server.start()
        try:
            return server, await scenario(*server.address)
        finally:
            await server.shutdown()

    return asyncio.run(main())


class TestIngestion:
    def test_single_json_file(self, tmp_path, scene_trace):
        path = tmp_path / "device.json"
        path.write_text(scene_trace.to_json(), encoding="utf-8")
        svc = ProfilingService(ServiceConfig(telemetry=False))
        assert svc.ingest(path) == ["device"]

    def test_jsonl_stream(self, tmp_path, scene_trace):
        line = scene_trace.to_json()
        path = tmp_path / "fleet.jsonl"
        path.write_text(f"{line}\n{line}\n", encoding="utf-8")
        svc = ProfilingService(ServiceConfig(telemetry=False))
        assert svc.ingest(path) == ["fleet#1", "fleet#2"]

    def test_directory_and_corpus_entries(self):
        svc = ProfilingService(ServiceConfig(telemetry=False))
        names = svc.ingest("corpus")
        assert len(names) >= 1
        # corpus entries replay their recorded scenario into a trace
        for name in names:
            assert svc.sessions[name].trace.channels

    def test_malformed_document_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        svc = ProfilingService(ServiceConfig(telemetry=False))
        with pytest.raises(TraceFormatError):
            svc.ingest(bad)

    def test_missing_path_raises(self):
        svc = ProfilingService(ServiceConfig(telemetry=False))
        with pytest.raises(FileNotFoundError):
            svc.ingest("no-such-path")


class TestServing:
    def test_served_equals_live(self, service, scene_run):
        system, ea = scene_run.system, scene_run.eandroid
        client = ServiceClient(service)
        for backend, live in (
            ("batterystats", BatteryStats(system).report()),
            ("powertutor", PowerTutor(system).report()),
            ("eandroid", ea.report()),
        ):
            payload = client.query("scene", backend)
            assert payload["total_j"] == pytest.approx(
                live.total_energy_j(), rel=1e-6
            )
            served = {
                row["uid"]: row["energy_j"]
                for row in payload["entries"]
                if row["uid"] is not None
            }
            for entry in live.entries:
                if entry.uid is not None:
                    assert served[entry.uid] == pytest.approx(
                        entry.energy_j, rel=1e-6, abs=1e-9
                    )

    def test_all_backends_answer(self, service):
        client = ServiceClient(service)
        for backend in BACKENDS:
            payload = client.query("scene", backend)
            assert payload["schema"] == "repro.report/1"
            assert payload["backend"] == backend

    def test_cache_hits_on_repeat(self, service):
        (query,) = ServiceClient(service).build("scene", "eandroid")
        first = service.submit(query)
        second = service.submit(query)
        assert not first.cached and second.cached
        assert first.report == second.report
        assert service.cache.hits == 1 and service.cache.misses == 1
        # Both point at the one LRU entry; only an encoder fills its text.
        assert second.cached_report is first.cached_report is not None
        assert first.cached_report.text is None

    def test_reingest_under_the_same_name_drops_the_old_answers(self, scene_trace):
        attack = run_attack3()
        attack_trace = capture_trace(attack.system, attack.eandroid)
        svc = ProfilingService(ServiceConfig(telemetry=False))
        client = ServiceClient(svc)
        svc.ingest_trace("x", scene_trace, "test")
        (energy,) = client.build("x", "energy")
        (collateral,) = client.build("x", "collateral")
        before = svc.submit(energy)
        old_collateral = svc.submit(collateral)
        svc.ingest_trace("x", attack_trace, "test")
        fresh = ProfilingService(ServiceConfig(telemetry=False))
        fresh.ingest_trace("x", attack_trace, "test")
        after = svc.submit(energy)
        assert not after.cached
        assert after.report == fresh.submit(energy).report != before.report
        # The new record's analyzer sweeps the new trace's links.
        again = svc.submit(collateral)
        assert not again.cached
        assert again.report == fresh.submit(collateral).report
        assert again.report["entries"] and again.report != old_collateral.report

    def test_unobserved_queries_build_no_events(self, scene_trace, monkeypatch):
        """With no SERVE subscriber a query only ticks the bus: the bus
        counts the same, and a subscriber still gets every event."""
        from repro.serve import service as service_module
        from repro.telemetry import Category
        from repro.telemetry.bus import TelemetryRecorder

        def run(svc):
            svc.ingest_trace("scene", scene_trace, "test")
            for backend in ("energy", "energy", "eandroid"):
                (query,) = ServiceClient(svc).build("scene", backend)
                svc.submit(query)
            (ghost,) = ServiceClient(svc).build("ghost", "energy")
            svc.submit(ghost)
            return svc.bus.stats_dict()

        observed = ProfilingService(ServiceConfig(telemetry=True))
        recorder = TelemetryRecorder()
        recorder.attach(observed.bus, categories=[Category.SERVE])
        observed_stats = run(observed)
        served = [e for e in recorder.events if e.name == "query_served"]
        assert [(e.backend, e.cached, e.status) for e in served] == [
            ("energy", False, "ok"),
            ("energy", True, "ok"),
            ("eandroid", False, "ok"),
            ("energy", False, "error"),
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("event built with no subscriber")

        monkeypatch.setattr(service_module, "QueryServedEvent", refuse)
        assert run(ProfilingService(ServiceConfig(telemetry=True))) == observed_stats

    def test_unknown_session_is_error(self, service):
        (query,) = ServiceClient(service).build("ghost", "energy")
        response = service.submit(query)
        assert response.status == STATUS_ERROR
        assert "ghost" in response.error
        with pytest.raises(QueryFailedError):
            ServiceClient(service).query("ghost", "energy")

    def test_wildcard_fans_out(self, scene_trace):
        svc = ProfilingService(ServiceConfig(telemetry=False))
        svc.ingest_trace("a", scene_trace, "test")
        svc.ingest_trace("b", scene_trace, "test")
        payloads = ServiceClient(svc).query(ALL_SESSIONS, "energy")
        assert set(payloads) == {"a", "b"}

    def test_shed_names_the_callers_depth(self, service):
        """Shedding is the front-end's call; the service only counts it."""
        (query,) = ServiceClient(service).build("scene", "energy")
        response = service.shed(query, 2)
        assert response.status == STATUS_SHED
        assert (response.id, response.session) == (query.id, "scene")
        assert response.error == "queue full (depth 2); back off and resubmit"
        assert service.stats.received == service.stats.shed == 1

    def test_shed_exhaustion_names_query_and_session(self, service):
        """A still-shed response must say which query, where, how hard
        the client tried — not a bare 'queue full'."""
        client = ServiceClient(service)
        queries = [
            client.build("scene", "energy", start=float(i))[0] for i in range(3)
        ]

        async def scenario(host, port):
            async with AsyncServiceClient(host, port, max_resubmits=0) as remote:
                return await asyncio.wait_for(remote.submit_all(queries), 30)

        # A server that admits no pending query sheds every attempt.
        server, responses = _serve_tcp(service, NetConfig(max_pending=0), scenario)
        assert [r.status for r in responses] == [STATUS_SHED] * 3
        for query, response in zip(queries, responses):
            assert response.id == query.id
            assert response.error.startswith(
                f"query {query.id} on session 'scene' still shed after "
                "0 resubmit(s): queue full (depth 0)"
            )
        assert server.stats.shed == service.stats.shed == 3

    def test_manifest_shape(self, service):
        ServiceClient(service).query("scene", "energy")
        manifest = service.manifest()
        assert manifest["kind"] == "repro-serve-manifest"
        assert manifest["stats"]["answered"] == 1
        assert "scene" in manifest["sessions"]
        assert manifest["cache"]["capacity"] == service.config.cache_entries


class TestPositionalAnswers:
    """submit_all answers each query by its position."""

    def test_duplicate_ids_each_get_a_response(self, service):
        queries = [
            QueryRequest(7, "scene", ReportRequest("energy")),
            QueryRequest(7, "scene", ReportRequest("eandroid")),
        ]
        responses = ServiceClient(service).submit_all(queries)
        assert len(responses) == service.stats.received == 2
        assert [r.report["backend"] for r in responses] == ["energy", "eandroid"]

    def test_submit_all_matches_duplicate_ids_by_position(self, scene_trace):
        attack = run_attack3()
        svc = ProfilingService(ServiceConfig(telemetry=False))
        svc.ingest_trace("a", scene_trace, "test")
        svc.ingest_trace("b", capture_trace(attack.system, attack.eandroid), "test")
        energy_a = QueryRequest(7, "a", ReportRequest("energy"))
        eandroid_b = QueryRequest(7, "b", ReportRequest("eandroid"))
        responses = ServiceClient(svc).submit_all([energy_a, eandroid_b])
        assert [(r.session, r.report["backend"]) for r in responses] == [
            ("a", "energy"),
            ("b", "eandroid"),
        ]
        expected = svc.sessions["a"].analyzer.describe(energy_a.report)
        assert responses[0].report == expected.to_dict()

    def test_submit_all_resubmits_duplicate_ids_by_position(self, service):
        """Over TCP a shed query is resubmitted, and queries that share
        an id still get their answers by position."""
        queries = [
            QueryRequest(1, "scene", ReportRequest(backend))
            for backend in ("energy", "eandroid", "collateral")
        ]
        policy = RetryPolicy(base_delay_s=0.4, multiplier=1.0, max_delay_s=1.0)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="net.latency",
                    kind="latency",
                    probability=1.0,
                    max_injections=1,
                    delay_ms=500.0,
                ),
            )
        )

        async def scenario(host, port):
            # A latency-injected query holds the one admission slot, so
            # the first attempt is shed and resubmitted.
            _, slow = await asyncio.open_connection(host, port)
            slow.write(b'{"id": 9, "session": "scene", "backend": "energy"}\n')
            await slow.drain()
            await asyncio.sleep(0.05)
            try:
                async with AsyncServiceClient(host, port, policy=policy) as remote:
                    return await asyncio.wait_for(remote.submit_all(queries), 30)
            finally:
                slow.close()

        config = NetConfig(max_pending=1, pool_workers=1)
        with activate(plan, seed=0):
            server, responses = _serve_tcp(service, config, scenario)
        assert server.stats.shed >= 1
        assert [r.status for r in responses] == [STATUS_OK] * 3
        assert [(r.id, r.report["backend"]) for r in responses] == [
            (1, "energy"),
            (1, "eandroid"),
            (1, "collateral"),
        ]


class TestProtocol:
    def test_query_round_trip(self):
        query = QueryRequest(
            id=7,
            session="scene",
            report=ReportRequest(backend="eandroid", start=1.0, end=9.0),
        )
        assert QueryRequest.from_dict(query.to_dict()) == query

    def test_response_round_trip(self):
        response = QueryResponse(
            id=7, session="scene", status=STATUS_OK, report={"total_j": 1.0}
        )
        restored = QueryResponse.from_dict(response.to_dict())
        assert restored.id == 7 and restored.report == {"total_j": 1.0}

    @staticmethod
    def _serve_queries(tmp_path, lines, trace=None):
        """Run ``serve --queries`` on ``lines``: (exit code, responses)."""
        from repro.cli import main

        queries = tmp_path / "queries.jsonl"
        queries.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["serve", "--queries", str(queries), "--save", str(tmp_path / "out")]
        if trace is not None:
            batch = tmp_path / "a.json"
            batch.write_text(trace.to_json(), encoding="utf-8")
            argv += ["--batch", str(batch)]
        code = main(argv)
        out = tmp_path / "out" / "responses.jsonl"
        if not out.exists():
            return code, []
        return code, [json.loads(line) for line in out.read_text().splitlines()]

    def test_queries_file_skips_blank_and_comment_lines_in_default_ids(
        self, tmp_path, scene_trace, capsys
    ):
        lines = [
            "# comment",
            "",
            json.dumps({"session": "a", "backend": "energy"}),
            json.dumps({"id": 9, "session": "a", "backend": "eandroid"}),
        ]
        code, responses = self._serve_queries(tmp_path, lines, scene_trace)
        # Blank and comment lines are not counted, as on the daemon/TCP.
        assert code == 0
        assert [r["id"] for r in responses] == [1, 9]

    def test_expand_sessions_keeps_the_line_id(self):
        wildcard = QueryRequest(4, ALL_SESSIONS, ReportRequest("energy"))
        plain = QueryRequest(5, "b", ReportRequest("energy"))
        expanded = expand_sessions(wildcard, ["a", "b"])
        assert [(q.id, q.session) for q in expanded] == [(4, "a"), (4, "b")]
        assert expand_sessions(plain, ["a", "b"]) == [plain]
        assert expand_sessions(wildcard, []) == [wildcard]

    def test_parse_errors_carry_line_numbers(self, tmp_path, capsys):
        assert self._serve_queries(tmp_path, ["# ok", "{broken"]) == (2, [])
        err = capsys.readouterr().err
        assert "cannot load queries: line 2: not valid JSON" in err

    def test_bad_backend_refuses_the_queries_file(self, tmp_path, capsys):
        line = json.dumps({"session": "a", "backend": "nope"})
        assert self._serve_queries(tmp_path, [line]) == (2, [])
        assert "cannot load queries: line 1:" in capsys.readouterr().err

    def test_aggregate_lines_are_refused_by_the_queries_path(self, tmp_path, capsys):
        lines = [
            json.dumps({"session": "a", "backend": "energy"}),
            json.dumps({"backend": "eandroid", "op": "sum", "group_by": "owner"}),
        ]
        assert self._serve_queries(tmp_path, lines) == (2, [])
        err = capsys.readouterr().err
        assert "line 2: aggregate lines are answered by --daemon, --listen" in err
        assert "repro aggregate" in err


class TestStdinDaemon:
    """The stdin/stdout JSONL loop (`repro serve --daemon`)."""

    def _run_daemon(self, service, lines, monkeypatch, capsys):
        import io

        from repro.cli import _serve_daemon

        data = b"".join(
            line if isinstance(line, bytes) else line.encode("utf-8")
            for line in lines
        )
        _serve_daemon(service, io.BytesIO(data))
        return [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]

    def test_default_ids_match_the_queries_path(
        self, tmp_path, scene_trace, monkeypatch, capsys
    ):
        # Regression: `--queries` numbered id-less lines by physical line
        # (comments and blanks included) while the daemon numbered
        # request lines, so the same file answered under different ids.
        from pathlib import Path

        from repro.cli import main

        examples = Path(__file__).resolve().parent.parent / "examples"
        queries = examples / "queries.jsonl"
        trace = tmp_path / "scene.json"
        trace.write_text(scene_trace.to_json(), encoding="utf-8")
        save = tmp_path / "out"
        argv = ["serve", "--batch", str(trace), "--queries", str(queries)]
        assert main(argv + ["--save", str(save)]) == 0
        capsys.readouterr()
        batch_ids = [
            json.loads(line)["id"]
            for line in (save / "responses.jsonl").read_text().splitlines()
        ]
        service = ProfilingService(ServiceConfig(telemetry=False))
        service.ingest(trace)
        lines = queries.read_text(encoding="utf-8").splitlines(keepends=True)
        daemon_ids = [
            r["id"] for r in self._run_daemon(service, lines, monkeypatch, capsys)
        ]
        assert batch_ids[0] == 1
        assert daemon_ids == batch_ids

    def test_oversized_line_degrades_to_typed_error(
        self, service, monkeypatch, capsys
    ):
        # Regression: an over-long stdin line used to be fed straight to
        # the JSON parser; it must hit the shared MAX_LINE_BYTES guard
        # and come back as a typed error, like the TCP front-end.
        from repro.serve import MAX_LINE_BYTES

        huge = json.dumps(
            {
                "id": 5,
                "session": "scene",
                "backend": "energy",
                "pad": "x" * MAX_LINE_BYTES,
            }
        )
        follow_up = json.dumps({"id": 6, "session": "scene", "backend": "energy"})
        out = self._run_daemon(
            service, [huge + "\n", follow_up + "\n"], monkeypatch, capsys
        )
        assert len(out) == 2
        assert out[0]["status"] == "error"
        assert "maximum line size" in out[0]["error"]
        assert str(MAX_LINE_BYTES) in out[0]["error"]
        # the loop survives the oversized line and serves the next one
        assert out[1]["id"] == 6 and out[1]["status"] == STATUS_OK

    def test_non_utf8_line_is_typed_error_not_crash(self, tmp_path, scene_trace):
        # Regression: the daemon read stdin as text, so a byte that is not
        # UTF-8 killed it with a traceback and left later lines unanswered.
        import os
        import subprocess
        import sys

        trace = tmp_path / "scene.json"
        trace.write_text(scene_trace.to_json(), encoding="utf-8")
        data = b'{"session": "\xff", "backend": "energy"}\n' + (
            json.dumps({"session": "scene", "backend": "energy"}).encode() + b"\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--batch", str(trace), "--daemon"],
            input=data,
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert b"Traceback" not in done.stderr
        bad, good = [json.loads(line) for line in done.stdout.splitlines()]
        assert bad["id"] == 1 and bad["status"] == STATUS_ERROR and bad["error"]
        assert good["id"] == 2 and good["status"] == STATUS_OK

    def test_over_long_line_is_not_held_in_memory(self, tmp_path, scene_trace):
        # Regression: the daemon read stdin line by line, so a 64 MiB
        # line sat whole in memory (~169 MiB peak RSS) before the core
        # refused it.  Chunked framing discards it as it streams in.
        import os
        import subprocess
        import sys

        trace = tmp_path / "scene.json"
        trace.write_text(scene_trace.to_json(), encoding="utf-8")
        query = json.dumps({"session": "scene", "backend": "energy"}).encode() + b"\n"
        plain = tmp_path / "plain.jsonl"
        plain.write_bytes(query)
        hostile = tmp_path / "hostile.jsonl"
        with open(hostile, "wb") as out:
            out.write(b"#")
            for _ in range(64):
                out.write(b"x" * (1 << 20))
            out.write(b"\n" + query)
        tool = Path(__file__).resolve().parent.parent / "tools" / "peak_rss.py"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

        def run(stdin):
            replies = tmp_path / "replies.jsonl"
            done = subprocess.run(
                [sys.executable, str(tool), "--stdin", str(stdin),
                 "--stdout", str(replies), "--", sys.executable, "-m", "repro",
                 "serve", "--batch", str(trace), "--daemon"],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            lines = replies.read_text(encoding="utf-8").splitlines()
            return int(done.stdout.splitlines()[-1]), [json.loads(l) for l in lines]

        plain_kib, plain_replies = run(plain)
        hostile_kib, hostile_replies = run(hostile)
        assert [(r["id"], r["status"]) for r in plain_replies] == [(1, STATUS_OK)]
        assert [(r["id"], r["status"]) for r in hostile_replies] == [
            (1, STATUS_ERROR),
            (2, STATUS_OK),
        ]
        assert "maximum line size" in hostile_replies[0]["error"]
        assert hostile_kib - plain_kib < 16 * 1024, (plain_kib, hostile_kib)

    def test_garbage_line_is_typed_error_not_crash(
        self, service, monkeypatch, capsys
    ):
        out = self._run_daemon(
            service,
            ['{"id": broken\n', "# comment\n", "\n"],
            monkeypatch,
            capsys,
        )
        assert len(out) == 1
        assert out[0]["status"] == "error" and out[0]["error"]

    def test_valid_queries_still_answer(self, service, monkeypatch, capsys):
        line = json.dumps({"id": 3, "session": "scene", "backend": "eandroid"})
        out = self._run_daemon(service, [line + "\n"], monkeypatch, capsys)
        assert [r["status"] for r in out] == [STATUS_OK]
        assert out[0]["report"]["total_j"] > 0.0

    def test_wildcard_and_plain_lines_keep_their_line_ids(
        self, scene_trace, monkeypatch, capsys
    ):
        svc = ProfilingService(ServiceConfig(telemetry=False))
        for name in ("a", "b", "c"):
            svc.ingest_trace(name, scene_trace, "test")
        lines = [
            json.dumps({"session": ALL_SESSIONS, "backend": "energy"}) + "\n",
            json.dumps({"session": "b", "backend": "eandroid"}) + "\n",
        ]
        out = self._run_daemon(svc, lines, monkeypatch, capsys)
        assert [(r["id"], r["session"]) for r in out] == [
            (1, "a"),
            (1, "b"),
            (1, "c"),
            (2, "b"),
        ]

    def test_wildcard_with_no_sessions_is_a_typed_error(self, monkeypatch, capsys):
        empty = ProfilingService(ServiceConfig(telemetry=False))
        line = json.dumps({"id": 3, "session": ALL_SESSIONS, "backend": "energy"})
        (response,) = self._run_daemon(empty, [line + "\n"], monkeypatch, capsys)
        assert response["id"] == 3 and response["status"] == STATUS_ERROR
        assert "no sessions" in response["error"]

    def test_repeat_query_lines_are_exact_and_reuse_report_text(
        self, service, monkeypatch, capsys
    ):
        import io

        from repro.cli import _serve_daemon

        line = json.dumps({"id": 3, "session": "scene", "backend": "eandroid"})
        _serve_daemon(service, io.BytesIO((line + "\n").encode() * 2))
        wire = capsys.readouterr().out.splitlines(keepends=True)
        assert len(wire) == 2
        for raw in wire:
            doc = json.loads(raw)
            assert raw == json.dumps(QueryResponse.from_dict(doc).to_dict()) + "\n"
        assert [json.loads(raw)["cached"] for raw in wire] == [False, True]
        # The first encode filled the entry's slot; the hit reused it.
        (entry,) = service.cache._entries.values()
        assert entry.text == json.dumps(json.loads(wire[1])["report"])
