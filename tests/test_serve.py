"""The energy query service: ingestion, serving, caching, backpressure."""

import json

import pytest

from repro.accounting import BatteryStats, PowerTutor
from repro.offline import TraceFormatError, capture_trace
from repro.reports import BACKENDS, ReportRequest
from repro.serve import (
    ALL_SESSIONS,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    ProfilingService,
    ProtocolError,
    QueryFailedError,
    QueryRequest,
    QueryResponse,
    ServiceClient,
    ServiceConfig,
    parse_queries_jsonl,
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

    def test_submit_cached_counts_hits_and_ignores_misses(self, service):
        (query,) = ServiceClient(service).build("scene", "eandroid")
        # A miss answers nothing and counts nothing: the caller falls
        # back to submit, which counts it once.
        assert service.submit_cached(query) is None
        assert service.stats.received == 0
        assert service.cache.hits == service.cache.misses == 0
        first = service.submit(query)
        hit = service.submit_cached(query)
        assert hit is not None and hit.cached and hit.ok
        assert hit.report is first.report
        assert hit.cached_report is first.cached_report is not None
        # submit never fills the report-text slot; only an encoder does.
        assert first.cached_report.text is None
        stats = service.stats
        assert stats.received == stats.answered == 2
        assert service.cache.hits == 1 and service.cache.misses == 1

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

    def test_shed_on_small_queue(self, scene_trace):
        svc = ProfilingService(ServiceConfig(max_queue=2, telemetry=False))
        svc.ingest_trace("scene", scene_trace, "test")
        client = ServiceClient(svc)
        queries = [
            client.build("scene", "energy", start=float(i))[0] for i in range(5)
        ]
        responses = svc.serve_batch(queries, burst=5)
        statuses = [r.status for r in responses]
        assert statuses.count(STATUS_OK) == 2
        assert statuses.count(STATUS_SHED) == 3
        assert svc.stats.shed == 3

    def test_client_resubmits_shed(self, scene_trace):
        svc = ProfilingService(ServiceConfig(max_queue=2, telemetry=False))
        svc.ingest_trace("scene", scene_trace, "test")
        client = ServiceClient(svc)
        queries = [
            client.build("scene", "energy", start=float(i))[0] for i in range(5)
        ]
        responses = client.submit_all(queries, burst=5)
        assert all(r.status == STATUS_OK for r in responses)

    def test_shed_exhaustion_names_query_and_session(self, scene_trace):
        """A still-shed response must say which query, where, how hard
        the client tried — not a bare 'queue full'."""
        svc = ProfilingService(ServiceConfig(max_queue=2, telemetry=False))
        svc.ingest_trace("scene", scene_trace, "test")
        client = ServiceClient(svc, max_resubmits=0)
        queries = [
            client.build("scene", "energy", start=float(i))[0] for i in range(5)
        ]
        responses = client.submit_all(queries, burst=5)
        shed = [r for r in responses if r.status == STATUS_SHED]
        assert len(shed) == 3
        for response in shed:
            assert f"query {response.id} " in response.error
            assert "session 'scene'" in response.error
            assert "0 resubmit(s)" in response.error

    def test_manifest_shape(self, service):
        ServiceClient(service).query("scene", "energy")
        manifest = service.manifest()
        assert manifest["kind"] == "repro-serve-manifest"
        assert manifest["stats"]["answered"] == 1
        assert "scene" in manifest["sessions"]
        assert manifest["cache"]["capacity"] == service.config.cache_entries


class TestSharding:
    def test_two_workers_match_serial(self, scene_trace):
        attack = run_attack3()
        attack_trace = capture_trace(attack.system, attack.eandroid)

        def build(workers):
            svc = ProfilingService(
                ServiceConfig(workers=workers, telemetry=False)
            )
            svc.ingest_trace("scene", scene_trace, "test")
            svc.ingest_trace("attack", attack_trace, "test")
            return svc

        serial, sharded = build(1), build(2)
        queries = [
            QueryRequest(
                id=i,
                session=session,
                report=ReportRequest(backend=backend),
            )
            for i, (session, backend) in enumerate(
                (s, b)
                for s in ("scene", "attack")
                for b in ("batterystats", "eandroid", "collateral")
            )
        ]
        serial_responses = serial.serve_batch(list(queries))
        sharded_responses = sharded.serve_batch(list(queries))
        assert all(r.status == STATUS_OK for r in sharded_responses)
        for a, b in zip(serial_responses, sharded_responses):
            assert a.id == b.id and a.report == b.report

    def test_shard_assignment_is_stable(self, service):
        assert service.shard_of("scene") == service.shard_of("scene")


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

    def test_parse_queries_jsonl(self):
        lines = [
            "# comment",
            "",
            json.dumps({"session": "a", "backend": "energy"}),
            json.dumps({"id": 9, "session": "b", "backend": "eandroid"}),
        ]
        queries = parse_queries_jsonl(lines)
        assert [q.id for q in queries] == [3, 9]

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ProtocolError, match="line 2"):
            parse_queries_jsonl(["# ok", "{broken"])

    def test_bad_backend_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            parse_queries_jsonl([json.dumps({"session": "a", "backend": "nope"})])


class TestStdinDaemon:
    """The stdin/stdout JSONL loop (`repro serve --daemon`)."""

    def _run_daemon(self, service, lines, monkeypatch, capsys):
        import io

        from repro.cli import _serve_daemon

        monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
        _serve_daemon(service, ServiceClient(service))
        return [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]

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

    def test_repeat_query_lines_are_exact_and_reuse_report_text(
        self, service, monkeypatch, capsys
    ):
        import io

        from repro.cli import _serve_daemon

        line = json.dumps({"id": 3, "session": "scene", "backend": "eandroid"})
        monkeypatch.setattr("sys.stdin", io.StringIO((line + "\n") * 2))
        _serve_daemon(service, ServiceClient(service))
        wire = capsys.readouterr().out.splitlines(keepends=True)
        assert len(wire) == 2
        for raw in wire:
            doc = json.loads(raw)
            assert raw == json.dumps(QueryResponse.from_dict(doc).to_dict()) + "\n"
        assert [json.loads(raw)["cached"] for raw in wire] == [False, True]
        # The first encode filled the entry's slot; the hit reused it.
        (entry,) = service.cache._entries.values()
        assert entry.text == json.dumps(json.loads(wire[1])["report"])
