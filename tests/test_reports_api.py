"""The unified Report API: requests, views, and the JSON report export."""

import json

import pytest

from repro.accounting import BatteryStats, PowerTutor
from repro.export import report_to_json
from repro.offline import OfflineAnalyzer, capture_trace
from repro.reports import (
    BACKENDS,
    REPORT_SCHEMA,
    ProfilerReportView,
    ReportRequest,
    ReportView,
    UnknownBackendError,
    view_from_report,
)
from repro.workloads import run_attack3


@pytest.fixture(scope="module")
def attack_run():
    return run_attack3()


class TestReportRequest:
    def test_unknown_backend_raises(self):
        with pytest.raises(UnknownBackendError):
            ReportRequest(backend="nope")

    def test_backends_construct(self):
        for backend in BACKENDS:
            assert ReportRequest(backend=backend).backend == backend

    def test_owners_normalised_sorted(self):
        request = ReportRequest(backend="energy", owners=[30, 10, 20])
        assert request.owners == (10, 20, 30)

    def test_key_distinguishes_fields(self):
        keys = {
            ReportRequest(backend="energy").key(),
            ReportRequest(backend="eandroid").key(),
            ReportRequest(backend="energy", start=1.0).key(),
            ReportRequest(backend="energy", end=5.0).key(),
            ReportRequest(backend="energy", owners=(10,)).key(),
        }
        assert len(keys) == 5

    def test_dict_round_trip(self):
        request = ReportRequest(backend="powertutor", start=2.0, end=9.0, owners=(10,))
        assert ReportRequest.from_dict(request.to_dict()) == request

    def test_frozen(self):
        request = ReportRequest(backend="energy")
        with pytest.raises(AttributeError):
            request.backend = "eandroid"


class TestReportViews:
    def test_live_profilers_expose_views(self, attack_run):
        system, ea = attack_run.system, attack_run.eandroid
        for profiler in (BatteryStats(system), PowerTutor(system), ea.interface):
            view = profiler.report_view()
            assert isinstance(view, ReportView)
            assert view.backend == profiler.backend
            assert view.total_j() == pytest.approx(
                profiler.report().total_energy_j()
            )

    def test_to_dict_schema(self, attack_run):
        view = BatteryStats(attack_run.system).report_view()
        doc = view.to_dict()
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["backend"] == "batterystats"
        assert doc["total_j"] == pytest.approx(view.total_j())
        assert {"uid", "label", "energy_j", "collateral_j"} <= set(doc["entries"][0])

    def test_describe_validates_backend(self, attack_run):
        profiler = BatteryStats(attack_run.system)
        with pytest.raises(UnknownBackendError):
            profiler.describe(ReportRequest(backend="powertutor"))
        view = profiler.describe(ReportRequest(backend="batterystats"))
        assert view.backend == "batterystats"

    def test_owner_filter(self, attack_run):
        system = attack_run.system
        report = BatteryStats(system).report()
        uids = [e.uid for e in report.entries if e.uid is not None]
        keep = uids[0]
        request = ReportRequest(backend="batterystats", owners=(keep,))
        view = view_from_report(report, "batterystats", request)
        assert [row.uid for row in view.rows()] == [keep]

    def test_offline_analyzer_describes_all_backends(self, attack_run):
        trace = capture_trace(attack_run.system, attack_run.eandroid)
        analyzer = OfflineAnalyzer(trace)
        for backend in BACKENDS:
            view = analyzer.describe(ReportRequest(backend=backend))
            assert view.backend == backend
            assert view.to_dict()["schema"] == REPORT_SCHEMA


class TestReportToJson:
    def test_byte_identity_with_view(self, attack_run):
        system, ea = attack_run.system, attack_run.eandroid
        for profiler, backend in (
            (BatteryStats(system), "batterystats"),
            (PowerTutor(system), "powertutor"),
            (ea.interface, "eandroid"),
        ):
            report = profiler.report()
            fresh = ProfilerReportView(backend=backend, report=report).to_dict()
            assert report_to_json(report) == json.dumps(fresh, indent=2)
