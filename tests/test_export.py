"""Tests for the JSON/CSV export helpers."""

import csv
import io
import json

import pytest

from repro.android import explicit
from repro.core import attach_eandroid
from repro.export import (
    attack_log_to_dicts,
    attack_log_to_json,
    battery_curve_to_csv,
    report_to_csv,
    report_to_json,
    save_report,
    save_text,
)

from helpers import booted_system, make_app


@pytest.fixture
def rig():
    system = booted_system(make_app("com.mal"), make_app("com.vic"))
    ea = attach_eandroid(system)
    mal = system.uid_of("com.mal")
    system.hardware.cpu.set_utilization(system.uid_of("com.vic"), 0.4)
    system.am.bind_service(mal, explicit("com.vic", "PlainService"))
    system.run_for(20.0)
    return system, ea


class TestReportExport:
    def test_dict_shape(self, rig):
        system, ea = rig
        data = json.loads(report_to_json(ea.report()))
        assert data["profiler"].startswith("E-Android")
        assert data["window"]["end_s"] == system.now
        labels = {entry["label"] for entry in data["entries"]}
        assert {"Mal", "Vic"} <= labels
        mal_entry = next(e for e in data["entries"] if e["label"] == "Mal")
        assert mal_entry["collateral_j"]["Vic"] > 0

    def test_json_parses(self, rig):
        _, ea = rig
        parsed = json.loads(report_to_json(ea.report()))
        assert parsed["entries"]

    def test_csv_parses(self, rig):
        _, ea = rig
        rows = list(csv.DictReader(io.StringIO(report_to_csv(ea.report()))))
        assert rows
        mal = next(r for r in rows if r["label"] == "Mal")
        assert float(mal["collateral_j"]) > 0

    def test_save_report(self, rig, tmp_path):
        _, ea = rig
        paths = save_report(ea.report(), tmp_path, stem="attack")
        assert paths["json"].exists()
        assert paths["csv"].exists()
        assert json.loads(paths["json"].read_text())["entries"]

    def test_save_text_creates_directories(self, tmp_path):
        target = save_text(tmp_path / "deep" / "dir" / "x.txt", "hello")
        assert target.read_text() == "hello"


class TestBatteryCurveExport:
    def test_csv_columns(self, rig):
        system, _ = rig
        csv_text = battery_curve_to_csv(
            system.battery.discharge_curve(step_s=5.0, until=system.now)
        )
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        assert rows
        assert set(rows[0]) == {"hours", "percent"}
        assert float(rows[0]["percent"]) <= 100.0


class TestAttackLogExport:
    def test_dict_rows(self, rig):
        system, ea = rig
        rows = attack_log_to_dicts(ea.accounting)
        assert len(rows) == 1
        assert rows[0]["kind"] == "service_bind"
        assert rows[0]["alive"] is True

    def test_labelled_rows(self, rig):
        system, ea = rig
        rows = attack_log_to_dicts(
            ea.accounting, label_for_uid=system.package_manager.label_for_uid
        )
        assert rows[0]["driving"] == "Mal"
        assert rows[0]["target"] == "Vic"

    def test_screen_target_labelled(self, rig):
        system, ea = rig
        from repro.android import SCREEN_BRIGHTNESS

        mal = system.uid_of("com.mal")
        system.settings.put(mal, SCREEN_BRIGHTNESS, 255)
        rows = attack_log_to_dicts(ea.accounting)
        assert any(row["target"] == "screen" for row in rows)

    def test_json_parses(self, rig):
        _, ea = rig
        assert json.loads(attack_log_to_json(ea.accounting))
