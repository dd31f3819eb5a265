"""Export helpers: battery reports, drain curves, attack logs, and
telemetry streams to JSON/CSV for downstream analysis or plotting
outside the simulator.

The telemetry exporters (Chrome trace-event JSON, JSONL, metrics
summary) live in :mod:`repro.telemetry.export` and are re-exported here
so every file-producing helper is importable from one place.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Any, Dict, List, Sequence, Union

from .accounting.base import ProfilerReport
from .reports.view import ProfilerReportView
from .core.accounting import EAndroidAccounting
from .core.links import SCREEN_TARGET
from .power.battery import BatterySample
from .telemetry.export import (  # noqa: F401 - re-exported telemetry exporters
    chrome_trace_json,
    events_to_jsonl,
    metrics_summary,
    render_metrics_text,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# profiler reports
# ----------------------------------------------------------------------
def _backend_for(report: ProfilerReport) -> str:
    """The Report API backend name for a bare report, from its profiler."""
    profiler = report.profiler
    if profiler.startswith("BatteryStats"):
        return "batterystats"
    if profiler.startswith("PowerTutor"):
        return "powertutor"
    if profiler.startswith("E-Android"):
        return "eandroid"
    if profiler.startswith("Collateral"):
        return "collateral"
    return "energy"


def report_to_json(report: ProfilerReport, indent: int = 2) -> str:
    """A profiler report serialised to JSON text (its ``repro.report/1`` form)."""
    view = ProfilerReportView(backend=_backend_for(report), report=report)
    return json.dumps(view.to_dict(), indent=indent)


def report_to_csv(report: ProfilerReport) -> str:
    """A profiler report as CSV (one row per entry)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["label", "uid", "energy_j", "own_energy_j", "collateral_j", "percent"]
    )
    for entry in report.entries:
        writer.writerow(
            [
                entry.label,
                entry.uid if entry.uid is not None else "",
                f"{entry.energy_j:.6f}",
                f"{entry.own_energy_j:.6f}",
                f"{sum(entry.collateral_j.values()):.6f}",
                f"{entry.percent:.3f}",
            ]
        )
    return buffer.getvalue()


# ----------------------------------------------------------------------
# battery curves
# ----------------------------------------------------------------------
def battery_curve_to_csv(samples: Sequence[BatterySample]) -> str:
    """A discharge curve as CSV (hours, percent)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["hours", "percent"])
    for sample in samples:
        writer.writerow([f"{sample.time_s / 3600.0:.4f}", f"{sample.percent:.3f}"])
    return buffer.getvalue()


# ----------------------------------------------------------------------
# attack logs
# ----------------------------------------------------------------------
def attack_log_to_dicts(
    accounting: EAndroidAccounting, label_for_uid=None
) -> List[Dict[str, Any]]:
    """The full attack-link history as JSON-ready rows."""
    rows = []
    for link in accounting.attack_log():
        target: Any = link.target
        if target == SCREEN_TARGET:
            target = "screen"
        elif label_for_uid is not None:
            target = label_for_uid(link.target)
        driving: Any = link.driving_uid
        if label_for_uid is not None:
            driving = label_for_uid(link.driving_uid)
        rows.append(
            {
                "link_id": link.link_id,
                "kind": link.kind.value,
                "driving": driving,
                "target": target,
                "begin_s": link.begin_time,
                "end_s": link.end_time,
                "alive": link.alive,
                "detail": link.detail,
            }
        )
    return rows


def attack_log_to_json(
    accounting: EAndroidAccounting, label_for_uid=None, indent: int = 2
) -> str:
    """The attack-link history as JSON text."""
    return json.dumps(
        attack_log_to_dicts(accounting, label_for_uid), indent=indent
    )


# ----------------------------------------------------------------------
# device traces
# ----------------------------------------------------------------------
def save_trace(trace, path: PathLike, binary=None) -> Path:
    """Write a :class:`~repro.offline.DeviceTrace` to disk.

    Format defaults from the suffix (``.bin``/``.rtb`` → the columnar
    binary format, else JSON); pass ``binary`` to override.  Parent
    directories are created.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    return trace.save(target, binary=binary)


def load_trace(path: PathLike):
    """Read a :class:`~repro.offline.DeviceTrace` in either format."""
    from .offline.trace import DeviceTrace

    return DeviceTrace.load(path)


# ----------------------------------------------------------------------
# file helpers
# ----------------------------------------------------------------------
def save_text(path: PathLike, content: str) -> Path:
    """Write text to a file, creating parent directories."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(content, encoding="utf-8")
    return target


def save_report(
    report: ProfilerReport, directory: PathLike, stem: str = "report"
) -> Dict[str, Path]:
    """Write a report as both JSON and CSV; returns the written paths."""
    base = Path(directory)
    return {
        "json": save_text(base / f"{stem}.json", report_to_json(report)),
        "csv": save_text(base / f"{stem}.csv", report_to_csv(report)),
    }
