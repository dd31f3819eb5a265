"""The unified report view — one shape for every report surface.

Historically the four report surfaces (BatteryStats, PowerTutor, the
E-Android interface, the offline analyzer) were consumed through
surface-specific calls and ad-hoc dict conversions.  :class:`ReportView`
is the one protocol they all now answer through: typed rows, a total, a
collateral inventory, and a schema-versioned ``to_dict()`` that is the
wire form the serving layer returns.

:class:`ProfilerReportView` is the concrete adapter over the existing
:class:`~repro.accounting.base.ProfilerReport`; :mod:`repro.export`
serialises reports through it (``report_to_json`` writes its
``repro.report/1`` form).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, TYPE_CHECKING

try:  # pragma: no cover - typing_extensions never needed on >=3.8
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..accounting.base import AppEnergyEntry, ProfilerReport
    from .request import ReportRequest

#: Version tag stamped into every ``ReportView.to_dict()`` document.
REPORT_SCHEMA = "repro.report/1"


@runtime_checkable
class ReportView(Protocol):
    """What every rendered report exposes, regardless of backend."""

    backend: str

    def rows(self) -> List["AppEnergyEntry"]:
        """The report rows (independent copies; callers may mutate)."""
        ...

    def total_j(self) -> float:
        """Total joules across every row."""
        ...

    def collateral(self) -> Dict[str, Dict[str, float]]:
        """Per-row collateral inventories: row label -> source -> joules."""
        ...

    def to_dict(self) -> Dict[str, Any]:
        """Schema-versioned JSON-ready form (the wire shape)."""
        ...


@dataclass(frozen=True)
class ProfilerReportView:
    """A :class:`ProfilerReport` adapted to the :class:`ReportView` protocol."""

    backend: str
    report: "ProfilerReport"

    # ------------------------------------------------------------------
    # protocol surface
    # ------------------------------------------------------------------
    def rows(self) -> List["AppEnergyEntry"]:
        """Independent copies of the report's entries."""
        return [entry.copy() for entry in self.report.entries]

    def total_j(self) -> float:
        """Sum over all rows."""
        return self.report.total_energy_j()

    def collateral(self) -> Dict[str, Dict[str, float]]:
        """label -> {source -> joules} for rows carrying collateral."""
        return {
            entry.label: dict(entry.collateral_j)
            for entry in self.report.entries
            if entry.collateral_j
        }

    def to_dict(self) -> Dict[str, Any]:
        """The schema-versioned wire form.

        The report's profiler, window and entries, plus the
        ``schema``/``backend``/``total_j`` envelope fields.
        """
        return {
            "schema": REPORT_SCHEMA,
            "backend": self.backend,
            "profiler": self.report.profiler,
            "window": {"start_s": self.report.start, "end_s": self.report.end},
            "total_j": self.total_j(),
            "entries": [
                {
                    "uid": entry.uid,
                    "label": entry.label,
                    "energy_j": entry.energy_j,
                    "own_energy_j": entry.own_energy_j,
                    "percent": entry.percent,
                    "is_screen": entry.is_screen,
                    "is_system": entry.is_system,
                    "collateral_j": dict(entry.collateral_j),
                }
                for entry in self.report.entries
            ],
        }

    # ------------------------------------------------------------------
    # conveniences beyond the protocol
    # ------------------------------------------------------------------
    @property
    def profiler(self) -> str:
        """The attribution policy that produced this view."""
        return self.report.profiler

    @property
    def start(self) -> float:
        """Window start (virtual seconds)."""
        return self.report.start

    @property
    def end(self) -> float:
        """Window end (virtual seconds)."""
        return self.report.end

    def render_text(self, top: int = 12) -> str:
        """ASCII battery-interface view (delegates to the report)."""
        return self.report.render_text(top)

    def restrict(self, owners) -> "ProfilerReportView":
        """A copy keeping only rows whose uid is in ``owners``.

        Rows without a uid (Screen / Android OS aggregates) are dropped
        by an owner filter — the caller asked for specific apps.
        """
        from ..accounting.base import ProfilerReport

        wanted = set(owners)
        filtered = ProfilerReport(
            profiler=self.report.profiler,
            start=self.report.start,
            end=self.report.end,
            entries=[
                entry.copy()
                for entry in self.report.entries
                if entry.uid is not None and entry.uid in wanted
            ],
        )
        return ProfilerReportView(backend=self.backend, report=filtered)


def view_from_report(
    report: "ProfilerReport",
    backend: str,
    request: Optional["ReportRequest"] = None,
) -> ProfilerReportView:
    """Wrap a profiler report, applying the request's owner filter."""
    view = ProfilerReportView(backend=backend, report=report)
    if request is not None and request.owners is not None and backend != "collateral":
        view = view.restrict(request.owners)
    return view
