"""Profiler interfaces and report structures.

A *profiler* is an attribution policy over the hardware meter's ground
truth.  The meter never lies about how much energy each hardware channel
drew; the profilers differ only in **who they blame** — which is the
paper's entire subject:

* BatteryStats (Android official): screen is its own line item;
* PowerTutor: screen energy goes to the foreground app;
* E-Android (:mod:`repro.core`): either baseline plus collateral
  attribution.

The rules themselves live once, in :mod:`repro.accounting.attribution`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..reports.request import ReportRequest
    from ..reports.view import ProfilerReportView


@dataclass
class AppEnergyEntry:
    """One row in a battery interface."""

    uid: Optional[int]
    label: str
    energy_j: float
    percent: float = 0.0
    is_screen: bool = False
    is_system: bool = False
    # E-Android extension: collateral contributions keyed by contributor
    # label ("Camera", "Screen", ...) -> joules.
    collateral_j: Dict[str, float] = field(default_factory=dict)

    @property
    def own_energy_j(self) -> float:
        """Energy minus collateral additions."""
        return self.energy_j - sum(self.collateral_j.values())

    def copy(self) -> "AppEnergyEntry":
        """An independent replica (callers may mutate report rows)."""
        return AppEnergyEntry(
            uid=self.uid,
            label=self.label,
            energy_j=self.energy_j,
            percent=self.percent,
            is_screen=self.is_screen,
            is_system=self.is_system,
            collateral_j=dict(self.collateral_j),
        )


@dataclass
class ProfilerReport:
    """A battery-interface snapshot over a time window."""

    profiler: str
    start: float
    end: float
    entries: List[AppEnergyEntry] = field(default_factory=list)

    def finalize(self, total: Optional[float] = None) -> "ProfilerReport":
        """Sort rows by energy and compute percentages of ``total``
        (default: the rows' own sum)."""
        self.entries.sort(key=lambda e: e.energy_j, reverse=True)
        if total is None:
            total = sum(e.energy_j for e in self.entries)
        for entry in self.entries:
            entry.percent = 100.0 * entry.energy_j / total if total > 0 else 0.0
        return self

    def entry_for(self, label: str) -> Optional[AppEnergyEntry]:
        """Row lookup by label."""
        for entry in self.entries:
            if entry.label == label:
                return entry
        return None

    def entry_for_uid(self, uid: int) -> Optional[AppEnergyEntry]:
        """Row lookup by uid."""
        for entry in self.entries:
            if entry.uid == uid:
                return entry
        return None

    def energy_of(self, label: str) -> float:
        """Energy of a row (0 if absent)."""
        entry = self.entry_for(label)
        return entry.energy_j if entry else 0.0

    def percent_of(self, label: str) -> float:
        """Percentage of a row (0 if absent)."""
        entry = self.entry_for(label)
        return entry.percent if entry else 0.0

    def total_energy_j(self) -> float:
        """Sum over all rows."""
        return sum(e.energy_j for e in self.entries)

    def render_text(self, top: int = 12) -> str:
        """ASCII battery-interface view (the figures' textual twin)."""
        lines = [
            f"=== {self.profiler} battery view "
            f"[{self.start:.0f}s, {self.end:.0f}s] ===",
        ]
        for entry in self.entries[:top]:
            lines.append(
                f"  {entry.label:<24} {entry.energy_j:>9.2f} J  {entry.percent:5.1f}%"
            )
            for source, joules in sorted(
                entry.collateral_j.items(), key=lambda kv: -kv[1]
            ):
                lines.append(f"      +{source:<20} {joules:>9.2f} J (collateral)")
        return "\n".join(lines)


class EnergyProfiler:
    """Interface every profiler implements."""

    name = "abstract"
    #: Which :data:`repro.reports.BACKENDS` name this profiler answers.
    backend = "energy"

    def report(self, start: float = 0.0, end: Optional[float] = None) -> ProfilerReport:
        """Produce a battery-interface snapshot for [start, end)."""
        raise NotImplementedError

    def report_view(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> "ProfilerReportView":
        """The unified-API form of :meth:`report` (a ReportView)."""
        from ..reports.view import ProfilerReportView

        return ProfilerReportView(backend=self.backend, report=self.report(start, end))

    def describe(self, request: "ReportRequest") -> "ProfilerReportView":
        """Answer a typed :class:`~repro.reports.ReportRequest`.

        Live profilers answer exactly one backend — the one they embody;
        the offline analyzer overrides this to dispatch all of them.
        """
        from ..reports.request import UnknownBackendError
        from ..reports.view import view_from_report

        if request.backend != self.backend:
            raise UnknownBackendError(request.backend)
        report = self.report(request.start, request.end)
        return view_from_report(report, self.backend, request)
