"""E-Android's revised battery interface.

The third of the paper's three components.  It wraps either baseline
profiler ("We include the collateral attack modeling features to both
Android official battery interface and PowerTutor", §V) and superimposes
each app's collateral energy onto its row:

* apps rank "by total energy consumptions including collateral energy";
* each row keeps "a detailed inventory specifying contributions of all
  attack related apps", with "the apps' original energy ... also listed"
  (§IV-C / Fig. 8).

Percentages are computed against the device's ground-truth total for the
window, so a malware row can legitimately show a large share while the
direct consumers still appear — collateral energy is *superimposed*, not
moved (§IV-B).  The rule is :func:`repro.accounting.attribution.superimpose`,
shared with the offline analyzer.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..accounting.attribution import superimpose
from ..accounting.base import AppEnergyEntry, EnergyProfiler, ProfilerReport
from .accounting import EAndroidAccounting

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..android.framework import AndroidSystem


class EAndroidBatteryInterface(EnergyProfiler):
    """Baseline profiler + collateral superimposition."""

    backend = "eandroid"

    def __init__(
        self,
        system: "AndroidSystem",
        baseline: EnergyProfiler,
        accounting: EAndroidAccounting,
    ) -> None:
        self._system = system
        self._baseline = baseline
        self._accounting = accounting
        self.name = f"E-Android (revised {baseline.name})"

    def report(self, start: float = 0.0, end: Optional[float] = None) -> ProfilerReport:
        """Baseline view with collateral charges added to driving apps,
        ranked and taken as percentages of the window's ground truth."""
        window_end = self._system.kernel.now if end is None else end
        report = self._baseline.report(start, window_end)
        report.profiler = self.name
        accounting = self._accounting
        return superimpose(
            report,
            (
                (host, accounting.collateral_breakdown(host, start, window_end))
                for host in accounting.hosts()
            ),
            self._system.package_manager.label_for_uid,
            self._system.hardware.meter.total_energy_j(start=start, end=window_end),
        )

    def detailed_inventory(
        self, uid: int, start: float = 0.0, end: Optional[float] = None
    ) -> AppEnergyEntry:
        """One app's row with its full collateral breakdown (Fig. 8)."""
        report = self.report(start, end)
        entry = report.entry_for_uid(uid)
        if entry is None:
            entry = AppEnergyEntry(
                uid=uid,
                label=self._system.package_manager.label_for_uid(uid),
                energy_j=0.0,
            )
        return entry

    def component_inventory(
        self, uid: int, start: float = 0.0, end: Optional[float] = None
    ) -> dict:
        """eprof-style hardware-component split of an app's *own* energy.

        The related-work profilers the paper builds on (eprof, AppScope)
        decompose a single app's energy by component; E-Android keeps
        that view for the "own energy" part of a row, alongside the
        collateral inventory.
        """
        window_end = self._system.kernel.now if end is None else end
        return self._system.hardware.meter.energy_by_component(
            uid, start=start, end=window_end
        )

    def render_app_detail(
        self, uid: int, start: float = 0.0, end: Optional[float] = None
    ) -> str:
        """Full drill-down for one app: components + collateral."""
        entry = self.detailed_inventory(uid, start, end)
        lines = [f"=== {entry.label} (uid {uid}) — E-Android detail ==="]
        components = self.component_inventory(uid, start, end)
        if components:
            lines.append("  own energy by component:")
            for component, joules in sorted(
                components.items(), key=lambda kv: -kv[1]
            ):
                lines.append(f"    {component:<8} {joules:8.2f} J")
        else:
            lines.append("  own energy: none recorded")
        if entry.collateral_j:
            lines.append("  collateral energy by source:")
            for source, joules in sorted(
                entry.collateral_j.items(), key=lambda kv: -kv[1]
            ):
                lines.append(f"    {source:<8} {joules:8.2f} J")
        lines.append(f"  total: {entry.energy_j:.2f} J")
        return "\n".join(lines)
