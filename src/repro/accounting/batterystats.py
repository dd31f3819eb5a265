"""Android's official BatteryStats profiler on a live device.

The rule is :func:`repro.accounting.attribution.direct_report`: screen
and platform draw are standalone rows, apps carry their direct energy.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from .attribution import direct_report
from .base import EnergyProfiler, ProfilerReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..android.framework import AndroidSystem


class BatteryStats(EnergyProfiler):
    """The stock Android battery interface."""

    name = "BatteryStats (Android)"
    backend = "batterystats"

    def __init__(self, system: "AndroidSystem") -> None:
        self._system = system

    def report(self, start: float = 0.0, end: Optional[float] = None) -> ProfilerReport:
        """Per-app direct energy; screen and OS as standalone rows."""
        meter = self._system.hardware.meter
        pm = self._system.package_manager
        window_end = self._system.kernel.now if end is None else end
        return direct_report(
            self.name,
            start,
            window_end,
            meter.energy_by_owner(start, window_end).items(),
            pm.label_for_uid,
            pm.is_system_uid,
        )
