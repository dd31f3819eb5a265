"""PowerTutor's profiler on a live device.

The rule is :func:`repro.accounting.attribution.powertutor_report`:
screen energy is split over the foreground timeline, every other
channel attributes as in BatteryStats.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from ..power.components import SCREEN
from ..power.meter import SCREEN_OWNER
from .attribution import powertutor_report
from .base import EnergyProfiler, ProfilerReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..android.framework import AndroidSystem


class PowerTutor(EnergyProfiler):
    """Screen-to-foreground attribution."""

    name = "PowerTutor"
    backend = "powertutor"

    def __init__(self, system: "AndroidSystem") -> None:
        self._system = system

    def report(self, start: float = 0.0, end: Optional[float] = None) -> ProfilerReport:
        """Per-app direct energy plus foreground-interval screen shares."""
        meter = self._system.hardware.meter
        pm = self._system.package_manager
        window_end = self._system.kernel.now if end is None else end
        screen = meter.trace(SCREEN_OWNER, SCREEN)
        return powertutor_report(
            self.name,
            start,
            window_end,
            meter.energy_by_owner(start, window_end).items(),
            screen.energy_j if screen is not None else None,
            self._system.am.timeline.changes(),
            pm.label_for_uid,
            pm.is_system_uid,
        )
