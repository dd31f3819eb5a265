"""Offline attribution: reconstruct profiler views from a trace.

Given a :class:`~repro.offline.trace.DeviceTrace` — and nothing else —
the analyzer re-derives each profiler's battery view:

* :meth:`OfflineAnalyzer.batterystats_report` — per-app direct energy,
  screen/OS as standalone rows;
* :meth:`OfflineAnalyzer.powertutor_report` — screen redistributed over
  the recorded foreground timeline;
* :meth:`OfflineAnalyzer.eandroid_report` — the baseline plus collateral
  charges integrated over the recorded attack-link windows.

The rules are the live profilers' own (:mod:`repro.accounting.attribution`);
the analyzer supplies only the trace's data.  The invariant (tested): for
any run, the offline reports equal the online ones to numerical precision.
That makes traces a complete, portable record — the "offline analysis"
form of the paper's system.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple, TYPE_CHECKING

from ..accounting.attribution import direct_report, powertutor_report, superimpose
from ..accounting.base import ProfilerReport
from ..core.links import LinkIndex, LinkWindows, Windows
from ..power.components import SCREEN
from ..power.meter import SCREEN_OWNER
from ..power.trace import PowerTrace
from ..telemetry.events import SCREEN_TARGET
from .trace import DeviceTrace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..reports.request import ReportRequest
    from ..reports.view import ProfilerReportView


class OfflineAnalyzer:
    """Attribution over a captured trace."""

    def __init__(self, trace: DeviceTrace) -> None:
        self.trace = trace
        self._channels: Dict[Tuple[int, str], PowerTrace] = {}
        for channel in trace.channels:
            power_trace = PowerTrace()
            for t, mw in channel.breakpoints:
                power_trace.append(t, mw)
            self._channels[(channel.owner, channel.component)] = power_trace
        # owner -> its channels, in the order energy_j(owner=None) sums them
        self._by_owner: Dict[int, List[PowerTrace]] = {}
        for (owner, _), power_trace in self._channels.items():
            self._by_owner.setdefault(owner, []).append(power_trace)
        # Algorithm 1's charge runs; only the E-Android views build it
        self._link_index: Optional[LinkIndex] = None

    # ------------------------------------------------------------------
    # primitive energy queries
    # ------------------------------------------------------------------
    def energy_j(
        self,
        owner: Optional[int] = None,
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> float:
        """Energy over a window, optionally for one owner."""
        window_end = self.trace.captured_at if end is None else end
        channels = (
            self._channels.values() if owner is None else self._by_owner.get(owner, ())
        )
        return sum(channel.energy_j(start, window_end) for channel in channels)

    def owners(self) -> Set[int]:
        """Every owner appearing in the trace."""
        return {owner for owner, _ in self._channels}

    def label_for(self, uid: int) -> str:
        """Display label for a uid from the trace's app table."""
        return self.trace.apps.get(uid, f"uid:{uid}")

    def _is_system(self, uid: int) -> bool:
        return uid in self.trace.system_uids

    def _owner_energies(self, start: float, end: float) -> Iterator[Tuple[int, float]]:
        """``(owner, joules)`` for every owner in the trace, lazily."""
        for owner in self.owners():
            yield owner, self.energy_j(owner=owner, start=start, end=end)

    # ------------------------------------------------------------------
    # profiler reconstructions
    # ------------------------------------------------------------------
    def _direct_report(
        self, profiler: str, start: float, end: Optional[float]
    ) -> ProfilerReport:
        """The BatteryStats rule over the trace's channels."""
        window_end = self.trace.captured_at if end is None else end
        return direct_report(
            profiler,
            start,
            window_end,
            self._owner_energies(start, window_end),
            self.label_for,
            self._is_system,
        )

    def batterystats_report(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> ProfilerReport:
        """The stock-Android view, from the trace alone."""
        return self._direct_report("BatteryStats (offline)", start, end)

    def powertutor_report(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> ProfilerReport:
        """The PowerTutor view, from the trace alone."""
        window_end = self.trace.captured_at if end is None else end
        screen = self._channels.get((SCREEN_OWNER, SCREEN))
        return powertutor_report(
            "PowerTutor (offline)",
            start,
            window_end,
            self._owner_energies(start, window_end),
            screen.energy_j if screen is not None else None,
            self.trace.foreground,
            self.label_for,
            self._is_system,
        )

    # ------------------------------------------------------------------
    # E-Android offline
    # ------------------------------------------------------------------
    def _index(self) -> LinkIndex:
        """The trace's link index, swept on first use."""
        if self._link_index is None:
            self._link_index = LinkIndex(self.trace.links)
        return self._link_index

    def _link_windows(self, start: float, end: float) -> LinkWindows:
        """host -> target -> merged charge windows over ``[start, end]``,
        clipped from the link index one host at a time as it is read."""
        return LinkWindows(self._index(), start, end)

    def _breakdown(self, host_windows: Windows) -> Dict[int, float]:
        """target -> joules over one host's charge windows."""
        breakdown: Dict[int, float] = {}
        for target, intervals in host_windows.items():
            owner = SCREEN_OWNER if target == SCREEN_TARGET else target
            total = sum(
                self.energy_j(owner=owner, start=s, end=e) for s, e in intervals
            )
            if total > 0:
                breakdown[target] = total
        return breakdown

    def collateral_breakdown(
        self, host: int, start: float = 0.0, end: Optional[float] = None
    ) -> Dict[int, float]:
        """target -> joules charged to ``host``, from the trace alone."""
        window_end = self.trace.captured_at if end is None else end
        return self._breakdown(self._link_windows(start, window_end).get(host, {}))

    def _superimpose(
        self,
        report: ProfilerReport,
        start: float,
        end: float,
        hosts: Optional[Tuple[int, ...]] = None,
        total: Optional[float] = None,
    ) -> ProfilerReport:
        """The E-Android superimposition over the trace's link windows;
        ``hosts`` restricts which driving uids are charged."""
        windows = self._link_windows(start, end)
        return superimpose(
            report,
            (
                (host, self._breakdown(windows.get(host, {})))
                for host in self._index().sorted_hosts
                if hosts is None or host in hosts
            ),
            self.label_for,
            total,
        )

    def eandroid_report(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> ProfilerReport:
        """The revised (BatteryStats-based) E-Android view, offline."""
        window_end = self.trace.captured_at if end is None else end
        return self._superimpose(
            self._direct_report("E-Android (offline)", start, window_end),
            start,
            window_end,
            total=self.energy_j(start=start, end=window_end),
        )

    # ------------------------------------------------------------------
    # raw-energy / collateral report forms (for the unified API)
    # ------------------------------------------------------------------
    def energy_report(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> ProfilerReport:
        """Ground-truth per-owner energy, as report rows (no policy).

        The BatteryStats rows under their own name: no redistribution
        or collateral superimposition at all.
        """
        return self._direct_report("Energy (ground truth)", start, end)

    def collateral_report(
        self,
        start: float = 0.0,
        end: Optional[float] = None,
        hosts: Optional[Tuple[int, ...]] = None,
    ) -> ProfilerReport:
        """Per-host collateral inventories as report rows.

        One row per driving host carrying attack links in the window;
        the row's energy is the collateral total and its
        ``collateral_j`` map is the per-target breakdown.  ``hosts``
        restricts which driving uids are rendered.
        """
        window_end = self.trace.captured_at if end is None else end
        report = ProfilerReport(
            profiler="Collateral (offline)", start=start, end=window_end
        )
        return self._superimpose(report, start, window_end, hosts)

    def describe(self, request: "ReportRequest") -> "ProfilerReportView":
        """Answer a typed request — any of the five backends, offline.

        This is the dispatch the serving layer relies on: one analyzer
        (one ingested trace) renders every report surface through the
        unified :class:`~repro.reports.ReportView` protocol.
        """
        from ..reports.request import UnknownBackendError
        from ..reports.view import ProfilerReportView, view_from_report

        start, end = request.start, request.end
        if request.backend == "energy":
            report = self.energy_report(start, end)
        elif request.backend == "batterystats":
            report = self.batterystats_report(start, end)
        elif request.backend == "powertutor":
            report = self.powertutor_report(start, end)
        elif request.backend == "eandroid":
            report = self.eandroid_report(start, end)
        elif request.backend == "collateral":
            report = self.collateral_report(start, end, hosts=request.owners)
            return ProfilerReportView(backend="collateral", report=report)
        else:  # pragma: no cover - ReportRequest already validates
            raise UnknownBackendError(request.backend)
        return view_from_report(report, request.backend, request)
