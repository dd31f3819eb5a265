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

from bisect import insort
from typing import Dict, Iterator, List, Optional, Set, Tuple, TYPE_CHECKING

from ..accounting.attribution import direct_report, powertutor_report, superimpose
from ..accounting.base import ProfilerReport
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
    def _link_windows(
        self, start: float, end: float
    ) -> Dict[int, Dict[int, List[Tuple[float, float]]]]:
        """host -> target -> merged charge windows, from the link log.

        Reconstructs per-(host, target) windows by reachability over the
        link set live at the midpoint of every segment between link
        boundaries — the offline equivalent of the live map-set sync.
        One sweep: link indices sorted by begin and by end advance a
        live set with the midpoints (which never decrease, so a link
        enters and leaves the set at most once), and reachability is
        recomputed only at segments where that set changed.  Each host's reach is a walk
        over a per-driver adjacency of the live links in trace order, so
        target sets (and the dict order they give the result) match a
        walk over the whole live list.  A run of segments in which a
        host reaches a target becomes one window.
        """
        links = self.trace.links
        boundaries = sorted(
            {start, end}
            | {l.begin_time for l in links}
            | {l.end_time for l in links if l.end_time is not None}
        )
        boundaries = [b for b in boundaries if start <= b <= end]
        if not boundaries or boundaries[0] > start:
            boundaries.insert(0, start)
        if boundaries[-1] < end:
            boundaries.append(end)
        windows: Dict[int, Dict[int, List[Tuple[float, float]]]] = {}
        hosts = {l.driving_uid for l in links}
        begins = sorted((l.begin_time, i) for i, l in enumerate(links))
        ends = sorted(
            (l.end_time, i) for i, l in enumerate(links) if l.end_time is not None
        )
        next_begin = next_end = 0
        live = [False] * len(links)
        # driver -> (link index, target) of its live links, in trace order
        out_edges: Dict[int, List[Tuple[int, int]]] = {}
        # host -> target -> start of the window still open
        runs: Dict[int, Dict[int, float]] = {}
        for seg_start, seg_end in zip(boundaries, boundaries[1:]):
            midpoint = (seg_start + seg_end) / 2.0
            changed = False
            while next_begin < len(begins) and begins[next_begin][0] <= midpoint:
                index = begins[next_begin][1]
                next_begin += 1
                link = links[index]
                if link.end_time is None or link.end_time > midpoint:
                    live[index] = True
                    insort(
                        out_edges.setdefault(link.driving_uid, []),
                        (index, link.target),
                    )
                    changed = True
            while next_end < len(ends) and ends[next_end][0] <= midpoint:
                index = ends[next_end][1]
                next_end += 1
                if live[index]:
                    live[index] = False
                    link = links[index]
                    edges = out_edges[link.driving_uid]
                    edges.remove((index, link.target))
                    if not edges:
                        del out_edges[link.driving_uid]
                    changed = True
            if not changed:
                continue
            for host in hosts:
                host_runs = runs.get(host)
                if host not in out_edges and not host_runs:
                    continue
                reached: Set[int] = set()
                frontier = [host]
                while frontier:
                    for _, target in out_edges.get(frontier.pop(), ()):
                        if target == host or target in reached:
                            continue
                        reached.add(target)
                        if target != SCREEN_TARGET:
                            frontier.append(target)
                if host_runs:
                    for target in [t for t in host_runs if t not in reached]:
                        windows[host][target].append(
                            (host_runs.pop(target), seg_start)
                        )
                for target in reached:
                    if host_runs is None:
                        host_runs = runs[host] = {}
                    if target not in host_runs:
                        windows.setdefault(host, {}).setdefault(target, [])
                        host_runs[target] = seg_start
        for host, host_runs in runs.items():
            for target, run_start in host_runs.items():
                windows[host][target].append((run_start, boundaries[-1]))
        return windows

    def _breakdown(
        self, host_windows: Dict[int, List[Tuple[float, float]]]
    ) -> Dict[int, float]:
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
                for host in sorted({l.driving_uid for l in self.trace.links})
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
