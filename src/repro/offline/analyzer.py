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

from bisect import bisect_right, insort
from collections.abc import Mapping
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


INF = float("inf")

#: target -> one host's charge windows
Windows = Dict[int, List[Tuple[float, float]]]


class LinkIndex:
    """Algorithm 1 over a whole trace: every host's charge runs, swept once.

    The sweep visits each time a link begins or ends, in order; links
    that end where they begin (or before) are never live and are left
    out.  Each host's reach is a depth-first walk over a per-driver
    adjacency of the live links in trace order, so target sets iterate
    as a walk over the whole live list would.  A host's reach is walked
    again only when a driver whose live links changed is the host or in
    its reach; nothing else can change the walk.

    Kept per host: its runs ``[a, b, target]`` (``b`` is +inf for a run
    still open at the end) in the order they opened, and every reach set
    the sweep walked, with the time it was walked at.  A window clips
    the runs; the reach set that holds the window's start orders the
    targets reached in its first segment, as a sweep over the window
    alone would.
    """

    def __init__(self, trace: DeviceTrace) -> None:
        links = trace.links
        # the set itself: its iteration order breaks ties between hosts
        self.hosts = hosts = {l.driving_uid for l in links}
        self.sorted_hosts = sorted(hosts)
        self.runs: Dict[int, List[list]] = {host: [] for host in hosts}
        self.reach_times: Dict[int, List[float]] = {host: [] for host in hosts}
        self.reach_sets: Dict[int, List[Set[int]]] = {host: [] for host in hosts}
        # (time, link index, begins?, driver, target) for every link that
        # is ever live
        events = []
        for index, link in enumerate(links):
            end = link.end_time
            if end is None or end > link.begin_time:
                driver, target = link.driving_uid, link.target
                events.append((link.begin_time, index, True, driver, target))
                if end is not None:
                    events.append((end, index, False, driver, target))
        events.sort()
        runs, reach_times, reach_sets = self.runs, self.reach_times, self.reach_sets
        # driver -> (link index, target) of its live links, in trace order
        out_edges: Dict[int, List[Tuple[int, int]]] = {}
        reach: Dict[int, Set[int]] = {host: set() for host in hosts}
        # host -> target -> its run still open
        open_runs: Dict[int, Dict[int, list]] = {host: {} for host in hosts}
        count = len(events)
        next_event = 0
        while next_event < count:
            now = events[next_event][0]
            drivers: Set[int] = set()
            while next_event < count:
                event = events[next_event]
                if event[0] != now:
                    break
                next_event += 1
                _, index, begins, driver, target = event
                drivers.add(driver)
                if begins:
                    insort(out_edges.setdefault(driver, []), (index, target))
                else:
                    edges = out_edges[driver]
                    edges.remove((index, target))
                    if not edges:
                        del out_edges[driver]
            for host in hosts:
                before = reach[host]
                if host not in drivers and drivers.isdisjoint(before):
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
                reach[host] = reached
                reach_times[host].append(now)
                reach_sets[host].append(reached)
                if reached == before:
                    continue
                host_open = open_runs[host]
                for target in before - reached:
                    host_open.pop(target)[1] = now
                for target in reached:
                    if target not in host_open:
                        run = host_open[target] = [now, INF, target]
                        runs[host].append(run)

    def clip(self, host: int, start: float, end: float) -> Windows:
        """target -> ``host``'s charge windows over ``[start, end]``.

        Targets reached in the window's first segment come first, in
        their reach set's order; the rest follow as their runs opened.
        """
        windows: Windows = {}
        times = self.reach_times.get(host)
        if not times or not start < end:
            return windows
        first = bisect_right(times, start) - 1
        if first >= 0:
            for target in self.reach_sets[host][first]:
                windows[target] = []
        for a, b, target in self.runs[host]:
            if a >= end:
                break
            if b > start:
                spans = windows.get(target)
                if spans is None:
                    spans = windows[target] = []
                spans.append((a if a > start else start, b if b < end else end))
        return windows


class LinkWindows(Mapping):
    """host -> target -> charge windows over ``[start, end]``, a view
    that clips a :class:`LinkIndex` one host at a time.

    Iteration orders hosts by their first window's start, ties in the
    index's host set order: the order a sweep over the window alone
    would first charge them in.
    """

    def __init__(self, index: LinkIndex, start: float, end: float) -> None:
        self._index = index
        self.start = start
        self.end = end

    def get(self, host: int, default: Optional[Windows] = None) -> Optional[Windows]:
        return self._index.clip(host, self.start, self.end) or default

    def __getitem__(self, host: int) -> Windows:
        windows = self.get(host)
        if windows is None:
            raise KeyError(host)
        return windows

    def __iter__(self) -> Iterator[int]:
        charged = []
        for host in self._index.hosts:
            windows = self.get(host)
            if windows:
                charged.append((min(s[0][0] for s in windows.values()), host))
        charged.sort(key=lambda item: item[0])
        return (host for _, host in charged)

    def __len__(self) -> int:
        return sum(1 for _ in self)


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
            self._link_index = LinkIndex(self.trace)
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
