"""Attack links — live edges in the collateral energy graph.

Each mechanism of Fig. 5 opens an :class:`AttackLink` from a *driving*
app to a *target* (another app's uid, or the screen) when its begin
condition fires and closes it on its end condition.  The set of live
links forms a directed graph; an app's collateral energy map contains
every target *reachable* from it through live links, which is how the
multi-collateral (Fig. 6) and hybrid-chain (Fig. 7) cases fall out of
one rule.  :class:`LinkIndex` applies that rule over time (Algorithm 1):
it turns a link log into each host's charge windows, for the live
accounting and the offline analyzer alike.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right, insort
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..telemetry.events import SCREEN_TARGET


class AttackKind(Enum):
    """The five attack-lifecycle machines of Fig. 5."""

    ACTIVITY = "activity"              # Fig. 5a — started by another app
    INTERRUPT = "interrupt"            # Fig. 5b — forced to background
    SERVICE_START = "service_start"    # Fig. 5c — startService
    SERVICE_BIND = "service_bind"      # Fig. 5c — bindService
    SCREEN = "screen"                  # Fig. 5d — brightness manipulation
    WAKELOCK = "wakelock"              # Fig. 5e — screen wakelock misuse


@dataclass
class AttackLink:
    """One live (or ended) collateral attack edge."""

    link_id: int
    kind: AttackKind
    driving_uid: int
    target: int  # uid, or SCREEN_TARGET
    begin_time: float
    end_time: Optional[float] = None
    detail: str = ""

    @property
    def alive(self) -> bool:
        """Whether the end condition has not fired yet."""
        return self.end_time is None

    def duration(self, now: float) -> float:
        """Length of the attack window so far."""
        end = now if self.end_time is None else self.end_time
        return max(0.0, end - self.begin_time)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        target = "SCREEN" if self.target == SCREEN_TARGET else f"uid:{self.target}"
        state = "alive" if self.alive else f"ended@{self.end_time:.1f}"
        return (
            f"AttackLink(#{self.link_id} {self.kind.value} "
            f"uid:{self.driving_uid} -> {target}, {state})"
        )


class LinkGraph:
    """The set of all attack links, live and ended.

    The graph only records links; it keeps no adjacency index.  The
    charge windows come from a :class:`LinkIndex` over :attr:`links`,
    so the queries below are plain scans of the live links — an
    independent reference for tests, the detector and the map
    cross-checks.
    """

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        #: every link ever opened, in opening order (append-only)
        self.links: List[AttackLink] = []
        self._live: Dict[int, AttackLink] = {}

    def begin(
        self,
        kind: AttackKind,
        driving_uid: int,
        target: int,
        time: float,
        detail: str = "",
    ) -> AttackLink:
        """Open a new attack link."""
        link_id = next(self._ids)
        link = AttackLink(link_id, kind, driving_uid, target, time, None, detail)
        self.links.append(link)
        self._live[link_id] = link
        return link

    def end(self, link: AttackLink, time: float) -> bool:
        """Close a link; returns whether it was live (idempotent)."""
        if link.alive:
            link.end_time = time
            self._live.pop(link.link_id, None)
            return True
        return False

    def live_links(self) -> List[AttackLink]:
        """All currently live links."""
        return list(self._live.values())

    def all_links(self) -> List[AttackLink]:
        """Every link ever opened."""
        return list(self.links)

    def live_from(self, driving_uid: int) -> List[AttackLink]:
        """Live links driven by one uid."""
        return [l for l in self._live.values() if l.driving_uid == driving_uid]

    def hosts(self) -> Set[int]:
        """Every uid that has ever driven a link."""
        return {l.driving_uid for l in self.links}

    def reachable_from(self, host: int) -> Set[int]:
        """Targets transitively reachable from ``host`` over live links.

        This is the membership rule of Algorithm 1: the host's map
        contains every driven app/screen its live attack chain reaches
        (excluding the host itself, so cycles don't self-charge).
        """
        reached: Set[int] = set()
        frontier = [host]
        while frontier:
            node = frontier.pop()
            for link in self._live.values():
                target = link.target
                if link.driving_uid != node or target == host or target in reached:
                    continue
                reached.add(target)
                if target != SCREEN_TARGET:
                    frontier.append(target)
        return reached


INF = float("inf")

#: target -> one host's charge windows
Windows = Dict[int, List[Tuple[float, float]]]


class LinkIndex:
    """Algorithm 1 over a link log: every host's charge runs.

    ``links`` is any sequence of objects with ``driving_uid``,
    ``target``, ``begin_time`` and ``end_time`` (None while live):
    :class:`AttackLink` and :class:`~repro.offline.trace.LinkRecord`
    both qualify.  :meth:`commit` sweeps each time a link begins or ends,
    in order; links that end where they begin (or before) are never live
    and are left out.  Each host's reach is a depth-first walk over a
    per-driver adjacency of the live links in log order, so target sets
    iterate as a walk over the whole live list would.  A host's reach is
    walked again only when a driver whose live links changed is the host
    or in its reach; nothing else can change the walk.

    Kept per host: its runs ``[a, b, target]`` (``b`` is +inf while the
    run is open) in the order they opened, and every reach set the sweep
    walked, with the time it was walked at.  A window clips the runs;
    the reach set that holds the window's start orders the targets
    reached in its first segment, as a sweep over the window alone would.

    The index is appendable.  A log may grow, in time order, and its
    live links may end after a commit.  ``commit(until)`` sweeps only the
    begins and ends strictly before ``until``: every later edge is at or
    after ``until``, so it cannot change a window that ends there.  A
    clip with ``end <= until`` is exact, and the next commit resumes
    where this one stopped.
    """

    def __init__(self, links: Sequence[Any], until: float = INF) -> None:
        self._links = links
        # every edge before _until is swept; links[:_next] have had their
        # begin swept, and _live holds those (by log position) whose end
        # is still to be swept
        self._until = -INF
        self._next = 0
        self._live: Dict[int, Any] = {}
        # the set itself: its iteration order breaks ties between hosts
        self.hosts: Set[int] = set()
        self.sorted_hosts: List[int] = []
        self.runs: Dict[int, List[list]] = {}
        self.reach_times: Dict[int, List[float]] = {}
        self.reach_sets: Dict[int, List[Set[int]]] = {}
        # driver -> (log position, target) of its live links, in log order
        self._out_edges: Dict[int, List[Tuple[int, int]]] = {}
        self._reach: Dict[int, Set[int]] = {}
        # host -> target -> its run still open
        self._open_runs: Dict[int, Dict[int, list]] = {}
        self.commit(until)

    def commit(self, until: float) -> None:
        """Sweep every link begin and end strictly before ``until``."""
        if until <= self._until:
            return  # every edge logged since then is at or after it
        self._until = until
        links, live, hosts = self._links, self._live, self.hosts
        # (time, log position, begins?, driver, target)
        events = []
        for position, link in list(live.items()):
            end = link.end_time
            if end is not None and end < until:
                events.append((end, position, False, link.driving_uid, link.target))
                del live[position]
        position, count = self._next, len(links)
        known_hosts = len(hosts)
        while position < count:
            link = links[position]
            begin = link.begin_time
            if begin >= until:
                break
            driver = link.driving_uid
            if driver not in hosts:
                hosts.add(driver)
                self.runs[driver] = []
                self.reach_times[driver] = []
                self.reach_sets[driver] = []
                self._reach[driver] = set()
                self._open_runs[driver] = {}
            end = link.end_time
            if end is None or end > begin:
                target = link.target
                events.append((begin, position, True, driver, target))
                if end is not None and end < until:
                    events.append((end, position, False, driver, target))
                else:
                    live[position] = link
            position += 1
        self._next = position
        if len(hosts) > known_hosts:
            self.sorted_hosts = sorted(hosts)
        if events:
            events.sort()
            self._sweep(events)

    def _sweep(self, events: List[Tuple[float, int, bool, int, int]]) -> None:
        """Apply time-ordered edges, one time group at a time."""
        hosts, out_edges, reach = self.hosts, self._out_edges, self._reach
        runs, reach_times, reach_sets = self.runs, self.reach_times, self.reach_sets
        open_runs = self._open_runs
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
                _, position, begins, driver, target = event
                drivers.add(driver)
                if begins:
                    insort(out_edges.setdefault(driver, []), (position, target))
                else:
                    edges = out_edges[driver]
                    edges.remove((position, target))
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
