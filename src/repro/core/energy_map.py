"""Collateral energy maps.

"E-Android maintains a collateral energy map for fine grained collateral
energy accounting" (§I): for each app, a map whose elements are the
apps/screen currently (or previously) charged to it, each with the exact
time windows during which the charge accrues.

The map layer is deliberately dumb about *why* windows open and close —
that is the link graph's job.  :meth:`CollateralMapSet.sync` diffs the
reachability of the hosts a link change can affect against their
currently-open elements and opens/closes windows accordingly, which
realises Algorithm 1's ``AddElement`` / attack-state updates including
chain propagation.  The accounting module does not run it per event:
:meth:`CollateralMapSet.fold` replays the logged link edges through it
when the maps are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from .links import SCREEN_TARGET, AttackLink, LinkGraph

#: One logged link change: (time, True for begin / False for end, link).
LinkEdge = Tuple[float, bool, AttackLink]


@dataclass
class ElementWindow:
    """Charge windows for one (host, target) map element."""

    target: int
    closed: List[Tuple[float, float]] = field(default_factory=list)
    open_since: Optional[float] = None
    #: Monotonic change counter (bumped on open/close); keys the
    #: accounting layer's per-element charge memoization.
    version: int = 0

    @property
    def is_open(self) -> bool:
        """Whether the element is currently accruing charge."""
        return self.open_since is not None

    def open(self, time: float) -> bool:
        """Start accruing (no-op while already open)."""
        if self.open_since is None:
            self.open_since = time
            self.version += 1
            return True
        return False

    def close(self, time: float) -> bool:
        """Stop accruing; the window is archived."""
        if self.open_since is not None:
            if time > self.open_since:
                self.closed.append((self.open_since, time))
            self.open_since = None
            self.version += 1
            return True
        return False

    def intervals(self, until: float) -> List[Tuple[float, float]]:
        """All windows, the open one truncated at ``until``."""
        result = list(self.closed)
        if self.open_since is not None and until > self.open_since:
            result.append((self.open_since, until))
        return result

    def total_duration(self, until: float) -> float:
        """Summed window length."""
        return sum(end - start for start, end in self.intervals(until))

    def clipped_intervals(
        self, start: float, end: float
    ) -> List[Tuple[float, float]]:
        """Windows intersected with [start, end)."""
        clipped = []
        for seg_start, seg_end in self.intervals(end):
            lo, hi = max(seg_start, start), min(seg_end, end)
            if hi > lo:
                clipped.append((lo, hi))
        return clipped


class CollateralEnergyMap:
    """One app's map: target -> charge windows."""

    def __init__(self, host_uid: int) -> None:
        self.host_uid = host_uid
        self._elements: Dict[int, ElementWindow] = {}
        # Targets whose window is open, kept in step by open()/close().
        self._open: Set[int] = set()

    def element(self, target: int) -> ElementWindow:
        """The window record for a target (created on demand)."""
        window = self._elements.get(target)
        if window is None:
            window = ElementWindow(target=target)
            self._elements[target] = window
        return window

    def open(self, target: int, time: float) -> None:
        """Open ``target``'s window (no-op while already open)."""
        window = self._elements.get(target)
        if window is None:
            window = self._elements[target] = ElementWindow(target=target)
        if window.open(time):
            self._open.add(target)

    def close(self, target: int, time: float) -> None:
        """Close ``target``'s window (no-op while already closed)."""
        window = self._elements.get(target)
        if window is not None and window.close(time):
            self._open.discard(target)

    def open_targets(self) -> Set[int]:
        """Targets currently accruing charge."""
        return set(self._open)

    def is_open(self, target: int) -> bool:
        """Whether ``target`` is currently accruing charge."""
        return target in self._open

    def items(self) -> Iterable[Tuple[int, ElementWindow]]:
        """(target, window) pairs."""
        return self._elements.items()

    def __contains__(self, target: int) -> bool:
        return target in self._elements

    def __len__(self) -> int:
        return len(self._elements)


class LiveIndex:
    """Live links by driving uid and by target, in opening order.

    Reachability walks only a node's out-edges (or, for
    :meth:`reaching`, its in-edges) instead of rescanning every live
    link, and visits them in the order a scan of the live links would.
    """

    def __init__(self) -> None:
        # uid -> {link_id: link}
        self._out: Dict[int, Dict[int, AttackLink]] = {}
        self._in: Dict[int, Dict[int, AttackLink]] = {}

    def add(self, link: AttackLink) -> None:
        """Index a link that just opened."""
        link_id = link.link_id
        out = self._out.get(link.driving_uid)
        if out is None:
            self._out[link.driving_uid] = {link_id: link}
        else:
            out[link_id] = link
        into = self._in.get(link.target)
        if into is None:
            self._in[link.target] = {link_id: link}
        else:
            into[link_id] = link

    def remove(self, link: AttackLink) -> None:
        """Drop a link that just ended."""
        link_id = link.link_id
        out = self._out[link.driving_uid]
        del out[link_id]
        if not out:
            del self._out[link.driving_uid]
        into = self._in[link.target]
        del into[link_id]
        if not into:
            del self._in[link.target]

    def has_live(self, driving_uid: int, target: int) -> bool:
        """Whether a live link from ``driving_uid`` points at ``target``."""
        for link in self._out.get(driving_uid, {}).values():
            if link.target == target:
                return True
        return False

    def reachable_from(self, host: int) -> Set[int]:
        """Targets transitively reachable from ``host`` over live links
        (the host itself excluded, so cycles don't self-charge)."""
        live_out = self._out
        reached: Set[int] = set()
        frontier = [host]
        while frontier:
            out = live_out.get(frontier.pop())
            if not out:
                continue
            for link in out.values():
                target = link.target
                if target == host or target in reached:
                    continue
                reached.add(target)
                if target != SCREEN_TARGET:
                    frontier.append(target)
        return reached

    def reaching(self, uid: int) -> List[int]:
        """Every other uid with a live path to ``uid``."""
        live_in = self._in
        found: List[int] = []
        seen = {uid}
        frontier = [uid]
        while frontier:
            into = live_in.get(frontier.pop())
            if not into:
                continue
            for link in into.values():
                source = link.driving_uid
                if source not in seen:
                    seen.add(source)
                    found.append(source)
                    frontier.append(source)
        return found


class CollateralMapSet:
    """All apps' collateral energy maps, derived from the link changes."""

    def __init__(self) -> None:
        self._maps: Dict[int, CollateralEnergyMap] = {}
        self._index = LiveIndex()

    def map_for(self, host_uid: int) -> CollateralEnergyMap:
        """The map of one host (created on demand)."""
        existing = self._maps.get(host_uid)
        if existing is None:
            existing = CollateralEnergyMap(host_uid)
            self._maps[host_uid] = existing
        return existing

    def hosts(self) -> Set[int]:
        """Every uid that has (or had) a non-empty map."""
        return {uid for uid, m in self._maps.items() if len(m)}

    def maps_containing(self, target: int) -> List[CollateralEnergyMap]:
        """Maps whose *open* elements include ``target`` (Algorithm 1's Mp)."""
        return [m for m in self._maps.values() if m.is_open(target)]

    def fold(self, edges: Iterable[LinkEdge]) -> None:
        """Replay logged link edges, in order, through :meth:`sync`.

        Each edge updates the live index and then re-diffs exactly as an
        eager per-event sync would — an end whose (driver, target) edge
        a parallel live link keeps changes nobody's reach and is
        skipped — so every window, and its version, comes out the same.
        """
        index = self._index
        for time, begin, link in edges:
            if begin:
                index.add(link)
            else:
                index.remove(link)
                if index.has_live(link.driving_uid, link.target):
                    continue
            self.sync(time, index, link.driving_uid)

    def sync(
        self, now: float, graph: Union[LinkGraph, LiveIndex], changed_uid: int
    ) -> None:
        """Re-diff reachability after a link driven by ``changed_uid`` changed.

        For each re-diffed host, targets newly reachable over live links
        open a window and open targets no longer reachable close theirs.
        Running this after every link begin/end implements Algorithm 1 —
        the parent-map additions (lines 8-10) and the service back-
        propagation (lines 11-15) are both just reachability.

        Only ``changed_uid`` and the hosts with a live path to it can
        gain or lose a target when an edge d -> t out of it opens or
        closes, since any path through that edge first reaches d.  And
        if d's own reachable set is unchanged, so is every other
        host's: t was (and stays) reachable from d some other way, so
        every path through d -> t has a detour that avoids it.  So d is
        re-diffed first, and the hosts reaching it only when d changed.
        """
        driver_map = self._maps.get(changed_uid)
        if driver_map is None:
            driver_map = self.map_for(changed_uid)
        if self._rediff(driver_map, graph.reachable_from(changed_uid), now):
            for host in graph.reaching(changed_uid):
                self._rediff(self.map_for(host), graph.reachable_from(host), now)

    def _rediff(
        self, host_map: CollateralEnergyMap, reachable: Set[int], now: float
    ) -> bool:
        """Open/close ``host_map``'s windows to match ``reachable``.

        Returns whether anything changed.
        """
        open_now = host_map._open
        if reachable == open_now:
            return False
        for target in reachable - open_now:
            host_map.open(target, now)
        for target in open_now - reachable:
            host_map.close(target, now)
        return True
