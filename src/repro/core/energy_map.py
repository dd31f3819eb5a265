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
chain propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .links import LinkGraph


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

    def open(self, target: int, time: float) -> bool:
        """Open ``target``'s window; returns whether it was closed."""
        window = self._elements.get(target)
        if window is None:
            window = self._elements[target] = ElementWindow(target=target)
        if window.open(time):
            self._open.add(target)
            return True
        return False

    def close(self, target: int, time: float) -> bool:
        """Close ``target``'s window; returns whether it was open."""
        window = self._elements.get(target)
        if window is not None and window.close(time):
            self._open.discard(target)
            return True
        return False

    def open_targets(self) -> Set[int]:
        """Targets currently accruing charge."""
        return set(self._open)

    def is_open(self, target: int) -> bool:
        """Whether ``target`` is currently accruing charge."""
        return target in self._open

    def all_targets(self) -> Set[int]:
        """Every target that ever appeared in the map."""
        return set(self._elements)

    def items(self) -> Iterable[Tuple[int, ElementWindow]]:
        """(target, window) pairs."""
        return self._elements.items()

    def __contains__(self, target: int) -> bool:
        return target in self._elements

    def __len__(self) -> int:
        return len(self._elements)


class CollateralMapSet:
    """All apps' collateral energy maps, kept in lockstep with the links."""

    def __init__(self) -> None:
        self._maps: Dict[int, CollateralEnergyMap] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic counter of window open/close events across all maps.

        Keys the E-Android interface's report cache: an unchanged
        version (plus an unchanged meter epoch) means every collateral
        charge is bit-identical to the previous snapshot of the window.
        """
        return self._version

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

    def sync(self, now: float, graph: LinkGraph, changed_uid: int) -> None:
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
            if host_map.open(target, now):
                self._version += 1
        for target in open_now - reachable:
            if host_map.close(target, now):
                self._version += 1
        return True
