"""Attack links — live edges in the collateral energy graph.

Each mechanism of Fig. 5 opens an :class:`AttackLink` from a *driving*
app to a *target* (another app's uid, or the screen) when its begin
condition fires and closes it on its end condition.  The set of live
links forms a directed graph; an app's collateral energy map contains
every target *reachable* from it through live links, which is how the
multi-collateral (Fig. 6) and hybrid-chain (Fig. 7) cases fall out of
one rule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Set

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
    collateral maps own the one live index (see
    :meth:`~repro.core.energy_map.CollateralMapSet.fold`), so the
    queries below are plain scans of the live links — an independent
    reference for tests, the detector and the map cross-checks.
    """

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._links: List[AttackLink] = []
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
        self._links.append(link)
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
        return list(self._links)

    def live_from(self, driving_uid: int) -> List[AttackLink]:
        """Live links driven by one uid."""
        return [l for l in self._live.values() if l.driving_uid == driving_uid]

    def has_live(self, driving_uid: int, target: int) -> bool:
        """Whether a live link from ``driving_uid`` points at ``target``."""
        return any(
            l.driving_uid == driving_uid and l.target == target
            for l in self._live.values()
        )

    def live_targeting(self, target: int) -> List[AttackLink]:
        """Live links pointing at one target."""
        return [l for l in self._live.values() if l.target == target]

    def hosts(self) -> Set[int]:
        """Every uid that has ever driven a link."""
        return {l.driving_uid for l in self._links}

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

    def reaching(self, uid: int) -> List[int]:
        """Every other uid with a live path to ``uid``."""
        found: List[int] = []
        seen = {uid}
        frontier = [uid]
        while frontier:
            node = frontier.pop()
            for link in self._live.values():
                source = link.driving_uid
                if link.target == node and source not in seen:
                    seen.add(source)
                    found.append(source)
                    frontier.append(source)
        return found
