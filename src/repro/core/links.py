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

SCREEN_TARGET = -100
"""Pseudo-target for screen-directed attacks (same id as the meter's
SCREEN_OWNER, so energy lookups are uniform)."""


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

    Live links are indexed both by driving uid and by target, so
    reachability walks only a node's out-edges (or, for
    :meth:`reaching`, its in-edges) instead of rescanning every live
    link; the host set grows as links open instead of being rebuilt.
    """

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._links: List[AttackLink] = []
        self._live: Dict[int, AttackLink] = {}
        # uid -> {link_id: link}, in opening order (so walks visit links
        # in the same order as a scan of ``_live`` would).
        self._live_out: Dict[int, Dict[int, AttackLink]] = {}
        self._live_in: Dict[int, Dict[int, AttackLink]] = {}
        self._hosts: Set[int] = set()

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
        out = self._live_out.get(driving_uid)
        if out is None:
            self._live_out[driving_uid] = {link_id: link}
        else:
            out[link_id] = link
        into = self._live_in.get(target)
        if into is None:
            self._live_in[target] = {link_id: link}
        else:
            into[link_id] = link
        self._hosts.add(driving_uid)
        return link

    def end(self, link: AttackLink, time: float) -> None:
        """Close a link (idempotent for already-ended links)."""
        if link.alive:
            link.end_time = time
            link_id = link.link_id
            if self._live.pop(link_id, None) is not None:
                out = self._live_out[link.driving_uid]
                del out[link_id]
                if not out:
                    del self._live_out[link.driving_uid]
                into = self._live_in[link.target]
                del into[link_id]
                if not into:
                    del self._live_in[link.target]

    def live_links(self) -> List[AttackLink]:
        """All currently live links."""
        return list(self._live.values())

    def all_links(self) -> List[AttackLink]:
        """Every link ever opened."""
        return list(self._links)

    def live_from(self, driving_uid: int) -> List[AttackLink]:
        """Live links driven by one uid."""
        return list(self._live_out.get(driving_uid, {}).values())

    def has_live(self, driving_uid: int, target: int) -> bool:
        """Whether a live link from ``driving_uid`` points at ``target``."""
        for link in self._live_out.get(driving_uid, {}).values():
            if link.target == target:
                return True
        return False

    def live_targeting(self, target: int) -> List[AttackLink]:
        """Live links pointing at one target."""
        return list(self._live_in.get(target, {}).values())

    def hosts(self) -> Set[int]:
        """Every uid that has ever driven a link."""
        return set(self._hosts)

    def reachable_from(self, host: int) -> Set[int]:
        """Targets transitively reachable from ``host`` over live links.

        This is the membership rule of Algorithm 1: the host's map
        contains every driven app/screen its live attack chain reaches
        (excluding the host itself, so cycles don't self-charge).
        """
        live_out = self._live_out
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
        """Every other uid with a live path to ``uid``.

        Opening or closing a link driven by ``uid`` can change the
        reachable set only of these hosts and ``uid`` itself: any path
        through the changed edge first has to reach its driving uid.
        """
        live_in = self._live_in
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
