"""E-Android's enhanced energy accounting module.

The second of the paper's three components: it receives attack-link
begin/end notifications from the monitor, logs them, derives the
collateral energy maps from that log (Algorithm 1, folded in when the
maps are read), and — on demand — converts charge windows into joules
against the hardware meter's ground truth.

"Note that only the part of energy consumption during the attack
lifecycle would be superimposed to the collateral energy of the driving
app" (§IV-B): energy is integrated strictly over the recorded windows,
clipped to the report interval.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from ..power.meter import SCREEN_OWNER, EnergyMeter
from ..telemetry import (
    AttackWindowBeginEvent,
    AttackWindowEndEvent,
    Category,
    TelemetryBus,
)
from .energy_map import CollateralEnergyMap, CollateralMapSet, LinkEdge
from .links import SCREEN_TARGET, AttackKind, AttackLink, LinkGraph
from .policy import ChargePolicy, FullCharge

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.kernel import Kernel


class EAndroidAccounting:
    """Collateral energy bookkeeping over the link graph."""

    def __init__(
        self,
        kernel: "Kernel",
        meter: EnergyMeter,
        policy: Optional[ChargePolicy] = None,
        telemetry: Optional[TelemetryBus] = None,
    ) -> None:
        self._kernel = kernel
        self._meter = meter
        self._telemetry = telemetry
        self._policy = policy if policy is not None else FullCharge()
        self._policy_token = 0
        self.graph = LinkGraph()
        self._maps = CollateralMapSet()
        # Link begin/end edges not yet folded into the maps.
        self._edges: List[LinkEdge] = []
        # (host, start, end) -> per-target charge memo.  Each target's
        # joules are keyed on (element version, target trace epoch,
        # policy identity), so reconciliation passes reuse every charge
        # whose windows and underlying trace did not change instead of
        # rescanning unrelated apps.
        self._breakdown_cache: "OrderedDict[Tuple[int, float, float], Dict[int, Tuple]]" = (
            OrderedDict()
        )

    @property
    def maps(self) -> CollateralMapSet:
        """The collateral energy maps, current as of this read.

        Algorithm 1 runs here, not on each link change: the edges logged
        since the last read are folded in, in order, so the maps come
        out exactly as an eager per-event sync would leave them.
        """
        edges = self._edges
        if edges:
            self._maps.fold(edges)
            edges.clear()
        return self._maps

    @property
    def policy(self) -> ChargePolicy:
        """The active collateral charge policy."""
        return self._policy

    @policy.setter
    def policy(self, policy: ChargePolicy) -> None:
        self._policy = policy
        self._policy_token += 1  # invalidate every memoized charge

    # ------------------------------------------------------------------
    # link lifecycle (driven by the monitor)
    # ------------------------------------------------------------------
    def begin_attack(
        self, kind: AttackKind, driving_uid: int, target: int, detail: str = ""
    ) -> AttackLink:
        """Open an attack link and log the edge for the maps."""
        now = self._kernel.now
        link = self.graph.begin(kind, driving_uid, target, now, detail)
        self._edges.append((now, True, link))
        telemetry = self._telemetry
        if telemetry is not None:
            if telemetry.wants(Category.ATTACK):
                telemetry.publish(
                    AttackWindowBeginEvent(
                        time=now,
                        kind=kind.value,
                        attacker_uid=driving_uid,
                        target=target,
                        link_id=link.link_id,
                        detail=detail,
                    )
                )
            else:
                telemetry.tick(Category.ATTACK, now)
        return link

    def end_attack(self, link: AttackLink) -> None:
        """Close an attack link and log the edge for the maps."""
        now = self._kernel.now
        if self.graph.end(link, now):
            self._edges.append((now, False, link))
        telemetry = self._telemetry
        if telemetry is not None:
            if telemetry.wants(Category.ATTACK):
                telemetry.publish(
                    AttackWindowEndEvent(
                        time=now,
                        kind=link.kind.value,
                        attacker_uid=link.driving_uid,
                        target=link.target,
                        link_id=link.link_id,
                        duration_s=link.duration(now),
                    )
                )
            else:
                telemetry.tick(Category.ATTACK, now)

    # ------------------------------------------------------------------
    # energy queries
    # ------------------------------------------------------------------
    def hosts(self) -> List[int]:
        """Apps with any collateral charge, past or present."""
        return sorted(self.maps.hosts())

    def map_for(self, host_uid: int) -> CollateralEnergyMap:
        """One app's collateral energy map."""
        return self.maps.map_for(host_uid)

    def collateral_breakdown(
        self, host_uid: int, start: float = 0.0, end: Optional[float] = None
    ) -> Dict[int, float]:
        """target -> joules charged to ``host_uid`` over [start, end).

        Each target's charge is its ground-truth energy integrated over
        the (clipped) windows its map element was open.  Windows within
        one element never overlap, so no double counting occurs per
        (host, target) pair even under multi-collateral attack (Fig. 6).
        """
        window_end = self._kernel.now if end is None else end
        cache_key = (host_uid, start, window_end)
        memo = self._breakdown_cache.get(cache_key)
        if memo is None:
            memo = {}
            self._breakdown_cache[cache_key] = memo
            if len(self._breakdown_cache) > 16:
                self._breakdown_cache.popitem(last=False)
        else:
            self._breakdown_cache.move_to_end(cache_key)
        breakdown: Dict[int, float] = {}
        for target, element in self.maps.map_for(host_uid).items():
            trace_owner = SCREEN_OWNER if target == SCREEN_TARGET else target
            charge_version = (
                element.version,
                self._meter.owner_epoch(trace_owner),
                self._policy_token,
            )
            cached = memo.get(target)
            if cached is not None and cached[0] == charge_version:
                total = cached[1]
            else:
                intervals = element.clipped_intervals(start, window_end)
                total = (
                    self.policy.charged_energy(self._meter, target, intervals)
                    if intervals
                    else 0.0
                )
                memo[target] = (charge_version, total)
            if total > 0:
                breakdown[target] = total
        return breakdown

    def collateral_total(
        self, host_uid: int, start: float = 0.0, end: Optional[float] = None
    ) -> float:
        """Total collateral joules charged to an app."""
        return sum(self.collateral_breakdown(host_uid, start, end).values())

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def live_attacks(self) -> List[AttackLink]:
        """Currently live attack links."""
        return self.graph.live_links()

    def attack_log(self) -> List[AttackLink]:
        """Every attack link ever recorded."""
        return self.graph.all_links()

    def attacks_by_kind(self, kind: AttackKind) -> List[AttackLink]:
        """Every link of one mechanism."""
        return [l for l in self.graph.all_links() if l.kind == kind]
