"""E-Android's enhanced energy accounting module.

The second of the paper's three components: it receives attack-link
begin/end notifications from the monitor, logs them in the link graph,
derives each app's collateral energy map from that log (Algorithm 1: a
:class:`~repro.core.links.LinkIndex`, swept up to the current time when
a map is read), and — on demand — converts charge windows into joules
against the hardware meter's ground truth.

"Note that only the part of energy consumption during the attack
lifecycle would be superimposed to the collateral energy of the driving
app" (§IV-B): energy is integrated strictly over the recorded windows,
clipped to the report interval.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from ..power.meter import EnergyMeter
from ..telemetry import (
    AttackWindowBeginEvent,
    AttackWindowEndEvent,
    Category,
    TelemetryBus,
)
from .links import AttackKind, AttackLink, LinkGraph, LinkIndex, Windows
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
        #: the active collateral charge policy
        self.policy = policy if policy is not None else FullCharge()
        self.graph = LinkGraph()
        # Algorithm 1 over the graph's link log, swept on each read
        self._index = LinkIndex(self.graph.links, until=0.0)

    def _index_now(self) -> LinkIndex:
        """The link index, swept up to the current time.

        Edges logged at the current time are left for a later read: they
        cannot change a window that ends now.
        """
        index = self._index
        index.commit(self._kernel.now)
        return index

    # ------------------------------------------------------------------
    # link lifecycle (driven by the monitor)
    # ------------------------------------------------------------------
    def begin_attack(
        self, kind: AttackKind, driving_uid: int, target: int, detail: str = ""
    ) -> AttackLink:
        """Open an attack link in the graph's log."""
        now = self._kernel.now
        link = self.graph.begin(kind, driving_uid, target, now, detail)
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
        """Close an attack link in the graph's log."""
        now = self._kernel.now
        self.graph.end(link, now)
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
        index = self._index_now()
        return [host for host in index.sorted_hosts if index.runs[host]]

    def map_for(self, host_uid: int) -> Windows:
        """One app's collateral energy map: target -> its charge windows
        over ``[0, now]``."""
        return self._index_now().clip(host_uid, 0.0, self._kernel.now)

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
        breakdown: Dict[int, float] = {}
        windows = self._index_now().clip(host_uid, start, window_end)
        for target, intervals in windows.items():
            total = self.policy.charged_energy(self._meter, target, intervals)
            if total > 0:
                breakdown[target] = total
        return breakdown

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
