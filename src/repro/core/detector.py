"""Collateral-energy suspect ranking.

The paper is explicit that collateral energy is not proof of malice —
"it is entirely possible that an app consuming much collateral energy is
still welcomed by mobile users.  From the perspective of energy
profiling, the key is to accurately and comprehensively profile the
energy consumption so that users can understand where energy goes and
make their own decisions" (§IV).  This module is that decision aid: it
ranks apps by collateral burden and annotates each with the evidence a
user (or an automated policy) would act on — how much, through which
mechanisms, and whether any of it was user-initiated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING

from ..accounting.attribution import target_label
from .accounting import EAndroidAccounting

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..android.framework import AndroidSystem


@dataclass
class Suspicion:
    """One app's collateral dossier over a report window."""

    uid: int
    label: str
    collateral_j: float
    own_j: float
    device_total_j: float
    mechanisms: List[str] = field(default_factory=list)
    targets: Dict[str, float] = field(default_factory=dict)
    live_attacks: int = 0

    @property
    def collateral_share(self) -> float:
        """Collateral as a fraction of whole-device energy."""
        if self.device_total_j <= 0:
            return 0.0
        return self.collateral_j / self.device_total_j

    @property
    def stealth_ratio(self) -> float:
        """Hidden energy per visible joule (∞-ish when own ≈ 0).

        A high ratio is the signature of a collateral energy attack:
        the app drains much while *showing* little — exactly how the
        paper's malware sidesteps the battery interface.
        """
        return self.collateral_j / max(self.own_j, 1e-9)

    def render_text(self) -> str:
        """One dossier as text."""
        lines = [
            f"{self.label} (uid {self.uid}): {self.collateral_j:.2f} J collateral "
            f"({100 * self.collateral_share:.1f}% of device), "
            f"{self.own_j:.2f} J own, {self.live_attacks} live attack(s)",
            f"  mechanisms: {', '.join(self.mechanisms) or '-'}",
        ]
        for target, joules in sorted(self.targets.items(), key=lambda kv: -kv[1]):
            lines.append(f"  <- {target}: {joules:.2f} J")
        return "\n".join(lines)


class CollateralEnergyDetector:
    """Ranks apps by collateral burden and flags heavy offenders."""

    def __init__(
        self,
        system: "AndroidSystem",
        accounting: EAndroidAccounting,
        min_collateral_j: float = 1.0,
        min_share: float = 0.05,
    ) -> None:
        self._system = system
        self._accounting = accounting
        self.min_collateral_j = min_collateral_j
        self.min_share = min_share

    def rank_suspects(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> List[Suspicion]:
        """Every app with collateral charge, heaviest first."""
        meter = self._system.hardware.meter
        pm = self._system.package_manager
        window_end = self._system.kernel.now if end is None else end
        device_total = meter.total_energy_j(start=start, end=window_end)
        suspicions: List[Suspicion] = []
        for host in self._accounting.hosts():
            breakdown = self._accounting.collateral_breakdown(host, start, window_end)
            if not breakdown:
                continue
            kinds = sorted(
                {
                    link.kind.value
                    for link in self._accounting.attack_log()
                    if link.driving_uid == host
                }
            )
            targets = {
                target_label(target, pm.label_for_uid): joules
                for target, joules in breakdown.items()
            }
            suspicions.append(
                Suspicion(
                    uid=host,
                    label=pm.label_for_uid(host),
                    collateral_j=sum(breakdown.values()),
                    own_j=meter.energy_j(owner=host, start=start, end=window_end),
                    device_total_j=device_total,
                    mechanisms=kinds,
                    targets=targets,
                    live_attacks=len(self._accounting.graph.live_from(host)),
                )
            )
        suspicions.sort(key=lambda s: s.collateral_j, reverse=True)
        return suspicions

    def flag(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> List[Suspicion]:
        """Suspects exceeding both the absolute and share thresholds."""
        return [
            suspicion
            for suspicion in self.rank_suspects(start, end)
            if suspicion.collateral_j >= self.min_collateral_j
            and suspicion.collateral_share >= self.min_share
        ]

    def render_text(self, start: float = 0.0, end: Optional[float] = None) -> str:
        """The ranking as text."""
        suspects = self.rank_suspects(start, end)
        if not suspects:
            return "no collateral energy recorded"
        return "\n".join(s.render_text() for s in suspects)
