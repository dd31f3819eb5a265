"""Figs. 6 & 7 — multi-collateral and hybrid-chain accounting timelines.

Fig. 6: malware binds, starts, and interrupts the *same* victim; the
victim joins the malware's energy map once and leaves only "after all
collateral attacks end".

Fig. 7: A binds B's service, B starts C's activity, C raises the screen
brightness; B, C, and the screen all appear in A's map; a user
brightness change ends only the screen element, user starts of B and C
end the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List

from ..accounting.attribution import target_label
from ..core.links import AttackLink
from ..workloads.scenarios import ScenarioRun, run_hybrid_attack, run_multi_attack
from .registry import ExperimentResultMixin, ExperimentSpec, register
from .tables import render_table


@dataclass
class Fig6Result(ExperimentResultMixin):
    """Multi-collateral attack outcome."""

    run: ScenarioRun
    links: List[AttackLink]
    victim_charged_j: float
    victim_ground_truth_j: float
    params: Dict[str, Any] = field(default_factory=dict)

    experiment_name: ClassVar[str] = "fig6"

    @property
    def union_not_sum(self) -> bool:
        """The invariant Fig. 6 is about: no double charging."""
        return self.victim_charged_j <= self.victim_ground_truth_j + 1e-9

    @property
    def claim_holds(self) -> bool:
        """Registry claim check: union, not sum."""
        return self.union_not_sum

    def metrics(self) -> Dict[str, Any]:
        """Charged vs ground-truth joules and the link count."""
        return {
            "victim_charged_j": self.victim_charged_j,
            "victim_ground_truth_j": self.victim_ground_truth_j,
            "links": len(self.links),
        }

    def render_text(self) -> str:
        """Fig. 6 as a link table plus the charge comparison."""
        rows = [
            (
                link.kind.value,
                f"{link.begin_time:.1f}s",
                "alive" if link.alive else f"{link.end_time:.1f}s",
            )
            for link in self.links
        ]
        table = render_table(
            ["attack", "begin", "end"],
            rows,
            title="Fig. 6 — multi-collateral attack on one victim",
        )
        return table + (
            f"\nvictim energy charged to malware: {self.victim_charged_j:.2f} J"
            f" (ground truth {self.victim_ground_truth_j:.2f} J; union, not sum)"
        )


def run_fig6() -> Fig6Result:
    """Run the Fig. 6 scenario."""
    run = run_multi_attack()
    malware = int(run.notes["malware_uid"])
    victim = int(run.notes["victim_uid"])
    accounting = run.eandroid.accounting
    links = [l for l in accounting.attack_log() if l.target == victim]
    return Fig6Result(
        run=run,
        links=links,
        victim_charged_j=accounting.collateral_breakdown(malware).get(victim, 0.0),
        victim_ground_truth_j=run.system.hardware.meter.energy_j(owner=victim),
    )


@dataclass
class Fig7Result(ExperimentResultMixin):
    """Hybrid-chain attack outcome."""

    run: ScenarioRun
    root_breakdown: Dict[str, float]  # label -> joules charged to A
    params: Dict[str, Any] = field(default_factory=dict)

    experiment_name: ClassVar[str] = "fig7"

    @property
    def chain_complete(self) -> bool:
        """A is charged for B, C, and the screen."""
        return {"Relayb", "Relayc", "Screen"} <= set(self.root_breakdown)

    @property
    def claim_holds(self) -> bool:
        """Registry claim check: the full chain lands in A's map."""
        return self.chain_complete

    def metrics(self) -> Dict[str, Any]:
        """The root's per-element charges."""
        return {"root_breakdown_j": dict(self.root_breakdown)}

    def render_text(self) -> str:
        """Fig. 7 as the root's map contents."""
        rows = [
            (label, f"{joules:.2f} J")
            for label, joules in sorted(
                self.root_breakdown.items(), key=lambda kv: -kv[1]
            )
        ]
        return render_table(
            ["element in A's energy map", "charged"],
            rows,
            title="Fig. 7 — hybrid attack chain A->B->C->screen",
        )


def run_fig7() -> Fig7Result:
    """Run the Fig. 7 scenario."""
    run = run_hybrid_attack()
    malware = int(run.notes["malware_uid"])
    pm = run.system.package_manager
    breakdown = {
        target_label(target, pm.label_for_uid): joules
        for target, joules in run.eandroid.accounting.collateral_breakdown(
            malware
        ).items()
    }
    return Fig7Result(run=run, root_breakdown=breakdown)


register(
    ExperimentSpec(
        name="fig6",
        runner=run_fig6,
        description="multi-collateral accounting timeline (one victim)",
        order=4,
    )
)
register(
    ExperimentSpec(
        name="fig7",
        runner=run_fig7,
        description="hybrid attack chain A->B->C->screen accounting",
        order=5,
    )
)
