"""Attack-graph analysis.

The paper warns that "the intricate IPC communications in Android easily
lead to collateral attack chains" (§IV-B); once E-Android has recorded a
run's attack links, natural questions follow: how deep did chains get,
who were the most-targeted victims, which malware is the root of the
largest blast radius?  This module answers them over the link log with
plain adjacency dicts: one node per uid (or the screen) in the order the
log first names it, and one edge per distinct (driver, target) pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from .accounting import EAndroidAccounting
from .links import SCREEN_TARGET

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..android.framework import AndroidSystem


@dataclass
class ChainReport:
    """Structural summary of a run's attack graph."""

    node_count: int
    edge_count: int
    longest_chain: List[int] = field(default_factory=list)
    roots: List[int] = field(default_factory=list)
    top_targets: List[Tuple[int, int]] = field(default_factory=list)  # (node, in-degree)
    blast_radius: Dict[int, int] = field(default_factory=dict)  # root -> |reachable|

    @property
    def max_chain_depth(self) -> int:
        """Edges along the longest chain."""
        return max(0, len(self.longest_chain) - 1)


class AttackGraphAnalyzer:
    """Builds and queries the attack graph of a run."""

    def __init__(self, accounting: EAndroidAccounting) -> None:
        self._accounting = accounting

    def analyze(self, live_only: bool = False) -> ChainReport:
        """Full structural report over the (live or historical) graph."""
        links = [
            link
            for link in self._accounting.attack_log()
            if link.alive or not live_only
        ]
        # node -> successors, both in first-seen order; parallel links
        # collapse into one edge
        succ: Dict[int, Dict[int, None]] = {}
        for link in links:
            succ.setdefault(link.driving_uid, {})
            succ.setdefault(link.target, {})
            succ[link.driving_uid][link.target] = None
        if not succ:
            return ChainReport(node_count=0, edge_count=0)
        # predecessors ordered by the driver's node order
        pred: Dict[int, List[int]] = {node: [] for node in succ}
        for node, targets in succ.items():
            for target in targets:
                pred[target].append(node)
        roots = sorted(node for node in succ if not pred[node] and succ[node])
        targets = sorted(
            ((node, len(pred[node])) for node in succ), key=lambda pair: -pair[1]
        )
        return ChainReport(
            node_count=len(succ),
            edge_count=len(links),
            longest_chain=_longest_path(succ, pred),
            roots=roots,
            top_targets=[(n, d) for n, d in targets if d > 0][:5],
            blast_radius={root: len(_paths_from(succ, root)) - 1 for root in roots},
        )

    def render_text(
        self, system: Optional["AndroidSystem"] = None, live_only: bool = False
    ) -> str:
        """Human-readable chain report."""
        report = self.analyze(live_only=live_only)

        def name(node: int) -> str:
            if node == SCREEN_TARGET:
                return "Screen"
            if system is not None:
                return system.package_manager.label_for_uid(node)
            return f"uid:{node}"

        lines = [
            "=== attack-graph analysis ===",
            f"nodes={report.node_count} edges={report.edge_count} "
            f"max chain depth={report.max_chain_depth}",
        ]
        if report.longest_chain:
            lines.append(
                "longest chain: " + " -> ".join(name(n) for n in report.longest_chain)
            )
        if report.roots:
            lines.append("roots: " + ", ".join(name(r) for r in report.roots))
        for node, degree in report.top_targets:
            lines.append(f"target {name(node)}: attacked via {degree} distinct source(s)")
        for root, radius in sorted(report.blast_radius.items(), key=lambda kv: -kv[1]):
            lines.append(f"blast radius of {name(root)}: {radius} node(s)")
        return "\n".join(lines)


def _paths_from(succ: Dict[int, Dict[int, None]], source: int) -> Dict[int, List[int]]:
    """node -> a shortest path to it from ``source``, breadth first, in
    discovery order (``source`` itself first)."""
    paths = {source: [source]}
    level = [source]
    while level:
        next_level = []
        for node in level:
            for target in succ[node]:
                if target not in paths:
                    paths[target] = paths[node] + [target]
                    next_level.append(target)
        level = next_level
    return paths


def _topological_order(
    succ: Dict[int, Dict[int, None]], pred: Dict[int, List[int]]
) -> Optional[List[int]]:
    """Kahn's order, generation by generation; None if there is a cycle."""
    in_degree = {node: len(sources) for node, sources in pred.items() if sources}
    order: List[int] = []
    generation = [node for node in succ if not pred[node]]
    while generation:
        order.extend(generation)
        next_generation = []
        for node in generation:
            for target in succ[node]:
                in_degree[target] -= 1
                if not in_degree[target]:
                    next_generation.append(target)
                    del in_degree[target]
        generation = next_generation
    return None if in_degree else order


def _longest_path(
    succ: Dict[int, Dict[int, None]], pred: Dict[int, List[int]]
) -> List[int]:
    """Longest simple chain; exact on DAGs, greedy if cyclic.

    On a DAG each node keeps its first longest predecessor in
    topological order, and the chain ends at the first node with the
    greatest depth.
    """
    order = _topological_order(succ, pred)
    if order is None:
        # Cycles (A attacks B, B attacks A) are possible; fall back to
        # the longest shortest-path chain, which is enough for reporting.
        best: List[int] = []
        for source in succ:
            candidate = max(_paths_from(succ, source).values(), key=len)
            if len(candidate) > len(best):
                best = candidate
        return best
    # node -> (depth, previous node on its longest chain)
    depth: Dict[int, Tuple[int, int]] = {}
    for node in order:
        steps = [(depth[source][0] + 1, source) for source in pred[node]]
        depth[node] = max(steps, key=lambda step: step[0]) if steps else (0, node)
    node = max(depth, key=lambda n: depth[n][0])
    path = [node]
    while depth[node][1] != node:
        node = depth[node][1]
        path.append(node)
    path.reverse()
    return path
