"""Tests for the attack-graph analyzer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core import (
    AttackGraphAnalyzer,
    AttackKind,
    EAndroidAccounting,
    SCREEN_TARGET,
)
from repro.power import EnergyMeter
from repro.sim import Kernel


#: `repro chains NAME` (default 60 s run) for every runnable attack, byte
#: for byte as networkx's graph walks print it (ties included).
PINNED_CHAINS = {
    "attack1": (
        '=== attack-graph analysis ===\n'
        'nodes=2 edges=1 max chain depth=1\n'
        'longest chain: Flashlight -> Camera\n'
        'roots: Flashlight\n'
        'target Camera: attacked via 1 distinct source(s)\n'
        'blast radius of Flashlight: 1 node(s)\n'
    ),
    "attack2": (
        '=== attack-graph analysis ===\n'
        'nodes=3 edges=3 max chain depth=2\n'
        'longest chain: Wallpaper -> Victim -> Screen\n'
        'roots: Wallpaper\n'
        'target Victim: attacked via 1 distinct source(s)\n'
        'target Screen: attacked via 1 distinct source(s)\n'
        'blast radius of Wallpaper: 2 node(s)\n'
    ),
    "attack3": (
        '=== attack-graph analysis ===\n'
        'nodes=2 edges=1 max chain depth=1\n'
        'longest chain: Cleaner -> Victim\n'
        'roots: Cleaner\n'
        'target Victim: attacked via 1 distinct source(s)\n'
        'blast radius of Cleaner: 1 node(s)\n'
    ),
    "attack4": (
        '=== attack-graph analysis ===\n'
        'nodes=3 edges=2 max chain depth=2\n'
        'longest chain: Compass -> Victim -> Screen\n'
        'roots: Compass\n'
        'target Victim: attacked via 1 distinct source(s)\n'
        'target Screen: attacked via 1 distinct source(s)\n'
        'blast radius of Compass: 2 node(s)\n'
    ),
    "attack5": (
        '=== attack-graph analysis ===\n'
        'nodes=2 edges=1 max chain depth=1\n'
        'longest chain: Torch -> Screen\n'
        'roots: Torch\n'
        'target Screen: attacked via 1 distinct source(s)\n'
        'blast radius of Torch: 1 node(s)\n'
    ),
    "attack6": (
        '=== attack-graph analysis ===\n'
        'nodes=2 edges=1 max chain depth=1\n'
        'longest chain: Qrscanner -> Screen\n'
        'roots: Qrscanner\n'
        'target Screen: attacked via 1 distinct source(s)\n'
        'blast radius of Qrscanner: 1 node(s)\n'
    ),
    "multi": (
        '=== attack-graph analysis ===\n'
        'nodes=3 edges=5 max chain depth=2\n'
        'longest chain: Stepcounter -> Victim -> Screen\n'
        'roots: Stepcounter\n'
        'target Victim: attacked via 1 distinct source(s)\n'
        'target Screen: attacked via 1 distinct source(s)\n'
        'blast radius of Stepcounter: 2 node(s)\n'
    ),
    "hybrid": (
        '=== attack-graph analysis ===\n'
        'nodes=4 edges=3 max chain depth=3\n'
        'longest chain: Weatherpro -> Relayb -> Relayc -> Screen\n'
        'roots: Weatherpro\n'
        'target Relayc: attacked via 1 distinct source(s)\n'
        'target Screen: attacked via 1 distinct source(s)\n'
        'target Relayb: attacked via 1 distinct source(s)\n'
        'blast radius of Weatherpro: 3 node(s)\n'
    ),
}


@pytest.fixture
def accounting():
    kernel = Kernel()
    return EAndroidAccounting(kernel, EnergyMeter(kernel))


class TestAttackGraphAnalyzer:
    def test_empty_graph(self, accounting):
        report = AttackGraphAnalyzer(accounting).analyze()
        assert report.node_count == 0
        assert report.max_chain_depth == 0
        assert report.longest_chain == []

    def test_chain_depth(self, accounting):
        accounting.begin_attack(AttackKind.SERVICE_BIND, 1, 2)
        accounting.begin_attack(AttackKind.ACTIVITY, 2, 3)
        accounting.begin_attack(AttackKind.SCREEN, 3, SCREEN_TARGET)
        report = AttackGraphAnalyzer(accounting).analyze()
        assert report.max_chain_depth == 3
        assert report.longest_chain == [1, 2, 3, SCREEN_TARGET]
        assert report.roots == [1]
        assert report.blast_radius[1] == 3

    def test_top_targets(self, accounting):
        accounting.begin_attack(AttackKind.ACTIVITY, 1, 9)
        accounting.begin_attack(AttackKind.ACTIVITY, 2, 9)
        accounting.begin_attack(AttackKind.SERVICE_BIND, 3, 9)
        report = AttackGraphAnalyzer(accounting).analyze()
        assert report.top_targets[0] == (9, 3)

    def test_live_only_filter(self, accounting):
        link = accounting.begin_attack(AttackKind.ACTIVITY, 1, 2)
        accounting.begin_attack(AttackKind.ACTIVITY, 5, 6)
        accounting.end_attack(link)
        analyzer = AttackGraphAnalyzer(accounting)
        assert analyzer.analyze(live_only=False).edge_count == 2
        live = analyzer.analyze(live_only=True)
        assert live.edge_count == 1
        assert 5 in live.roots and 1 not in live.roots

    def test_cycle_does_not_crash(self, accounting):
        accounting.begin_attack(AttackKind.ACTIVITY, 1, 2)
        accounting.begin_attack(AttackKind.ACTIVITY, 2, 1)
        report = AttackGraphAnalyzer(accounting).analyze()
        assert report.max_chain_depth >= 1

    def test_parallel_edges_counted(self, accounting):
        accounting.begin_attack(AttackKind.ACTIVITY, 1, 2)
        accounting.begin_attack(AttackKind.SERVICE_BIND, 1, 2)
        report = AttackGraphAnalyzer(accounting).analyze()
        assert report.edge_count == 2
        assert report.node_count == 2

    def test_render_text_on_real_scenario(self):
        from repro.workloads import run_hybrid_attack

        run = run_hybrid_attack(duration=20.0)
        analyzer = AttackGraphAnalyzer(run.eandroid.accounting)
        text = analyzer.render_text(system=run.system)
        assert "longest chain" in text
        assert "Weatherpro" in text
        assert "Screen" in text
        report = analyzer.analyze()
        assert report.max_chain_depth >= 3  # A -> B -> C -> screen


@pytest.mark.parametrize("name", sorted(PINNED_CHAINS))
def test_chains_text_is_pinned(name, capsys):
    assert main(["chains", name]) == 0
    assert capsys.readouterr().out == PINNED_CHAINS[name]


def _networkx_report(links):
    """The report as networkx computes it: a multigraph of the links,
    collapsed to a digraph for paths, degrees and descendants."""
    nx = pytest.importorskip("networkx")
    graph = nx.MultiDiGraph()
    for driver, target in links:
        graph.add_edge(driver, target)
    if graph.number_of_nodes() == 0:
        return (0, 0, [], [], [], {})
    simple = nx.DiGraph(graph)
    if nx.is_directed_acyclic_graph(simple):
        longest = nx.dag_longest_path(simple)
    else:
        longest = []
        for source in simple.nodes:
            candidate = max(
                nx.single_source_shortest_path(simple, source).values(), key=len
            )
            if len(candidate) > len(longest):
                longest = candidate
    roots = sorted(
        n for n in simple.nodes if simple.in_degree(n) == 0 and simple.out_degree(n) > 0
    )
    targets = sorted(
        ((n, simple.in_degree(n)) for n in simple.nodes), key=lambda pair: -pair[1]
    )
    return (
        graph.number_of_nodes(),
        graph.number_of_edges(),
        longest,
        roots,
        [(n, d) for n, d in targets if d > 0][:5],
        {root: len(nx.descendants(simple, root)) for root in roots},
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from([1, 2, 3, 4, 5, 6, SCREEN_TARGET]),
            st.sampled_from([1, 2, 3, 4, 5, 6, SCREEN_TARGET]),
        ),
        max_size=14,
    )
)
def test_report_matches_networkx(links):
    """Ties included: the plain-dict walks pick what networkx picks."""
    expected = _networkx_report(links)
    kernel = Kernel()
    accounting = EAndroidAccounting(kernel, EnergyMeter(kernel))
    for driver, target in links:
        accounting.begin_attack(AttackKind.ACTIVITY, driver, target)
    report = AttackGraphAnalyzer(accounting).analyze()
    assert (
        report.node_count,
        report.edge_count,
        report.longest_chain,
        report.roots,
        report.top_targets,
        report.blast_radius,
    ) == expected
