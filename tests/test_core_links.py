"""Tests for attack links, the link graph, and element windows."""

import pytest

from repro.core import AttackKind, LinkGraph, SCREEN_TARGET
from repro.core.energy_map import CollateralMapSet, ElementWindow


class TestLinkGraph:
    def test_begin_end_lifecycle(self):
        graph = LinkGraph()
        link = graph.begin(AttackKind.ACTIVITY, 1, 2, time=5.0)
        assert link.alive
        assert graph.live_links() == [link]
        graph.end(link, time=9.0)
        assert not link.alive
        assert link.end_time == 9.0
        assert graph.live_links() == []
        assert graph.all_links() == [link]

    def test_end_idempotent(self):
        graph = LinkGraph()
        link = graph.begin(AttackKind.SCREEN, 1, SCREEN_TARGET, time=0.0)
        graph.end(link, time=1.0)
        graph.end(link, time=5.0)
        assert link.end_time == 1.0

    def test_duration(self):
        graph = LinkGraph()
        link = graph.begin(AttackKind.ACTIVITY, 1, 2, time=5.0)
        assert link.duration(now=15.0) == 10.0
        graph.end(link, time=8.0)
        assert link.duration(now=100.0) == 3.0

    def test_live_from_and_targeting(self):
        graph = LinkGraph()
        a = graph.begin(AttackKind.ACTIVITY, 1, 2, time=0.0)
        b = graph.begin(AttackKind.SERVICE_BIND, 1, 3, time=0.0)
        graph.begin(AttackKind.ACTIVITY, 9, 2, time=0.0)
        assert set(l.link_id for l in graph.live_from(1)) == {a.link_id, b.link_id}
        assert len(graph.live_targeting(2)) == 2

    def test_hosts(self):
        graph = LinkGraph()
        link = graph.begin(AttackKind.ACTIVITY, 1, 2, time=0.0)
        graph.end(link, time=1.0)
        assert graph.hosts() == {1}


class TestReachability:
    def test_direct(self):
        graph = LinkGraph()
        graph.begin(AttackKind.ACTIVITY, 1, 2, time=0.0)
        assert graph.reachable_from(1) == {2}
        assert graph.reachable_from(2) == set()

    def test_chain(self):
        """Fig. 7: A binds B, B starts C, C attacks screen."""
        graph = LinkGraph()
        graph.begin(AttackKind.SERVICE_BIND, 1, 2, time=0.0)
        graph.begin(AttackKind.ACTIVITY, 2, 3, time=0.0)
        graph.begin(AttackKind.SCREEN, 3, SCREEN_TARGET, time=0.0)
        assert graph.reachable_from(1) == {2, 3, SCREEN_TARGET}
        assert graph.reachable_from(2) == {3, SCREEN_TARGET}
        assert graph.reachable_from(3) == {SCREEN_TARGET}

    def test_chain_breaks_when_middle_link_ends(self):
        graph = LinkGraph()
        ab = graph.begin(AttackKind.SERVICE_BIND, 1, 2, time=0.0)
        graph.begin(AttackKind.ACTIVITY, 2, 3, time=0.0)
        graph.end(ab, time=5.0)
        assert graph.reachable_from(1) == set()
        assert graph.reachable_from(2) == {3}

    def test_cycle_does_not_self_charge(self):
        graph = LinkGraph()
        graph.begin(AttackKind.ACTIVITY, 1, 2, time=0.0)
        graph.begin(AttackKind.ACTIVITY, 2, 1, time=0.0)
        assert graph.reachable_from(1) == {2}
        assert graph.reachable_from(2) == {1}

    def test_screen_is_terminal(self):
        graph = LinkGraph()
        graph.begin(AttackKind.WAKELOCK, 1, SCREEN_TARGET, time=0.0)
        graph.begin(AttackKind.ACTIVITY, 2, 1, time=0.0)
        # 2 -> 1 -> screen: screen reachable from 2 through 1.
        assert graph.reachable_from(2) == {1, SCREEN_TARGET}

    def test_diamond(self):
        graph = LinkGraph()
        graph.begin(AttackKind.ACTIVITY, 1, 2, time=0.0)
        graph.begin(AttackKind.ACTIVITY, 1, 3, time=0.0)
        graph.begin(AttackKind.SERVICE_BIND, 2, 4, time=0.0)
        graph.begin(AttackKind.SERVICE_BIND, 3, 4, time=0.0)
        assert graph.reachable_from(1) == {2, 3, 4}


class TestElementWindow:
    def test_open_close_cycle(self):
        window = ElementWindow(target=7)
        window.open(1.0)
        assert window.is_open
        window.close(4.0)
        assert not window.is_open
        assert window.closed == [(1.0, 4.0)]

    def test_double_open_noop(self):
        window = ElementWindow(target=7)
        window.open(1.0)
        window.open(2.0)
        window.close(3.0)
        assert window.closed == [(1.0, 3.0)]

    def test_close_when_closed_noop(self):
        window = ElementWindow(target=7)
        window.close(3.0)
        assert window.closed == []

    def test_zero_width_window_dropped(self):
        window = ElementWindow(target=7)
        window.open(3.0)
        window.close(3.0)
        assert window.closed == []
        assert not window.is_open

    def test_intervals_include_open_tail(self):
        window = ElementWindow(target=7)
        window.open(0.0)
        window.close(2.0)
        window.open(5.0)
        assert window.intervals(until=8.0) == [(0.0, 2.0), (5.0, 8.0)]

    def test_total_duration(self):
        window = ElementWindow(target=7)
        window.open(0.0)
        window.close(2.0)
        window.open(5.0)
        assert window.total_duration(until=8.0) == 5.0

    def test_clipped_intervals(self):
        window = ElementWindow(target=7)
        window.open(0.0)
        window.close(10.0)
        window.open(20.0)
        window.close(30.0)
        assert window.clipped_intervals(5.0, 25.0) == [(5.0, 10.0), (20.0, 25.0)]

    def test_clip_excludes_outside(self):
        window = ElementWindow(target=7)
        window.open(0.0)
        window.close(10.0)
        assert window.clipped_intervals(10.0, 20.0) == []


class TestCollateralMapSet:
    def test_sync_opens_reachable(self):
        graph = LinkGraph()
        maps = CollateralMapSet()
        graph.begin(AttackKind.ACTIVITY, 1, 2, time=3.0)
        maps.sync(3.0, graph, 1)
        assert maps.map_for(1).open_targets() == {2}

    def test_sync_closes_unreachable(self):
        graph = LinkGraph()
        maps = CollateralMapSet()
        link = graph.begin(AttackKind.ACTIVITY, 1, 2, time=3.0)
        maps.sync(3.0, graph, 1)
        graph.end(link, time=9.0)
        maps.sync(9.0, graph, 1)
        element = maps.map_for(1).element(2)
        assert not element.is_open
        assert element.closed == [(3.0, 9.0)]

    def test_chain_propagation_on_sync(self):
        """A's map picks up C when B (already attacking C) gets bound."""
        graph = LinkGraph()
        maps = CollateralMapSet()
        graph.begin(AttackKind.SERVICE_BIND, 2, 3, time=0.0)
        maps.sync(0.0, graph, 2)
        graph.begin(AttackKind.SERVICE_BIND, 1, 2, time=5.0)
        maps.sync(5.0, graph, 1)
        assert maps.map_for(1).open_targets() == {2, 3}
        # C charged to A only from t=5, when the chain formed.
        assert maps.map_for(1).element(3).intervals(until=10.0) == [(5.0, 10.0)]

    def test_maps_containing(self):
        graph = LinkGraph()
        maps = CollateralMapSet()
        graph.begin(AttackKind.ACTIVITY, 1, 2, time=0.0)
        maps.sync(0.0, graph, 1)
        graph.begin(AttackKind.ACTIVITY, 9, 2, time=0.0)
        maps.sync(0.0, graph, 9)
        assert len(maps.maps_containing(2)) == 2
        assert maps.maps_containing(42) == []

    def test_hosts_excludes_empty_maps(self):
        maps = CollateralMapSet()
        maps.map_for(5)  # created but never populated
        assert maps.hosts() == set()
