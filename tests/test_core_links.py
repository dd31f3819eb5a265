"""Tests for attack links, the link graph, and the link index's windows."""

import pytest

from repro.core import AttackKind, LinkGraph, LinkIndex, SCREEN_TARGET


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
        assert len([l for l in graph.live_links() if l.target == 2]) == 2

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


def _element(graph, host=1, target=7, start=0.0, end=float("inf")):
    """``host``'s windows on ``target`` over ``[start, end]``."""
    return LinkIndex(graph.links).clip(host, start, end).get(target, [])


class TestElementWindow:
    """One map element's windows, swept from its links."""

    def test_open_close_cycle(self):
        graph = LinkGraph()
        link = graph.begin(AttackKind.ACTIVITY, 1, 7, time=1.0)
        assert _element(graph, end=3.0) == [(1.0, 3.0)]
        graph.end(link, time=4.0)
        assert _element(graph) == [(1.0, 4.0)]

    def test_double_open_noop(self):
        graph = LinkGraph()
        first = graph.begin(AttackKind.ACTIVITY, 1, 7, time=1.0)
        second = graph.begin(AttackKind.SERVICE_BIND, 1, 7, time=2.0)
        graph.end(first, time=3.0)
        graph.end(second, time=3.0)
        assert _element(graph) == [(1.0, 3.0)]

    def test_close_when_closed_noop(self):
        graph = LinkGraph()
        link = graph.begin(AttackKind.ACTIVITY, 1, 7, time=1.0)
        graph.end(link, time=3.0)
        graph.end(link, time=5.0)
        assert _element(graph) == [(1.0, 3.0)]

    def test_zero_width_window_dropped(self):
        graph = LinkGraph()
        graph.end(graph.begin(AttackKind.ACTIVITY, 1, 7, time=3.0), time=3.0)
        assert _element(graph) == []

    def test_intervals_include_open_tail(self):
        graph = LinkGraph()
        graph.end(graph.begin(AttackKind.ACTIVITY, 1, 7, time=0.0), time=2.0)
        graph.begin(AttackKind.ACTIVITY, 1, 7, time=5.0)
        assert _element(graph, end=8.0) == [(0.0, 2.0), (5.0, 8.0)]

    def test_total_duration(self):
        graph = LinkGraph()
        graph.end(graph.begin(AttackKind.ACTIVITY, 1, 7, time=0.0), time=2.0)
        graph.begin(AttackKind.ACTIVITY, 1, 7, time=5.0)
        assert sum(b - a for a, b in _element(graph, end=8.0)) == 5.0

    def test_clipped_intervals(self):
        graph = LinkGraph()
        graph.end(graph.begin(AttackKind.ACTIVITY, 1, 7, time=0.0), time=10.0)
        graph.end(graph.begin(AttackKind.ACTIVITY, 1, 7, time=20.0), time=30.0)
        assert _element(graph, start=5.0, end=25.0) == [(5.0, 10.0), (20.0, 25.0)]

    def test_clip_excludes_outside(self):
        graph = LinkGraph()
        graph.end(graph.begin(AttackKind.ACTIVITY, 1, 7, time=0.0), time=10.0)
        assert _element(graph, start=10.0, end=20.0) == []


class TestCollateralMapSet:
    """Every host's map, as the link index sweeps it (Algorithm 1)."""

    def test_sync_opens_reachable(self):
        graph = LinkGraph()
        graph.begin(AttackKind.ACTIVITY, 1, 2, time=3.0)
        assert LinkIndex(graph.links).clip(1, 0.0, 5.0) == {2: [(3.0, 5.0)]}

    def test_sync_closes_unreachable(self):
        graph = LinkGraph()
        link = graph.begin(AttackKind.ACTIVITY, 1, 2, time=3.0)
        graph.end(link, time=9.0)
        index = LinkIndex(graph.links)
        assert index.clip(1, 0.0, 20.0) == {2: [(3.0, 9.0)]}
        assert index.runs[1] == [[3.0, 9.0, 2]]

    def test_chain_propagation_on_sync(self):
        """A's map picks up C when B (already attacking C) gets bound."""
        graph = LinkGraph()
        graph.begin(AttackKind.SERVICE_BIND, 2, 3, time=0.0)
        graph.begin(AttackKind.SERVICE_BIND, 1, 2, time=5.0)
        index = LinkIndex(graph.links)
        # C charged to A only from t=5, when the chain formed.
        assert index.clip(1, 0.0, 10.0) == {2: [(5.0, 10.0)], 3: [(5.0, 10.0)]}
        assert index.clip(2, 0.0, 10.0) == {3: [(0.0, 10.0)]}

    def test_maps_containing(self):
        """Algorithm 1's Mp: the maps whose open elements hold a target."""
        graph = LinkGraph()
        graph.begin(AttackKind.ACTIVITY, 1, 2, time=0.0)
        graph.begin(AttackKind.ACTIVITY, 9, 2, time=0.0)
        index = LinkIndex(graph.links)

        def containing(target):
            return [
                host
                for host in index.sorted_hosts
                if index.clip(host, 0.0, 1.0).get(target) == [(0.0, 1.0)]
            ]

        assert containing(2) == [1, 9]
        assert containing(42) == []

    def test_hosts_excludes_empty_maps(self):
        graph = LinkGraph()
        graph.end(graph.begin(AttackKind.ACTIVITY, 5, 6, time=1.0), time=1.0)
        index = LinkIndex(graph.links)
        assert index.hosts == {5}  # it drove a link ...
        assert index.runs[5] == []  # ... that was never live
        assert index.clip(5, 0.0, 10.0) == {}


class TestAppendableIndex:
    """A live log read as it grows: each commit sweeps what came before
    its time, and later edges extend the same index."""

    def test_edges_at_the_commit_time_wait_for_the_next_commit(self):
        graph = LinkGraph()
        index = LinkIndex(graph.links, until=0.0)
        graph.begin(AttackKind.ACTIVITY, 1, 2, time=0.0)
        index.commit(0.0)
        assert index.clip(1, 0.0, 0.0) == {}
        assert index.runs == {}
        # more edges at the same time, then a read later on
        link = graph.begin(AttackKind.ACTIVITY, 1, 3, time=0.0)
        index.commit(4.0)
        assert index.clip(1, 0.0, 4.0) == {2: [(0.0, 4.0)], 3: [(0.0, 4.0)]}
        # an end at the commit time: the window reads up to it either way
        graph.end(link, time=4.0)
        index.commit(4.0)
        assert index.clip(1, 0.0, 4.0) == {2: [(0.0, 4.0)], 3: [(0.0, 4.0)]}
        index.commit(6.0)
        assert index.clip(1, 0.0, 6.0) == {2: [(0.0, 6.0)], 3: [(0.0, 4.0)]}

    def test_a_link_begun_and_ended_at_one_time_never_opens(self):
        graph = LinkGraph()
        index = LinkIndex(graph.links, until=0.0)
        graph.begin(AttackKind.ACTIVITY, 1, 2, time=1.0)
        index.commit(2.0)
        graph.end(graph.begin(AttackKind.ACTIVITY, 1, 3, time=2.0), time=2.0)
        index.commit(3.0)
        assert index.clip(1, 0.0, 3.0) == {2: [(1.0, 3.0)]}
        assert [run[2] for run in index.runs[1]] == [2]

    def test_appended_index_equals_one_built_at_once(self):
        graph = LinkGraph()
        index = LinkIndex(graph.links, until=0.0)
        ab = graph.begin(AttackKind.SERVICE_BIND, 1, 2, time=1.0)
        index.commit(1.0)
        graph.begin(AttackKind.ACTIVITY, 2, 3, time=2.0)
        index.commit(3.0)
        graph.end(ab, time=5.0)
        graph.begin(AttackKind.SCREEN, 3, SCREEN_TARGET, time=5.0)
        index.commit(8.0)
        whole = LinkIndex(graph.links)
        for host in (1, 2, 3):
            assert index.clip(host, 0.0, 8.0) == whole.clip(host, 0.0, 8.0)
        assert index.clip(1, 0.0, 8.0) == {2: [(1.0, 5.0)], 3: [(2.0, 5.0)]}
