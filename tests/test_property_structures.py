"""Property-based tests on core data structures and invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.accounting.attribution import foreground_spans
from repro.android import AndroidManifest, ComponentDecl, ComponentKind, IntentFilterDecl
from repro.android.timeline import ForegroundTimeline
from repro.core import AttackKind, LinkGraph, LinkIndex
from repro.power import Battery, EnergyMeter
from repro.sim import Kernel


# ----------------------------------------------------------------------
# ForegroundTimeline
# ----------------------------------------------------------------------
def foreground_intervals(changes, uid, start, end):
    """``uid``'s foreground spans of [start, end), from the shared walk."""
    spans = foreground_spans(changes, start, end)
    return [(span_start, span_end) for span_start, span_end, owner in spans if owner == uid]


@st.composite
def timelines(draw):
    count = draw(st.integers(min_value=1, max_value=20))
    times = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
    )
    uids = draw(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=10000, max_value=10004)),
            min_size=count,
            max_size=count,
        )
    )
    timeline = ForegroundTimeline()
    for t, uid in zip(times, uids):
        timeline.record(t, uid)
    return timeline


class TestTimelineProperties:
    @given(timelines(), st.floats(min_value=0.0, max_value=1000.0))
    def test_uid_at_matches_intervals(self, timeline, probe):
        """uid_at(t) == the uid whose interval covers t."""
        uid = timeline.uid_at(probe)
        if uid is None:
            return
        intervals = foreground_intervals(timeline.changes(), uid, 0.0, 1001.0)
        assert any(start <= probe < end for start, end in intervals) or any(
            start <= probe for start, end in intervals if end == 1001.0
        )

    @given(timelines())
    def test_intervals_partition_time(self, timeline):
        """Per-uid intervals are disjoint and ordered."""
        changes = timeline.changes()
        uids = {uid for _, uid in changes if uid is not None}
        all_intervals = []
        for uid in uids:
            intervals = foreground_intervals(changes, uid, 0.0, 2000.0)
            for start, end in intervals:
                assert start < end
            all_intervals.extend(intervals)
        all_intervals.sort()
        for (s1, e1), (s2, e2) in zip(all_intervals, all_intervals[1:]):
            assert e1 <= s2 + 1e-9  # no overlap across uids either

    def test_out_of_order_rejected(self):
        timeline = ForegroundTimeline()
        timeline.record(5.0, 1)
        with pytest.raises(ValueError):
            timeline.record(4.0, 2)

    def test_duplicate_time_overwrites(self):
        timeline = ForegroundTimeline()
        timeline.record(1.0, 1)
        timeline.record(1.0, 2)
        assert timeline.uid_at(1.0) == 2

    def test_same_uid_compacted(self):
        timeline = ForegroundTimeline()
        timeline.record(1.0, 7)
        timeline.record(2.0, 7)
        assert len(timeline.changes()) == 1

    def test_reverse_window_rejected(self):
        timeline = ForegroundTimeline()
        timeline.record(0.0, 1)
        with pytest.raises(ValueError):
            list(foreground_spans(timeline.changes(), 5.0, 1.0))


# ----------------------------------------------------------------------
# Manifest XML round-trip
# ----------------------------------------------------------------------
name_st = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1,
    max_size=12,
)


@st.composite
def manifests(draw):
    package = "com." + draw(name_st).lower()
    permissions = frozenset(
        f"android.permission.{draw(name_st).upper()}"
        for _ in range(draw(st.integers(0, 4)))
    )
    components = []
    for i in range(draw(st.integers(0, 5))):
        filters = tuple(
            IntentFilterDecl(
                actions=frozenset({f"action.{draw(name_st)}"}),
                categories=frozenset(
                    f"category.{draw(name_st)}"
                    for _ in range(draw(st.integers(0, 2)))
                ),
            )
            for _ in range(draw(st.integers(0, 2)))
        )
        components.append(
            ComponentDecl(
                name=f"Component{i}",
                kind=draw(st.sampled_from(list(ComponentKind))),
                exported=draw(st.booleans()),
                intent_filters=filters,
                transparent=draw(st.booleans()),
            )
        )
    return AndroidManifest(
        package=package,
        category=draw(st.sampled_from(["tools", "game", "social"])),
        uses_permissions=permissions,
        components=tuple(components),
    )


class TestManifestRoundTripProperty:
    @given(manifests())
    def test_xml_roundtrip_identity(self, manifest):
        parsed = AndroidManifest.from_xml(manifest.to_xml())
        assert parsed.package == manifest.package
        assert parsed.category == manifest.category
        assert parsed.uses_permissions == manifest.uses_permissions
        assert len(parsed.components) == len(manifest.components)
        for a, b in zip(parsed.components, manifest.components):
            assert (a.name, a.kind, a.exported, a.transparent) == (
                b.name,
                b.kind,
                b.exported,
                b.transparent,
            )
            assert a.intent_filters == b.intent_filters


# ----------------------------------------------------------------------
# Meter / battery
# ----------------------------------------------------------------------
@st.composite
def draw_schedules(draw):
    """Random (dt, owner, component, mw) draw-change schedules."""
    steps = draw(st.integers(min_value=1, max_value=25))
    return [
        (
            draw(st.floats(min_value=0.0, max_value=50.0, allow_nan=False)),
            draw(st.integers(min_value=1, max_value=4)),
            draw(st.sampled_from(["cpu", "radio", "gps"])),
            draw(st.floats(min_value=0.0, max_value=2000.0, allow_nan=False)),
        )
        for _ in range(steps)
    ]


class TestMeterProperties:
    @given(draw_schedules())
    def test_owner_sum_equals_total(self, schedule):
        kernel = Kernel()
        meter = EnergyMeter(kernel)
        for dt, owner, component, mw in schedule:
            kernel.run_for(dt)
            meter.set_draw(owner, component, mw)
        kernel.run_for(10.0)
        total = meter.total_energy_j()
        assert total == pytest.approx(
            sum(meter.energy_by_owner().values()), rel=1e-9, abs=1e-9
        )
        component_sum = sum(
            sum(meter.energy_by_component(owner).values())
            for owner in meter.owners()
        )
        assert total == pytest.approx(component_sum, rel=1e-9, abs=1e-9)

    @given(draw_schedules(), st.floats(min_value=0.0, max_value=500.0))
    def test_battery_monotone_nonincreasing(self, schedule, probe):
        kernel = Kernel()
        meter = EnergyMeter(kernel)
        battery = Battery(kernel, meter, capacity_j=1000.0)
        for dt, owner, component, mw in schedule:
            kernel.run_for(dt)
            meter.set_draw(owner, component, mw)
        kernel.run_for(10.0)
        now = kernel.now
        earlier = min(probe, now)
        assert battery.percent(earlier) >= battery.percent(now) - 1e-9

    @given(draw_schedules())
    def test_windowed_energy_additive(self, schedule):
        kernel = Kernel()
        meter = EnergyMeter(kernel)
        for dt, owner, component, mw in schedule:
            kernel.run_for(dt)
            meter.set_draw(owner, component, mw)
        kernel.run_for(10.0)
        now = kernel.now
        mid = now / 2
        whole = meter.total_energy_j(start=0.0, end=now)
        parts = meter.total_energy_j(0.0, mid) + meter.total_energy_j(mid, now)
        assert whole == pytest.approx(parts, rel=1e-9, abs=1e-9)


# ----------------------------------------------------------------------
# Link graph + map set
# ----------------------------------------------------------------------
@st.composite
def link_scripts(draw):
    """Random begin/end scripts over a small uid universe."""
    steps = draw(st.integers(min_value=1, max_value=30))
    script = []
    for _ in range(steps):
        if draw(st.booleans()):
            script.append(
                (
                    "begin",
                    draw(st.integers(min_value=1, max_value=5)),
                    draw(st.integers(min_value=1, max_value=6)),
                )
            )
        else:
            script.append(("end", draw(st.integers(min_value=0, max_value=40)), 0))
    return script


def _scan_reachable(graph, host):
    """Reachability by repeated scans of the live links (no indexes)."""
    reached, nodes, grew = set(), {host}, True
    while grew:
        grew = False
        for link in graph.live_links():
            if link.driving_uid in nodes and link.target != host and link.target not in reached:
                reached.add(link.target)
                nodes.add(link.target)
                grew = True
    return reached


class TestGraphMapProperties:
    @given(link_scripts())
    def test_maps_always_match_reachability(self, script):
        graph = LinkGraph()
        index = LinkIndex(graph.links, until=0.0)
        live = []
        time = 0.0
        for action, a, b in script:
            time += 1.0
            if action == "begin" and a != b:
                live.append(graph.begin(AttackKind.ACTIVITY, a, b, time))
            elif action == "end" and live:
                link = live.pop(a % len(live))
                graph.end(link, time)
            assert graph.hosts() == {l.driving_uid for l in graph.all_links()}
            # read between this edge and the next: the windows still open
            # are exactly the targets the live links reach
            read_at = time + 0.5
            index.commit(read_at)
            for host in graph.hosts():
                expected = _scan_reachable(graph, host)
                assert graph.reachable_from(host) == expected
                windows = index.clip(host, 0.0, read_at)
                assert {t for t, spans in windows.items() if spans[-1][1] == read_at} == expected

    @given(link_scripts())
    def test_total_window_time_bounded_by_elapsed(self, script):
        graph = LinkGraph()
        live = []
        time = 0.0
        for action, a, b in script:
            time += 1.0
            if action == "begin" and a != b:
                live.append(graph.begin(AttackKind.SERVICE_BIND, a, b, time))
            elif action == "end" and live:
                link = live.pop(a % len(live))
                graph.end(link, time)
        index = LinkIndex(graph.links)
        for host in graph.hosts():
            for spans in index.clip(host, 0.0, time).values():
                assert sum(b - a for a, b in spans) <= time + 1e-9

    @given(
        link_scripts(),
        st.lists(st.sampled_from([0.0, 0.0, 1.0, 2.5]), min_size=30, max_size=30),
        st.lists(st.booleans(), min_size=30, max_size=30),
    )
    def test_appended_index_clips_equal_a_fresh_one(self, script, steps, reads):
        """An index appended edge by edge, read between edges at the
        same time as well, clips every window ending at the read time
        (key order included) as an index built from scratch over the
        same links does."""
        graph = LinkGraph()
        index = LinkIndex(graph.links, until=0.0)
        live = []
        time = 0.0
        for (action, a, b), step, read in zip(script, steps, reads):
            time += step
            if action == "begin" and a != b:
                live.append(graph.begin(AttackKind.ACTIVITY, a, b, time))
            elif action == "end" and live:
                graph.end(live.pop(a % len(live)), time)
            if not read:
                continue
            index.commit(time)
            fresh = LinkIndex(graph.links)
            for host in graph.hosts():
                for start in (0.0, time / 2, max(time - 1.0, 0.0)):
                    appended = index.clip(host, start, time)
                    assert list(appended.items()) == list(
                        fresh.clip(host, start, time).items()
                    )
