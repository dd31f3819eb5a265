"""The analyzer's link-window sweep equals a plain rescan, key order included.

``OfflineAnalyzer._link_windows`` clips per-(host, target) charge
windows from one sweep of the trace's link log, made once per analyzer.
The reference kept here is the straightforward form: at every segment
between link boundaries, rescan every link for the live set and walk
reachability over that whole list.  Both must give the same window map with the same
dict key order (``collateral_j`` order reaches the wire), and the five
report backends must render the same JSON bytes.
"""

import json
import random
from typing import Dict, List, Set, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.check.generator import generate_scenario
from repro.check.runner import ScenarioExecutor
from repro.offline import DeviceTrace, OfflineAnalyzer, capture_trace
from repro.offline.analyzer import SCREEN_TARGET
from repro.offline.trace import ChannelTrace, LinkRecord
from repro.power.meter import SCREEN_OWNER
from repro.reports.request import ReportRequest
from repro.store import LazyBinaryTrace

BACKENDS = ("energy", "batterystats", "powertutor", "eandroid", "collateral")

Windows = Dict[int, Dict[int, List[Tuple[float, float]]]]


# ----------------------------------------------------------------------
# the reference: an O(boundaries x links) rescan
# ----------------------------------------------------------------------
def _reference_reachable(host: int, live: List[LinkRecord]) -> Set[int]:
    reached: Set[int] = set()
    frontier = [host]
    seen = {host}
    while frontier:
        node = frontier.pop()
        for link in live:
            if link.driving_uid != node:
                continue
            target = link.target
            if target == host or target in reached:
                continue
            reached.add(target)
            if target not in seen and target != SCREEN_TARGET:
                seen.add(target)
                frontier.append(target)
    return reached


def reference_link_windows(trace: DeviceTrace, start: float, end: float) -> Windows:
    boundaries = sorted(
        {start, end}
        | {l.begin_time for l in trace.links}
        | {l.end_time for l in trace.links if l.end_time is not None}
    )
    boundaries = [b for b in boundaries if start <= b <= end]
    if not boundaries or boundaries[0] > start:
        boundaries.insert(0, start)
    if boundaries[-1] < end:
        boundaries.append(end)
    windows: Windows = {}
    hosts = {l.driving_uid for l in trace.links}
    for seg_start, seg_end in zip(boundaries, boundaries[1:]):
        if seg_end <= seg_start:
            continue
        midpoint = (seg_start + seg_end) / 2.0
        live = [
            l
            for l in trace.links
            if l.begin_time <= midpoint
            and (l.end_time is None or l.end_time > midpoint)
        ]
        for host in hosts:
            for target in _reference_reachable(host, live):
                target_windows = windows.setdefault(host, {}).setdefault(target, [])
                if target_windows and target_windows[-1][1] == seg_start:
                    target_windows[-1] = (target_windows[-1][0], seg_end)
                else:
                    target_windows.append((seg_start, seg_end))
    return windows


class ReferenceAnalyzer(OfflineAnalyzer):
    """The analyzer with the rescan and an all-channel energy walk."""

    def _link_windows(self, start, end):
        return reference_link_windows(self.trace, start, end)

    def energy_j(self, owner=None, start=0.0, end=None):
        window_end = self.trace.captured_at if end is None else end
        return sum(
            channel.energy_j(start, window_end)
            for (channel_owner, _), channel in self._channels.items()
            if owner is None or channel_owner == owner
        )


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _ordered(windows: Windows):
    """The map as nested item lists, so comparison sees key order."""
    return [
        (host, [(target, list(spans)) for target, spans in per_host.items()])
        for host, per_host in windows.items()
    ]


def assert_same_windows(trace: DeviceTrace, start: float, end: float) -> Windows:
    expected = reference_link_windows(trace, start, end)
    actual = OfflineAnalyzer(trace)._link_windows(start, end)
    assert _ordered(actual) == _ordered(expected)
    return actual


def assert_same_payloads(trace: DeviceTrace, start: float = 0.0, end=None) -> None:
    for backend in BACKENDS:
        request = ReportRequest(backend=backend, start=start, end=end)
        expected = json.dumps(ReferenceAnalyzer(trace).describe(request).to_dict())
        actual = json.dumps(OfflineAnalyzer(trace).describe(request).to_dict())
        assert actual == expected, backend


def _generated_trace(seed: int, ops: int, packages: int = 3) -> DeviceTrace:
    executor = ScenarioExecutor(generate_scenario(seed, ops=ops, packages=packages))
    executor.run()
    return capture_trace(executor.system, executor.ea)


def _synthetic_trace(links: List[LinkRecord], captured_at: float) -> DeviceTrace:
    """A trace with a flat 100 mW channel per uid in the link log."""
    uids = sorted(
        {l.driving_uid for l in links} | {l.target for l in links if l.target >= 0}
    )
    channels = [ChannelTrace(owner=uid, component="cpu", breakpoints=[(0.0, 100.0)])
                for uid in uids]
    channels.append(ChannelTrace(owner=SCREEN_OWNER, component="screen",
                                 breakpoints=[(0.0, 300.0)]))
    return DeviceTrace(
        captured_at=captured_at,
        channels=channels,
        apps={uid: f"app{uid}" for uid in uids},
        links=links,
    )


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "seed,ops,packages",
    [(1, 50, 3), (2, 50, 6), (3, 200, 4), (4, 200, 6), (5, 800, 3), (6, 800, 5)],
)
def test_generated_scenarios_match_the_rescan(seed, ops, packages):
    trace = _generated_trace(seed, ops, packages)
    assert trace.links
    windows = assert_same_windows(trace, 0.0, trace.captured_at)
    assert windows
    assert_same_payloads(trace)


@pytest.mark.parametrize("seed,ops", [(11, 200), (12, 800)])
def test_windows_that_clip_links_at_both_ends(seed, ops):
    trace = _generated_trace(seed, ops, packages=4)
    cap = trace.captured_at
    # Windows starting and ending inside links, on a link boundary, and
    # outside the link log entirely.
    begins = sorted(l.begin_time for l in trace.links)
    middle = begins[len(begins) // 2]
    for start, end in [
        (cap * 0.25, cap * 0.75),
        (cap * 0.1, cap * 0.9),
        (middle, max(middle, cap * 0.8)),
        (min(middle, cap * 0.2), middle),
        (middle, middle),
        (cap * 0.5, cap * 0.5 + 1e-9),
        (cap, cap),
    ]:
        assert_same_windows(trace, start, end)
        assert_same_payloads(trace, start, end)
    clipped = OfflineAnalyzer(trace)._link_windows(cap * 0.25, cap * 0.75)
    for per_host in clipped.values():
        for spans in per_host.values():
            assert all(cap * 0.25 <= s < e <= cap * 0.75 for s, e in spans)


def test_open_zero_length_and_duplicate_boundary_links():
    links = [
        LinkRecord("bind", 1, 2, 10.0, None),  # still open at capture
        LinkRecord("bind", 2, 3, 10.0, 20.0),  # same begin as the first
        LinkRecord("bind", 3, 1, 20.0, 30.0),  # begins where the last ends
        LinkRecord("wakelock", 4, SCREEN_TARGET, 15.0, 15.0),  # zero length
        LinkRecord("bind", 4, 2, 15.0, 15.0),  # zero length, same instant
        LinkRecord("bind", 4, 1, 5.0, 25.0),
        LinkRecord("brightness", 2, SCREEN_TARGET, 12.0, 20.0),
        LinkRecord("bind", 1, 2, 18.0, 40.0),  # parallel to the first
        LinkRecord("bind", 5, 5, 1.0, 2.0),  # self loop
        LinkRecord("bind", 6, 7, 0.0, 3.0),  # ends before most windows
    ]
    trace = _synthetic_trace(links, captured_at=50.0)
    for start, end in [(0.0, 50.0), (12.0, 22.0), (15.0, 15.0), (15.0, 50.0),
                       (10.0, 20.0), (30.0, 50.0), (45.0, 50.0)]:
        assert_same_windows(trace, start, end)
        assert_same_payloads(trace, start, end)
    windows = OfflineAnalyzer(trace)._link_windows(0.0, 50.0)
    assert windows[1][2] == [(10.0, 50.0)]  # open link runs to capture
    assert windows[4][1] == [(5.0, 25.0)]
    assert windows[4][SCREEN_TARGET] == [(12.0, 20.0)]  # via 1 -> 2 only
    assert 5 not in windows  # a self loop charges nothing


def test_target_order_follows_the_depth_first_walk():
    # 9 and 17 share a hash slot in a small set, so the order they are
    # reached in decides the order they iterate in; a breadth-first
    # walk would give [9, 2, 3, 17].
    links = [
        LinkRecord("bind", 1, 2, 0.0, 10.0),
        LinkRecord("bind", 1, 3, 0.0, 10.0),
        LinkRecord("bind", 2, 9, 0.0, 10.0),
        LinkRecord("bind", 3, 17, 0.0, 10.0),
    ]
    trace = _synthetic_trace(links, captured_at=10.0)
    windows = assert_same_windows(trace, 0.0, 10.0)
    assert list(windows[1]) == [17, 2, 3, 9]
    assert_same_payloads(trace)


# uids whose hashes collide in a small set table, so a set's iteration
# order depends on insertion order (and is not sorted order)
_UIDS = [1, 2, 3, 9, 17, 10050]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(_UIDS),  # driver
            st.sampled_from(_UIDS + [SCREEN_TARGET]),  # target
            st.integers(0, 12),  # begin (small ints: many shared boundaries)
            st.one_of(st.none(), st.integers(0, 14)),  # end, may precede begin
        ),
        max_size=24,
    ),
    st.integers(0, 16),
    st.integers(0, 16),
)
def test_random_link_logs_match_the_rescan(raw, a, b):
    links = [
        LinkRecord("bind", d, t, float(s), None if e is None else float(e))
        for d, t, s, e in raw
    ]
    trace = _synthetic_trace(links, captured_at=16.0)
    start, end = float(min(a, b)), float(max(a, b))
    assert_same_windows(trace, start, end)
    assert_same_windows(trace, 0.0, 16.0)


def _boundary_windows(trace: DeviceTrace, seed: int, count: int):
    """Seeded windows in random order: starts on link boundaries,
    empty windows, and ends past ``captured_at``."""
    rng = random.Random(seed)
    cap = trace.captured_at
    bounds = sorted(
        {l.begin_time for l in trace.links}
        | {l.end_time for l in trace.links if l.end_time is not None}
    )
    windows = [(0.0, cap), (0.0, cap * 1.5), (cap, cap), (cap, cap * 2.0)]
    for _ in range(count):
        start = rng.choice(bounds)
        kind = rng.randrange(4)
        if kind == 0:
            end = start
        elif kind == 1:
            end = start + rng.uniform(0.0, cap * 1.5)
        elif kind == 2:
            end = max(start, rng.choice(bounds))
        else:
            start = rng.uniform(0.0, cap)
            end = start + rng.uniform(0.0, cap)
        windows.append((start, end))
    rng.shuffle(windows)
    return windows


def _open_and_zero_length_links_trace() -> DeviceTrace:
    links = [
        LinkRecord("bind", 1, 2, 10.0, None),
        LinkRecord("bind", 2, 9, 4.0, 30.0),
        LinkRecord("bind", 2, 17, 4.0, 30.0),
        LinkRecord("bind", 1, 3, 2.0, 12.0),
        LinkRecord("bind", 3, 17, 6.0, 18.0),
        LinkRecord("bind", 3, 9, 8.0, 8.0),  # zero length
        LinkRecord("wakelock", 9, SCREEN_TARGET, 5.0, None),
        LinkRecord("bind", 17, 1, 20.0, 20.0),  # zero length
        LinkRecord("bind", 10050, 9, 12.0, 25.0),
        LinkRecord("bind", 10050, 2, 25.0, None),
    ]
    return _synthetic_trace(links, captured_at=40.0)


@pytest.mark.parametrize("source", ["generated", "synthetic"])
def test_one_analyzer_answers_windows_in_any_order(source):
    # One analyzer, so every window after the first reads a reused index.
    if source == "generated":
        trace = _generated_trace(31, 400, packages=5)
    else:
        trace = _open_and_zero_length_links_trace()
    analyzer = OfflineAnalyzer(trace)
    reference = ReferenceAnalyzer(trace)
    for start, end in _boundary_windows(trace, seed=7, count=40):
        expected = reference_link_windows(trace, start, end)
        assert _ordered(analyzer._link_windows(start, end)) == _ordered(expected)
        for backend in BACKENDS:
            request = ReportRequest(backend=backend, start=start, end=end)
            assert json.dumps(analyzer.describe(request).to_dict()) == json.dumps(
                reference.describe(request).to_dict()
            ), (backend, start, end)


def test_direct_backends_build_no_index():
    trace = _generated_trace(32, 200)
    analyzer = OfflineAnalyzer(trace)
    for backend in ("energy", "batterystats", "powertutor"):
        analyzer.describe(ReportRequest(backend=backend))
    assert analyzer._link_index is None
    analyzer.describe(ReportRequest(backend="eandroid"))
    index = analyzer._link_index
    assert index is not None
    analyzer.describe(ReportRequest(backend="collateral", start=1.0))
    analyzer.collateral_breakdown(next(iter(index.hosts)))
    assert analyzer._link_index is index


def test_binary_round_trip_through_the_lazy_reader():
    trace = _generated_trace(21, 400, packages=5)
    restored = LazyBinaryTrace(trace.to_bytes()).to_trace()
    cap = restored.captured_at
    for start, end in [(0.0, cap), (cap * 0.3, cap * 0.6)]:
        windows = assert_same_windows(restored, start, end)
        assert _ordered(windows) == _ordered(
            OfflineAnalyzer(trace)._link_windows(start, end)
        )
        assert_same_payloads(restored, start, end)


def test_collateral_breakdown_reads_the_same_windows():
    trace = _generated_trace(8, 400, packages=4)
    analyzer = OfflineAnalyzer(trace)
    reference = ReferenceAnalyzer(trace)
    cap = trace.captured_at
    for host in sorted({l.driving_uid for l in trace.links}):
        for start, end in [(0.0, None), (cap * 0.2, cap * 0.7)]:
            actual = analyzer.collateral_breakdown(host, start, end)
            assert list(actual.items()) == list(
                reference.collateral_breakdown(host, start, end).items()
            )


def test_owner_energy_sums_only_that_owners_channels():
    trace = _generated_trace(9, 200)
    analyzer = OfflineAnalyzer(trace)
    reference = ReferenceAnalyzer(trace)
    cap = trace.captured_at
    for owner in sorted(analyzer.owners()) + [12345]:
        for start, end in [(0.0, None), (cap * 0.4, cap * 0.6)]:
            assert analyzer.energy_j(owner, start, end) == reference.energy_j(
                owner, start, end
            )
    assert analyzer.energy_j() == reference.energy_j()


def test_owner_energy_keeps_the_channel_order():
    # 0.1 + 0.2 + 0.3 rounds differently from 0.3 + 0.2 + 0.1.
    channels = [
        ChannelTrace(owner=1, component="cpu", breakpoints=[(0.0, 100.0)]),
        ChannelTrace(owner=2, component="cpu", breakpoints=[(0.0, 50.0)]),
        ChannelTrace(owner=1, component="wifi", breakpoints=[(0.0, 200.0)]),
        ChannelTrace(owner=1, component="gps", breakpoints=[(0.0, 300.0)]),
    ]
    trace = DeviceTrace(captured_at=1.0, channels=channels)
    assert OfflineAnalyzer(trace).energy_j(owner=1) == 0.1 + 0.2 + 0.3
    assert ReferenceAnalyzer(trace).energy_j(owner=1) == 0.1 + 0.2 + 0.3
