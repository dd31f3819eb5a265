"""The collateral maps read from the link index match an eager
per-edge Algorithm 1.

``EAndroidAccounting`` logs links in its graph and sweeps them into a
:class:`~repro.core.links.LinkIndex` only when a map is read.  Here an
eager reference recomputes every host's reachability from the raw
live-link list after each edge and opens/closes its own windows; the
maps, read at random step positions (so partial and resumed sweeps both
occur), must match it element by element.  The eager windows are
compared after dropping zero-length ones and joining touching ones: an
eager re-diff per edge can close and reopen a window at one instant,
where the index sweeps each instant's edges together.
"""

import random

import pytest

from repro.check.generator import generate_scenario
from repro.check.oracles import _reference_reachable
from repro.check.runner import ScenarioExecutor

SCENARIOS = [(900 + i, (50, 100, 200, 400, 800)[i % 5]) for i in range(30)]


def merged(spans):
    """Windows with the zero-length ones dropped and touching ones joined."""
    out = []
    for a, b in spans:
        if b <= a:
            continue
        if out and out[-1][1] == a:
            out[-1] = (out[-1][0], b)
        else:
            out.append((a, b))
    return out


class EagerReference:
    """Windows per (host, target), re-diffed after every link edge."""

    def __init__(self, accounting) -> None:
        self.graph = accounting.graph
        # (host, target) -> [closed windows, open_since]
        self.windows = {}
        self.open = {}  # host -> open targets
        begin_attack = accounting.begin_attack
        end_attack = accounting.end_attack

        def begin(*args, **kwargs):
            link = begin_attack(*args, **kwargs)
            self.open.setdefault(link.driving_uid, set())
            self.step(link.begin_time)
            return link

        def end(link):
            was_live = link.alive
            end_attack(link)
            if was_live:
                self.step(link.end_time)

        accounting.begin_attack = begin
        accounting.end_attack = end

    def step(self, time: float) -> None:
        live = self.graph.live_links()
        for host, open_targets in self.open.items():
            reachable = _reference_reachable(live, host)
            for target in reachable - open_targets:
                window = self.windows.setdefault((host, target), [[], None])
                window[1] = time
            for target in open_targets - reachable:
                window = self.windows[(host, target)]
                if time > window[1]:
                    window[0].append((window[1], time))
                window[1] = None
            self.open[host] = reachable

    def assert_matches(self, accounting, now: float) -> None:
        expected = {}
        for key, (closed, open_since) in self.windows.items():
            spans = list(closed)
            if open_since is not None:
                spans.append((open_since, now))
            if merged(spans):
                expected[key] = merged(spans)
        read = {
            (host, target): spans
            for host in self.open
            for target, spans in accounting.map_for(host).items()
        }
        assert read == expected


@pytest.mark.parametrize("seed,ops", SCENARIOS)
def test_fold_matches_eager_reference(seed, ops):
    scenario = generate_scenario(seed, ops=ops)
    rng = random.Random(seed)

    executor = ScenarioExecutor(scenario)
    accounting = executor.ea.accounting
    reference = EagerReference(accounting)
    reads = 0

    def step_hook(index, op):
        nonlocal reads
        if rng.random() < 0.15:
            reference.assert_matches(accounting, executor.system.now)
            reads += 1
            if rng.random() < 0.3:
                executor.ea.interface.report()

    executor.run(step_hook)
    reference.assert_matches(accounting, executor.system.now)
    assert reads > 0
    interleaved = executor.ea.interface.report()

    untouched = ScenarioExecutor(scenario)
    untouched.run()
    assert not untouched.ea.accounting._index.hosts, "the run read no map"
    assert untouched.ea.interface.report() == interleaved


def test_a_read_sweeps_only_the_new_links():
    executor = ScenarioExecutor(generate_scenario(7, ops=200))
    accounting = executor.ea.accounting
    executor.run()
    index = accounting._index
    assert not index.hosts, "the run read no map"

    def windows():
        return {
            (host, target): spans
            for host in accounting.hosts()
            for target, spans in accounting.map_for(host).items()
        }

    def walks():
        return sum(len(times) for times in index.reach_times.values())

    swept = windows()
    assert swept
    walked = walks()
    # a second read at the same time sweeps nothing and reads the same
    assert windows() == swept
    assert walks() == walked
