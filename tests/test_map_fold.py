"""The collateral maps folded on read match an eager per-edge Algorithm 1.

``EAndroidAccounting`` logs link begin/end edges and folds them into
the maps only when ``accounting.maps`` is read.  Here an eager reference
recomputes every host's reachability from the raw live-link list after
each edge and opens/closes its own windows; the folded maps, read at
random step positions (so partial and resumed folds both occur), must
match it element by element, down to each element's version counter.
"""

import random

import pytest

from repro.check.generator import generate_scenario
from repro.check.oracles import _reference_reachable
from repro.check.runner import ScenarioExecutor

SCENARIOS = [(900 + i, (50, 100, 200, 400, 800)[i % 5]) for i in range(30)]


class EagerReference:
    """Windows per (host, target), re-diffed after every link edge."""

    def __init__(self, accounting) -> None:
        self.graph = accounting.graph
        # (host, target) -> [closed windows, open_since, version]
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
                window = self.windows.setdefault((host, target), [[], None, 0])
                window[1] = time
                window[2] += 1
            for target in open_targets - reachable:
                window = self.windows[(host, target)]
                if time > window[1]:
                    window[0].append((window[1], time))
                window[1] = None
                window[2] += 1
            self.open[host] = reachable

    def assert_matches(self, accounting) -> None:
        maps = accounting.maps
        folded = {}
        for host in maps.hosts():
            for target, element in maps.map_for(host).items():
                folded[(host, target)] = [
                    element.closed,
                    element.open_since,
                    element.version,
                ]
        assert folded == self.windows


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
            reference.assert_matches(accounting)
            reads += 1
            if rng.random() < 0.3:
                executor.ea.interface.report()

    executor.run(step_hook)
    reference.assert_matches(accounting)
    assert reads > 0
    interleaved = executor.ea.interface.report()

    untouched = ScenarioExecutor(scenario)
    untouched.run()
    assert untouched.ea.accounting._edges, "nothing was left to fold"
    assert untouched.ea.interface.report() == interleaved


def test_a_read_folds_only_the_new_edges():
    executor = ScenarioExecutor(generate_scenario(7, ops=200))
    accounting = executor.ea.accounting
    executor.run()
    assert accounting._edges

    def windows():
        maps = accounting.maps
        return {
            (host, target): (list(element.closed), element.open_since, element.version)
            for host in maps.hosts()
            for target, element in maps.map_for(host).items()
        }

    folded = windows()
    assert folded
    assert not accounting._edges
    assert windows() == folded
