"""Collateral maps stay equal to live-link reachability after every op.

The map layer re-syncs only the hosts a link change can affect; the
``map_link_consistency`` oracle recomputes reachability for every host
from the raw link lists.  These tests run that oracle after every
framework op of generated scenarios (several seeds and sizes, up to six
apps so attack chains and cycles form) and of hand-written Fig. 6/7
style chains and cycles broken up by ``force_stop``.
"""

import pytest

from repro.check.generator import generate_scenario
from repro.check.oracles import map_link_consistency
from repro.check.runner import ScenarioExecutor
from repro.check.scenario import Op, Scenario


def _run_checked(scenario):
    """Run ``scenario`` with the oracle after every op; returns stats."""
    executor = ScenarioExecutor(scenario)
    graph = executor.ea.accounting.graph
    longest = [0]

    def step(index, op):
        violations = map_link_consistency(executor.system, executor.ea)
        assert not violations, f"op {index} {op.kind}: {violations[0]}"
        for host in graph.hosts():
            longest[0] = max(longest[0], len(graph.reachable_from(host)))

    executor.run(step)
    return executor, longest[0]


@pytest.mark.parametrize(
    "seed,ops,packages",
    [
        (1, 50, 3),
        (2, 50, 6),
        (3, 200, 4),
        (4, 200, 6),
        (5, 400, 6),
        (6, 800, 3),
        (7, 800, 6),
    ],
)
def test_generated_scenarios(seed, ops, packages):
    scenario = generate_scenario(seed, ops=ops, packages=packages)
    executor, longest = _run_checked(scenario)
    assert executor.ea.accounting.attack_log()  # links did open and close
    if packages >= 4:
        assert longest >= 2  # at least one multi-hop chain formed


def _scripted(ops):
    packages = tuple(f"com.fuzz.app{i}" for i in range(4))
    return Scenario(seed=0, packages=packages, ops=ops)


def _bind(a, b):
    return Op("bind_service", {"caller": f"com.fuzz.app{a}", "target": f"com.fuzz.app{b}"})


def _advance(seconds=5.0):
    return Op("advance", {"seconds": seconds})


def test_chain_then_cycle_then_force_stop():
    """Fig. 7-style chain 0->1->2->3, closed into a cycle, then torn down."""
    ops = [Op("launch", {"package": "com.fuzz.app0"})]
    # Build the chain from its tail, so each new link extends the reach
    # of hosts that already exist (the back-propagation case).
    for a, b in ((2, 3), (1, 2), (0, 1)):
        ops += [_bind(a, b), _advance()]
    ops += [_bind(3, 0), _advance()]  # cycle: nobody charges itself
    ops += [
        Op("start_activity", {"caller": "com.fuzz.app1", "target": "com.fuzz.app3"}),
        _advance(),
        Op("force_stop", {"package": "com.fuzz.app2"}),  # breaks the chain mid-way
        _advance(),
        _bind(2, 3),
        _advance(),
        Op("unbind_service", {"index": 0}),
        _advance(),
        Op("force_stop", {"package": "com.fuzz.app0"}),
        _advance(),
    ]
    executor, longest = _run_checked(_scripted(ops))
    assert longest >= 3


def test_multi_collateral_fan_in():
    """Fig. 6-style: several drivers share targets; ends close only theirs."""
    ops = [Op("launch", {"package": "com.fuzz.app3"})]
    for a in (0, 1, 2):
        ops += [_bind(a, 3), _advance(2.0)]
    ops += [_bind(3, 1), _advance(2.0), _bind(1, 2), _advance(2.0)]
    for index in (2, 0, 1):
        ops += [Op("unbind_service", {"index": index}), _advance(2.0)]
    ops += [Op("force_stop", {"package": "com.fuzz.app3"}), _advance(2.0)]
    _run_checked(_scripted(ops))
