"""Live and offline E-Android read one Algorithm 1.

The live accounting and the offline analyzer both clip a
:class:`~repro.core.links.LinkIndex` over the same links, so a captured
trace's charge windows equal the live maps exactly, key order included.
The joules need not be bit-equal: the live side integrates the meter's
traces and the offline side the trace's channels, and summation order
can differ in the last bits, so they are compared to ``rel=1e-12``.
"""

import pytest

from repro.check.generator import generate_scenario
from repro.check.runner import ScenarioExecutor
from repro.offline import OfflineAnalyzer, capture_trace
from repro.workloads import ALL_ATTACKS, run_scene1, run_scene2

RUNS = {name: runner for name, runner in sorted(ALL_ATTACKS.items())}
RUNS["scene1"] = run_scene1
RUNS["scene2"] = run_scene2

#: 40 generated scenarios, ten each of 50, 200, 800 and 1600 ops
SCENARIOS = [(2600 + i, (50, 200, 800, 1600)[i % 4]) for i in range(40)]


def assert_live_equals_offline(system, eandroid):
    accounting = eandroid.accounting
    analyzer = OfflineAnalyzer(capture_trace(system, eandroid))
    offline = analyzer._link_windows(0.0, analyzer.trace.captured_at)
    live = {host: accounting.map_for(host) for host in accounting.hosts()}
    assert sorted(live) == sorted(offline)
    for host, windows in live.items():
        assert list(windows.items()) == list(offline[host].items())
        breakdown = accounting.collateral_breakdown(host)
        expected = analyzer.collateral_breakdown(host)
        assert list(breakdown) == list(expected)
        for target, joules in breakdown.items():
            assert joules == pytest.approx(expected[target], rel=1e-12)
    return live


@pytest.mark.parametrize("name", sorted(RUNS))
def test_named_runs(name):
    run = RUNS[name]()
    assert assert_live_equals_offline(run.system, run.eandroid), "nothing charged"


@pytest.mark.parametrize("seed,ops", SCENARIOS)
def test_generated_scenarios(seed, ops):
    executor = ScenarioExecutor(generate_scenario(seed, ops=ops))
    executor.run()
    assert_live_equals_offline(executor.system, executor.ea)
