"""Attack-window events are built only when something subscribes to ATTACK.

Without an ATTACK subscriber the accounting module only ticks the bus
counter, so ``bus.stats_dict()`` must read exactly as when every event
is published; with a recorder attached, the Chrome-trace export must
still carry one span per attack link.
"""

import pytest

import repro.core.accounting as accounting_module
from repro.check.generator import generate_scenario
from repro.check.runner import ScenarioExecutor
from repro.telemetry import Category, capture, to_chrome_trace
from repro.workloads import ALL_ATTACKS, run_scene1, run_scene2

FIG9_RUNS = sorted(ALL_ATTACKS.items()) + [("scene1", run_scene1), ("scene2", run_scene2)]


def _us(seconds):
    return int(round(seconds * 1_000_000))


def _attack_spans(doc):
    return sorted(
        (e["args"]["link_id"], e["name"], e["ts"], e["dur"])
        for e in doc["traceEvents"]
        if e["ph"] == "X" and e["cat"] == "attack"
    )


@pytest.mark.parametrize("name,runner", FIG9_RUNS, ids=[name for name, _ in FIG9_RUNS])
class TestFig9Runs:
    def test_counters_match_with_and_without_a_recorder(self, name, runner):
        plain = runner()
        with capture() as recorder:
            recorded = runner()
        assert not plain.system.telemetry.wants(Category.ATTACK)
        assert recorder.events  # the recorder really was subscribed
        assert plain.system.telemetry.stats_dict() == recorded.system.telemetry.stats_dict()
        links = plain.eandroid.accounting.attack_log()
        ends = sum(1 for link in links if not link.alive)
        attack = plain.system.telemetry.stats_dict()["by_category"]["attack"]
        assert attack["count"] == len(links) + ends

    def test_chrome_trace_has_one_span_per_link(self, name, runner):
        with capture() as recorder:
            run = runner()
        now = run.system.now
        doc = to_chrome_trace(recorder.events, end_time=now)
        expected = sorted(
            (
                link.link_id,
                f"attack:{link.kind.value}",
                _us(link.begin_time),
                max(0, _us(link.end_time if link.end_time is not None else now)
                    - _us(link.begin_time)),
            )
            for link in run.eandroid.accounting.attack_log()
        )
        assert expected
        assert _attack_spans(doc) == expected


def test_no_attack_event_is_built_without_a_subscriber(monkeypatch):
    def refuse(**kwargs):
        raise AssertionError("attack event built with no ATTACK subscriber")

    monkeypatch.setattr(accounting_module, "AttackWindowBeginEvent", refuse)
    monkeypatch.setattr(accounting_module, "AttackWindowEndEvent", refuse)
    executor = ScenarioExecutor(generate_scenario(11, ops=200))
    executor.run()
    links = executor.ea.accounting.attack_log()
    ends = sum(1 for link in links if not link.alive)
    assert ends > 0
    attack = executor.system.telemetry.stats_dict()["by_category"]["attack"]
    assert attack["count"] == len(links) + ends
