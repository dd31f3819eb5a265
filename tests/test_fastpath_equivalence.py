"""Fast path == naive recompute, property-tested at every layer.

Prefix-sum traces and the meter's per-owner memo keep their original
implementations alive as ``naive_*`` twins.  These tests hold the pairs
equal — exact or within 1e-9 J — over hypothesis-generated traces, meter
histories, and the fuzz generator's full device scenarios (where the
shared ``fastpath_equivalence`` end oracle does the comparing).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import END_ORACLES, check_end
from repro.check.generator import generate_scenario
from repro.check.runner import run_scenario
from repro.power.meter import EnergyMeter
from repro.power.trace import PowerTrace
from repro.sim.kernel import Kernel

TOL = 1e-9

# (dt, power_mw) steps: strictly positive dt keeps appends ordered.
steps_st = st.lists(
    st.tuples(
        st.floats(min_value=1e-3, max_value=50.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
    ),
    min_size=0,
    max_size=40,
)
window_st = st.tuples(
    st.floats(min_value=-10.0, max_value=2500.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=2500.0, allow_nan=False),
)


def _build(steps):
    trace = PowerTrace()
    now = 0.0
    for dt, power in steps:
        now += dt
        trace.append(now, power)
    return trace, now


def _agree(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


class TestTraceEquivalence:
    @given(steps=steps_st, window=window_st)
    @settings(max_examples=200, deadline=None)
    def test_prefix_sum_equals_naive_walk(self, steps, window):
        trace, _ = _build(steps)
        start, span = window
        end = start + abs(span)
        assert _agree(trace.energy_j(start, end), trace.naive_energy_j(start, end))

    @given(steps=steps_st)
    @settings(max_examples=100, deadline=None)
    def test_window_additivity(self, steps):
        trace, horizon = _build(steps)
        end = horizon + 7.0
        mid = end / 2.0
        whole = trace.energy_j(0.0, end)
        split = trace.energy_j(0.0, mid) + trace.energy_j(mid, end)
        assert _agree(whole, split)

    def test_same_instant_overwrite_keeps_paths_equal(self):
        trace = PowerTrace()
        trace.append(0.0, 100.0)
        trace.append(1.0, 200.0)
        trace.append(1.0, 50.0)  # overwrite: last-write-wins
        assert _agree(trace.energy_j(0.0, 3.0), trace.naive_energy_j(0.0, 3.0))
        assert _agree(trace.energy_j(0.0, 3.0), (100.0 + 2 * 50.0) / 1000.0)


class TestMeterEquivalence:
    @given(
        script=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),  # owner
                st.sampled_from(["cpu", "radio", "gps"]),
                st.floats(min_value=0.0, max_value=900.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),  # dt
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_memoized_queries_equal_full_rescan(self, script):
        kernel = Kernel()
        meter = EnergyMeter(kernel)
        for owner, component, power, dt in script:
            meter.set_draw(owner, component, power)
            if dt:
                kernel.run_for(dt)
            # Query mid-history so the memo is populated and then
            # invalidated by later appends — the interesting path.
            fast = meter.energy_by_owner(0.0, kernel.now)
            naive = meter.naive_energy_by_owner(0.0, kernel.now)
            assert set(fast) == set(naive)
            for owner_id in naive:
                assert _agree(fast[owner_id], naive[owner_id])
        assert _agree(
            meter.total_energy_j(0.0, kernel.now),
            meter.naive_energy_j(start=0.0, end=kernel.now),
        )

    def test_repeated_window_hits_cache_with_equal_joules(self):
        kernel = Kernel()
        meter = EnergyMeter(kernel)
        meter.set_draw(7, "cpu", 300.0)
        kernel.run_for(10.0)
        first = meter.energy_by_owner(0.0, kernel.now)
        hits_before = meter.query_cache_stats["hits"]
        second = meter.energy_by_owner(0.0, kernel.now)
        assert meter.query_cache_stats["hits"] > hits_before
        assert first == second
        assert _agree(second[7], meter.naive_energy_by_owner(0.0, kernel.now)[7])


class TestScenarioEquivalence:
    def test_oracle_registered(self):
        assert "fastpath_equivalence" in END_ORACLES

    @pytest.mark.parametrize("seed", [1, 42, 1337])
    def test_fuzz_scenarios_hold_fastpath_oracle(self, seed):
        scenario = generate_scenario(seed, ops=30)
        report = run_scenario(scenario, stride=5, metamorphic=False)
        assert report.passed, [str(v) for v in report.violations]

    def test_oracle_on_attack_device(self):
        from repro.workloads import ALL_ATTACKS

        run = ALL_ATTACKS["attack1"](60.0)
        run.eandroid.report(run.start, run.end)  # warm the meter's memo
        violations = check_end(
            run.system, run.eandroid, oracles=["fastpath_equivalence"]
        )
        assert violations == []
