"""Property tests: merge() is associative/commutative; payloads are
order-independent; chaos-armed aggregates degrade by *naming* sessions.

They pin the aggregation contract: shuffled partial and ingest orders
yield byte-identical ``repro.aggregate/1`` payloads, and a session
whose dispatch keeps failing produces ``partial=True`` with the exact
missing-session list — never a silently wrong total.
"""

import functools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregate import (
    AggregateRequest,
    GroupedPartial,
    HistogramPartial,
    empty_partial,
    merge_partials,
)
from repro.faults import FaultPlan, FaultSpec, activate
from repro.offline import capture_trace
from repro.serve import ProfilingService, ServiceConfig
from repro.workloads import ALL_ATTACKS, run_scene1

GROUPS = ("alpha", "beta", "gamma", "delta")


@st.composite
def grouped_partials(draw, max_sessions=6):
    """A list of disjoint-session GroupedPartials."""
    count = draw(st.integers(min_value=1, max_value=max_sessions))
    values = st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    )
    partials = []
    for index in range(count):
        groups = draw(
            st.dictionaries(st.sampled_from(GROUPS), values, max_size=len(GROUPS))
        )
        partials.append(GroupedPartial.for_session(f"s{index:02d}", groups))
    return partials


@st.composite
def histogram_partials(draw, bins=8, max_sessions=5):
    count = draw(st.integers(min_value=1, max_value=max_sessions))
    values = st.floats(
        min_value=-10.0, max_value=100.0, allow_nan=False, allow_infinity=False
    )
    partials = []
    for index in range(count):
        groups = draw(
            st.dictionaries(st.sampled_from(GROUPS), values, max_size=len(GROUPS))
        )
        partials.append(
            HistogramPartial.for_session(
                f"s{index:02d}", groups, bins=bins, bin_width=1.0
            )
        )
    return partials


class TestMergeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(grouped_partials(max_sessions=3), st.randoms(use_true_random=False))
    def test_grouped_merge_commutes(self, partials, rng):
        shuffled = list(partials)
        rng.shuffle(shuffled)
        request = AggregateRequest(backend="energy")
        forward = merge_partials(partials, request)
        backward = merge_partials(shuffled, request)
        assert forward.to_dict() == backward.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(grouped_partials(max_sessions=3))
    def test_grouped_merge_is_associative(self, partials):
        while len(partials) < 3:
            partials = partials + [
                GroupedPartial.for_session(f"pad{len(partials)}", {"alpha": 1.0})
            ]
        a, b, c = partials[0], partials[1], partials[2]
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.to_dict() == right.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(grouped_partials(), st.randoms(use_true_random=False))
    def test_shuffled_orders_finalize_byte_identical(self, partials, rng):
        """The headline guarantee: ANY merge order -> identical bytes."""
        request = AggregateRequest(backend="energy", op="mean")
        reference = json.dumps(
            merge_partials(partials, request).finalize(request), sort_keys=True
        )
        for _ in range(4):
            shuffled = list(partials)
            rng.shuffle(shuffled)
            merged = functools.reduce(
                lambda x, y: x.merge(y), shuffled, empty_partial(request)
            )
            assert json.dumps(merged.finalize(request), sort_keys=True) == reference

    @settings(max_examples=60, deadline=None)
    @given(histogram_partials(), st.randoms(use_true_random=False))
    def test_histogram_orders_byte_identical(self, partials, rng):
        request = AggregateRequest(backend="energy", op="histogram", bins=8)
        reference = json.dumps(
            merge_partials(partials, request).finalize(request), sort_keys=True
        )
        shuffled = list(partials)
        rng.shuffle(shuffled)
        merged = merge_partials(shuffled, request)
        assert json.dumps(merged.finalize(request), sort_keys=True) == reference

    @settings(max_examples=40, deadline=None)
    @given(grouped_partials(max_sessions=4))
    def test_empty_partial_is_left_and_right_identity(self, partials):
        request = AggregateRequest(backend="energy")
        merged = merge_partials(partials, request)
        identity = empty_partial(request)
        assert identity.merge(merged).to_dict() == merged.to_dict()
        assert merged.merge(identity).to_dict() == merged.to_dict()


@pytest.fixture(scope="module")
def chaos_fleet():
    """>= 8 sessions, attack workloads round-robin plus one scene."""
    svc = ProfilingService(ServiceConfig(telemetry=False))
    attacks = list(ALL_ATTACKS.values())
    runs = [run_scene1()] + [
        attacks[i % len(attacks)](duration=30.0) for i in range(7)
    ]
    for index, run in enumerate(runs):
        svc.ingest_trace(
            f"fleet-{index:02d}", capture_trace(run.system, run.eandroid), "test"
        )
    assert len(svc.sessions) >= 8
    return svc


class TestChaosDegradation:
    def test_killed_shard_names_exactly_the_missing_sessions(self, chaos_fleet):
        """One failed session dispatch -> partial=True + names."""
        request = AggregateRequest(backend="eandroid", op="sum")
        baseline = chaos_fleet.aggregate(request).payload
        # max_injections=3 exhausts the 3-attempt retry budget on the
        # first dispatched session (sorted order), then runs dry.
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    site="aggregate.dispatch",
                    kind="io-error",
                    probability=1.0,
                    max_injections=3,
                )
            ]
        )
        with activate(plan, seed=7):
            degraded = chaos_fleet.aggregate(request)
        payload = degraded.payload
        assert payload["partial"] is True
        assert payload["missing_sessions"] == ["fleet-00"]
        assert payload["sessions"] == [f"fleet-{i:02d}" for i in range(1, 8)]
        assert "fleet-00" in payload["errors"]
        # Never a silently wrong total: the degraded groups are the
        # baseline minus exactly the named session's contribution.
        full = baseline["result"]["groups"]
        partial_groups = payload["result"]["groups"]
        assert all(partial_groups[g] <= full[g] + 1e-9 for g in partial_groups)
        assert sum(partial_groups.values()) < sum(full.values())

    def test_retryable_faults_recover_byte_identical(self, chaos_fleet):
        """Faults within the retry budget leave no trace in the bytes."""
        request = AggregateRequest(backend="eandroid", op="topk", k=5)
        clean = json.dumps(chaos_fleet.aggregate(request).payload, sort_keys=True)
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    site="aggregate.dispatch",
                    kind="io-error",
                    probability=1.0,
                    max_injections=2,
                ),
                FaultSpec(
                    site="aggregate.merge",
                    kind="io-error",
                    probability=0.5,
                    max_injections=2,
                ),
            ]
        )
        with activate(plan, seed=7):
            armed = chaos_fleet.aggregate(request)
        assert armed.ok and not armed.partial
        assert json.dumps(armed.payload, sort_keys=True) == clean

    def test_merge_fault_drops_one_named_partial(self, chaos_fleet):
        request = AggregateRequest(backend="eandroid", op="sum")
        plan = FaultPlan(
            specs=[
                FaultSpec(
                    site="aggregate.merge",
                    kind="io-error",
                    probability=1.0,
                    max_injections=3,
                )
            ]
        )
        with activate(plan, seed=11):
            degraded = chaos_fleet.aggregate(request)
        payload = degraded.payload
        assert payload["partial"] is True
        assert len(payload["missing_sessions"]) == 1
        assert set(payload["missing_sessions"]) | set(payload["sessions"]) == {
            f"fleet-{i:02d}" for i in range(8)
        }

    def test_shard_order_independence_end_to_end(self, chaos_fleet):
        """Shuffled ingest orders must not move the payload bytes."""
        request = AggregateRequest(backend="eandroid", op="sum", group_by="category")
        reference = json.dumps(chaos_fleet.aggregate(request).payload, sort_keys=True)
        for seed in (2, 3):
            svc = ProfilingService(ServiceConfig(telemetry=False))
            names = list(chaos_fleet.sessions)
            random.Random(seed).shuffle(names)
            for name in names:
                svc.ingest_trace(name, chaos_fleet.sessions[name].trace, "test")
            assert (
                json.dumps(svc.aggregate(request).payload, sort_keys=True) == reference
            )
