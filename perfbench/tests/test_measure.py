"""Unit tests of the benchmark's own arithmetic and plumbing.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import math
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402


# -- normalisation -----------------------------------------------------------
def test_scale_factor_is_reference_over_mean_bracket():
    assert measure.scale_factor(10.0, 20.0, 20.0) == 0.5
    assert measure.scale_factor(10.0, 10.0, 30.0) == 0.5
    assert measure.scale_factor(12.0, 12.0, 12.0) == 1.0
    assert measure.scale_factor(10.0, 5.0, 5.0) == 2.0


@pytest.mark.parametrize("readings", [(0.0, 1.0), (1.0, -1.0)])
def test_scale_factor_rejects_non_positive_readings(readings):
    with pytest.raises(ValueError):
        measure.scale_factor(10.0, *readings)


def test_clock_brackets_each_slice_with_shared_readings():
    readings = iter([10.0, 20.0, 40.0, 40.0, 8.0])
    clock = measure.Clock(yard=lambda: next(readings), y_ref=10.0)
    assert clock.close() == pytest.approx(10.0 / 15.0)  # 10 then 20
    assert clock.close() == pytest.approx(10.0 / 30.0)  # 20 then 40
    clock.restart()  # untimed work in between: the next slice starts at 40
    assert clock.close() == pytest.approx(10.0 / 24.0)  # 40 then 8
    assert clock.readings == [10.0, 20.0, 40.0, 40.0, 8.0]


def test_samples_scale_latencies_and_busy_time_per_slice():
    samples = measure.Samples()
    samples.add_slice([10.0, 30.0], busy_s=0.04, factor=0.5)
    samples.add_slice([20.0], busy_s=0.02, factor=2.0)
    assert samples.latency_ms == [5.0, 15.0, 40.0]
    assert samples.raw_latency_ms == [10.0, 30.0, 20.0]
    assert samples.busy_s == pytest.approx(0.02 + 0.04)
    assert samples.raw_busy_s == pytest.approx(0.06)
    assert samples.ops == 3


def test_end_to_end_reports_normalised_and_wall_twins():
    samples = measure.Samples()
    samples.add_slice([float(v) for v in range(1, 201)], busy_s=2.0, factor=0.5)
    e2e = samples.end_to_end([3.0, 1.0, 2.0], [6.0, 2.0, 4.0])
    assert e2e["throughput_ops_s"] == pytest.approx(200 / 1.0)
    assert e2e["wall.throughput_ops_s"] == pytest.approx(200 / 2.0)
    assert e2e["p50_ms"] == pytest.approx(0.5 * 100.5)
    assert e2e["wall.p90_ms"] == pytest.approx(2 * e2e["p90_ms"])
    assert e2e["setup_s"] == 2.0 and e2e["wall.setup_s"] == 4.0


def test_windowed_metrics_are_medians_over_full_windows():
    samples = measure.Samples(window_ops=100)
    # Three full windows at 1, 2 and 30 ms per op, then a short one.
    for per_op_ms in (1.0, 2.0, 30.0):
        samples.add_slice([per_op_ms] * 60, busy_s=0.06 * per_op_ms, factor=1.0)
        samples.add_slice([per_op_ms] * 60, busy_s=0.06 * per_op_ms, factor=1.0)
    samples.add_slice([500.0] * 50, busy_s=25.0, factor=1.0)
    assert samples.window_starts == [0, 120, 240, 360]
    e2e = samples.end_to_end([1.0], [1.0])
    # The disturbed window and the short tail do not move the medians.
    assert e2e["throughput_ops_s"] == pytest.approx(500.0)
    assert e2e["p50_ms"] == 2.0 and e2e["p90_ms"] == 2.0
    assert samples.ops == 410 and samples.busy_s == pytest.approx(0.12 + 0.24 + 3.6 + 25.0)


def test_windowed_metrics_need_one_full_window():
    samples = measure.Samples(window_ops=100)
    samples.add_slice([1.0] * 99, busy_s=0.1, factor=1.0)
    with pytest.raises(measure.TooFewSamples, match="window"):
        samples.end_to_end([1.0], [1.0])


def test_timed_setups_scales_each_step_and_closes_earlier_builds():
    events = []

    class Workload:
        def build(self):
            events.append("build")
            yield
            yield

        def close(self):
            events.append("close")

    readings = iter([10.0] + [10.0, 20.0, 40.0, 40.0] * 3)
    clock = measure.Clock(yard=lambda: next(readings), y_ref=20.0)
    normalised, raw = measure.timed_setups(Workload(), 3, clock)
    assert events == ["build", "close", "build", "close", "build"]
    assert len(normalised) == len(raw) == 3
    # Each build's three steps are scaled by their own brackets:
    # (10,20) -> 20/15, (20,40) -> 20/30, (40,40) -> 20/40.
    assert all(0 < n < raw_s * 20 / 15 for n, raw_s in zip(normalised, raw))


# -- percentiles ---------------------------------------------------------------
def test_percentile_interpolates_between_order_statistics():
    values = list(range(1, 101))  # 1..100
    random.Random(3).shuffle(values)
    assert measure.percentile(values, 50) == pytest.approx(50.5)
    assert measure.percentile(values, 90) == pytest.approx(90.1)


def test_percentile_needs_ten_samples_beyond():
    assert measure.percentile([1.0] * 100, 90) == 1.0  # exactly 10 beyond
    with pytest.raises(measure.TooFewSamples, match="beyond"):
        measure.percentile([1.0] * 99, 90)  # 9 beyond
    with pytest.raises(measure.TooFewSamples, match="beyond"):
        measure.percentile([1.0] * 1000, 99.5)  # 5 beyond
    assert measure.percentile([1.0] * 1000, 99) == 1.0


@pytest.mark.parametrize("q", [0, 100, -1, 101])
def test_percentile_rejects_out_of_range(q):
    with pytest.raises(ValueError):
        measure.percentile([1.0] * 1000, q)


def test_spread_is_iqr_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    assert measure.spread(values) == pytest.approx((q3 - q1) / mid)


def test_yardstick_is_positive_and_leaves_gc_as_found():
    import gc

    assert gc.isenabled()
    assert measure.yardstick() > 0
    assert gc.isenabled()


# -- tracing ---------------------------------------------------------------------
def test_self_time_subtracts_children_and_slices_scale_spans():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("op"):
        with tracer.span("child"):
            pass
        with tracer.span("child"):
            pass
    tracer.scale_pending(2.0)
    op, first, second = tracer.spans
    assert first.parent == op.id and second.parent == op.id
    assert op.norm_s == pytest.approx(2.0 * op.raw_s)
    own = tracer.self_times_s()
    assert own[op.id] == pytest.approx(op.norm_s - first.norm_s - second.norm_s)
    assert len(tracer.durations_ms("child")) == 2


def test_disabled_tracer_records_nothing(tmp_path):
    tracer = Tracer()
    with tracer.span("op") as span:
        assert span is None
    assert tracer.spans == []
    tracer.enabled = True
    with tracer.span("op"):
        pass
    tracer.scale_pending(1.0)
    path = tmp_path / "trace.json"
    tracer.write_chrome(path, {"workload": "test"})
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["op"] and events[0]["ph"] == "X"


# -- the contract ----------------------------------------------------------------
def test_benchmark_json_matches_the_metric_registries():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "profile", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# -- determinism of the generated workloads -----------------------------------------
def test_profile_stream_is_seeded_and_stratified():
    from workload_profile import BLOCK, FIG9_EVERY, MAX_OPS, MIN_OPS, ProfileWorkload

    first = ProfileWorkload(5, Tracer(), inject=False)
    again = ProfileWorkload(5, Tracer(), inject=False)
    other = ProfileWorkload(6, Tracer(), inject=False)
    specs = [first.spec(i) for i in range(3 * FIG9_EVERY * BLOCK)]
    assert specs == [again.spec(i) for i in range(len(specs))]
    assert specs != [other.spec(i) for i in range(len(specs))]
    assert sum(s[0] == "fig9" for s in specs) == len(specs) // FIG9_EVERY
    generated = [s[2] for s in specs if s[0] == "gen"]
    # Each block draws exactly one size from each of its BLOCK strata.
    for stratum, size in enumerate(sorted(generated[:BLOCK])):
        low = MIN_OPS * (MAX_OPS / MIN_OPS) ** (stratum / BLOCK)
        high = MIN_OPS * (MAX_OPS / MIN_OPS) ** ((stratum + 1) / BLOCK)
        assert math.floor(low) <= size <= math.ceil(high)
    assert MIN_OPS <= min(generated) and max(generated) <= MAX_OPS


def test_serve_stream_has_an_exact_one_off_share(tmp_path):
    from workload_serve import BLOCK, ONE_OFFS, ServeWorkload

    workload = ServeWorkload(9, Tracer(), False, tmp_path, ROOT)
    workload.captured_at = {f"s{j:02d}": 100.0 + j for j in range(32)}
    workload.hot = [
        {"session": name, "backend": "energy", "start": 0.0} for name in workload.captured_at
    ]
    split = [0, 0]
    hot_seen = []
    stream = workload._stream(random.Random(1))
    for _ in range(BLOCK * 50):
        query, one_off = next(stream)
        split[one_off] += 1
        if not one_off:
            hot_seen.append(query["session"])
    assert split == [(BLOCK - ONE_OFFS) * 50, ONE_OFFS * 50]
    # The hot set is dealt from a deck: every key once per round.
    assert sorted(hot_seen[:32]) == sorted(workload.captured_at)
    starts = set()
    for _ in range(200):
        starts.add(workload._one_off("s00", "energy", 0.5)["start"])
        workload.next_id += 1
    assert len(starts) == 200  # one-off windows never repeat
