"""The benchmark catalogue.

Micro benchmarks probe the energy-query fast paths this PR's refactor
introduced (prefix-sum traces, memoized per-owner integration,
incremental profiler reports); macro benchmarks time paper experiments
and the fuzz harness end to end, pinning the paper's "negligible
overhead" story (Table I / Fig. 10-11) to machine-checked numbers.

Every benchmark is deterministic: fixed seeds, fixed workloads, no
wall-clock dependencies beyond the timing itself.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from .registry import BenchMeasurement, BenchSpec, register_bench

_QUERY_WINDOWS = 20  # windows per meter-query batch


def _query_windows(horizon: float, count: int = _QUERY_WINDOWS) -> List[Tuple[float, float]]:
    """Deterministic (start, end) windows spread over [0, horizon)."""
    windows = []
    for i in range(count):
        start = (i * 37 % 101) / 101.0 * horizon * 0.8
        end = start + (i * 53 % 89 + 1) / 89.0 * (horizon - start)
        windows.append((start, end))
    return windows


def _build_trace(breakpoints: int):
    """A single channel with ``breakpoints`` draw changes."""
    from ..power.trace import PowerTrace

    trace = PowerTrace()
    for i in range(breakpoints):
        trace.append(float(i), float((i * 7919) % 1000 + 1))
    return trace


def _bench_meter_query(breakpoints: int, repeats: int) -> BenchMeasurement:
    """Time a batch of window-energy queries: prefix-sum vs naive walk."""
    trace = _build_trace(breakpoints)
    windows = _query_windows(float(breakpoints))
    times: List[float] = []
    naive_times: List[float] = []
    fast_total = naive_total = 0.0
    for _ in range(repeats):
        started = time.perf_counter()
        fast_total = sum(trace.energy_j(s, e) for s, e in windows)
        times.append(time.perf_counter() - started)
        started = time.perf_counter()
        naive_total = sum(trace.naive_energy_j(s, e) for s, e in windows)
        naive_times.append(time.perf_counter() - started)
    median_fast = sorted(times)[len(times) // 2]
    median_naive = sorted(naive_times)[len(naive_times) // 2]
    return BenchMeasurement(
        times_s=times,
        metrics={
            "breakpoints": breakpoints,
            "queries": len(windows),
            "naive_median_s": median_naive,
            "speedup_vs_naive": (
                median_naive / median_fast if median_fast > 0 else float("inf")
            ),
            "energy_delta_j": abs(fast_total - naive_total),
        },
    )


def bench_meter_query_1k(repeats: int) -> BenchMeasurement:
    return _bench_meter_query(1_000, repeats)


def bench_meter_query_50k(repeats: int) -> BenchMeasurement:
    return _bench_meter_query(50_000, repeats)


def bench_meter_by_owner(repeats: int) -> BenchMeasurement:
    """Repeated per-owner reports on a many-channel meter (memo path)."""
    from ..power.meter import EnergyMeter
    from ..sim.kernel import Kernel

    kernel = Kernel()
    meter = EnergyMeter(kernel)
    for step in range(200):
        for owner in range(30):
            meter.set_draw(owner, "cpu" if step % 2 else "radio",
                           float((owner * step) % 500 + 1))
        kernel.run_for(1.0)
    end = kernel.now
    times: List[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(50):
            meter.energy_by_owner(0.0, end)
            meter.total_energy_j(0.0, end)
        times.append(time.perf_counter() - started)
    return BenchMeasurement(
        times_s=times,
        metrics={
            "owners": 30,
            "channels": len(meter.channels()),
            "query_cache": dict(meter.query_cache_stats),
        },
    )


def bench_kernel_dispatch(repeats: int) -> BenchMeasurement:
    """Raw event-queue throughput: schedule + dispatch a timer storm."""
    from ..sim.kernel import Kernel

    events = 20_000
    times: List[float] = []
    for _ in range(repeats):
        kernel = Kernel()
        counter = [0]

        def tick() -> None:
            counter[0] += 1

        started = time.perf_counter()
        for i in range(events):
            kernel.call_later(float(i % 997) / 10.0, tick)
        kernel.run_for(120.0)
        times.append(time.perf_counter() - started)
        assert counter[0] == events
    return BenchMeasurement(times_s=times, metrics={"events": events})


def _bench_experiment(name: str, repeats: int, **params: Any) -> BenchMeasurement:
    """Time one registered experiment end to end (fresh device each run)."""
    from ..experiments.registry import get_spec, load_registry

    load_registry()
    spec = get_spec(name)
    times: List[float] = []
    claim_holds = True
    for _ in range(repeats):
        started = time.perf_counter()
        result = spec.run(**params)
        times.append(time.perf_counter() - started)
        claim_holds = claim_holds and bool(result.claim_holds)
    return BenchMeasurement(
        times_s=times, metrics={"experiment": name, "claim_holds": claim_holds}
    )


def bench_fig1_end_to_end(repeats: int) -> BenchMeasurement:
    return _bench_experiment("fig1", repeats)


def bench_fig9_end_to_end(repeats: int) -> BenchMeasurement:
    return _bench_experiment("fig9", repeats)


def bench_fuzz_oracle_step(repeats: int) -> BenchMeasurement:
    """Per-op cost of the conformance harness (step oracles every op)."""
    from ..check.generator import generate_scenario
    from ..check.runner import run_scenario

    scenario = generate_scenario(1234, ops=30)
    times: List[float] = []
    passed = True
    for _ in range(repeats):
        started = time.perf_counter()
        report = run_scenario(scenario, stride=1, metamorphic=False)
        times.append(time.perf_counter() - started)
        passed = passed and report.passed
    ops = len(scenario.ops)
    median = sorted(times)[len(times) // 2]
    return BenchMeasurement(
        times_s=times,
        metrics={
            "ops": ops,
            "passed": passed,
            "ops_per_s": ops / median if median > 0 else float("inf"),
        },
    )


def bench_eandroid_hook(repeats: int) -> BenchMeasurement:
    """Table I's hook cost: one 800-op scenario with E-Android attached.

    Each repeat runs the same generated script twice on fresh devices,
    detached and then attached; ``times_s`` holds the attached runs and
    the detached twin's median rides along with the overhead percent.
    The run only logs links; ``first_read_ms`` is the median time of the
    first live read after it (``accounting.hosts()``), which sweeps the
    whole log into the link index (Algorithm 1), timed outside
    ``times_s``.
    """
    from ..check.generator import generate_scenario
    from ..check.runner import ScenarioExecutor

    scenario = generate_scenario(1600, ops=800)
    times: List[float] = []
    detached_times: List[float] = []
    read_times: List[float] = []
    links = 0
    for _ in range(repeats):
        for attach, samples in ((False, detached_times), (True, times)):
            executor = ScenarioExecutor(scenario, attach=attach)
            started = time.perf_counter()
            executor.run()
            samples.append(time.perf_counter() - started)
            if attach:
                accounting = executor.ea.accounting
                started = time.perf_counter()
                accounting.hosts()  # this read sweeps the run's links
                read_times.append(time.perf_counter() - started)
                links = len(accounting.attack_log())
    median = sorted(times)[len(times) // 2]
    median_detached = sorted(detached_times)[len(detached_times) // 2]
    return BenchMeasurement(
        times_s=times,
        metrics={
            "ops": len(scenario.ops),
            "links": links,
            "detached_median_s": median_detached,
            "hook_overhead_pct": 100.0 * (median - median_detached) / median_detached,
            "first_read_ms": 1000.0 * sorted(read_times)[len(read_times) // 2],
        },
    )


def bench_offline_reports(repeats: int) -> BenchMeasurement:
    """The offline analyzer: all five report backends over one trace.

    The trace is captured once from the ``eandroid_hook`` scenario (800
    generated ops, E-Android attached).  Each repeat builds a fresh
    :class:`~repro.offline.OfflineAnalyzer` over it and renders every
    backend's ``repro.report/1`` payload, as a cold served query does.
    """
    from ..check.generator import generate_scenario
    from ..check.runner import ScenarioExecutor
    from ..offline import OfflineAnalyzer, capture_trace
    from ..reports.request import BACKENDS, ReportRequest

    executor = ScenarioExecutor(generate_scenario(1600, ops=800))
    executor.run()
    trace = capture_trace(executor.system, executor.ea)
    requests = [ReportRequest(backend=backend) for backend in BACKENDS]
    times: List[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        analyzer = OfflineAnalyzer(trace)
        for request in requests:
            analyzer.describe(request).to_dict()
        times.append(time.perf_counter() - started)
    median = sorted(times)[len(times) // 2]
    return BenchMeasurement(
        times_s=times,
        metrics={
            "backends": len(requests),
            "links": len(trace.links),
            "reports_per_s": len(requests) / median if median > 0 else float("inf"),
        },
    )


def bench_offline_windowed(repeats: int) -> BenchMeasurement:
    """The served-miss layer: windowed E-Android and collateral reports.

    One warm :class:`~repro.offline.OfflineAnalyzer` over the
    ``eandroid_hook`` scenario's trace answers a fixed set of windowed
    ``eandroid``/``collateral`` requests, as a session's analyzer
    answers cache misses; its link index is built before the timing.
    ``cold_first_query_ms`` is the best time, over the repeats, of a
    fresh analyzer's first ``eandroid`` request over the whole trace,
    which builds it: one such query is short enough that the median
    mostly shows the machine's noise.
    """
    from ..check.generator import generate_scenario
    from ..check.runner import ScenarioExecutor
    from ..offline import OfflineAnalyzer, capture_trace
    from ..reports.request import ReportRequest

    executor = ScenarioExecutor(generate_scenario(1600, ops=800))
    executor.run()
    trace = capture_trace(executor.system, executor.ea)
    requests = [
        ReportRequest(backend=backend, start=start, end=end)
        for start, end in _query_windows(trace.captured_at, count=40)
        for backend in ("eandroid", "collateral")
    ]
    cold = ReportRequest(backend="eandroid")
    analyzer = OfflineAnalyzer(trace)
    analyzer.describe(cold).to_dict()
    times: List[float] = []
    cold_times: List[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        for request in requests:
            analyzer.describe(request).to_dict()
        times.append(time.perf_counter() - started)
        started = time.perf_counter()
        OfflineAnalyzer(trace).describe(cold).to_dict()
        cold_times.append(time.perf_counter() - started)
    median = sorted(times)[len(times) // 2]
    return BenchMeasurement(
        times_s=times,
        metrics={
            "queries": len(requests),
            "links": len(trace.links),
            "us_per_query": 1e6 * median / len(requests),
            "cold_first_query_ms": 1000.0 * min(cold_times),
        },
    )


def _build_serve_service():
    """One in-process query service over a captured attack trace."""
    from ..offline import capture_trace
    from ..serve import ProfilingService, ServiceClient, ServiceConfig
    from ..workloads import ALL_ATTACKS

    run = ALL_ATTACKS["attack1"](60.0)
    service = ProfilingService(ServiceConfig(telemetry=False))
    service.ingest_trace("bench", capture_trace(run.system, run.eandroid), "bench")
    return service, ServiceClient(service)


def _serve_query_mix(client, count: int = 150):
    """A deterministic mixed-backend query batch against one session."""
    from ..reports import BACKENDS

    windows = _query_windows(60.0, count=(count + len(BACKENDS) - 1) // len(BACKENDS))
    queries = []
    for start, end in windows:
        for backend in BACKENDS:
            queries.extend(client.build("bench", backend, start=start, end=end))
    return queries[:count]


def bench_serve_throughput(repeats: int) -> BenchMeasurement:
    """Batch query throughput through the service (warm LRU after rep 1)."""
    service, client = _build_serve_service()
    queries = _serve_query_mix(client)
    times: List[float] = []
    answered = 0
    for _ in range(repeats):
        started = time.perf_counter()
        responses = [service.submit(query) for query in queries]
        times.append(time.perf_counter() - started)
        answered = sum(1 for r in responses if r.ok)
    median = sorted(times)[len(times) // 2]
    return BenchMeasurement(
        times_s=times,
        metrics={
            "queries": len(queries),
            "answered": answered,
            "qps": len(queries) / median if median > 0 else float("inf"),
            "cache_hit_rate": service.cache.hit_rate,
            "shed": service.stats.shed,
        },
    )


def bench_serve_latency(repeats: int) -> BenchMeasurement:
    """Per-query submit latency: cold (LRU cleared) vs warm (all hits)."""
    service, client = _build_serve_service()
    queries = _serve_query_mix(client, count=50)
    times: List[float] = []
    warm_times: List[float] = []
    for _ in range(repeats):
        service.cache.clear()
        started = time.perf_counter()
        for query in queries:
            service.submit(query)
        times.append(time.perf_counter() - started)
        started = time.perf_counter()
        for query in queries:
            service.submit(query)
        warm_times.append(time.perf_counter() - started)
    median_cold = sorted(times)[len(times) // 2]
    median_warm = sorted(warm_times)[len(warm_times) // 2]
    per_query = len(queries) or 1
    return BenchMeasurement(
        times_s=times,
        metrics={
            "queries": per_query,
            "cold_us_per_query": median_cold / per_query * 1e6,
            "warm_us_per_query": median_warm / per_query * 1e6,
            "warm_speedup": (
                median_cold / median_warm if median_warm > 0 else float("inf")
            ),
        },
    )


def bench_serve_net_throughput(repeats: int) -> BenchMeasurement:
    """Concurrent-client query throughput through the TCP front-end."""
    import asyncio

    from ..serve import AsyncServiceClient, NetConfig, NetServer

    service, client = _build_serve_service()
    queries = _serve_query_mix(client, count=100)
    clients = 4

    async def one_pass() -> int:
        server = NetServer(service, NetConfig(pool_workers=2))
        await server.start()
        host, port = server.address
        try:

            async def drive() -> int:
                async with AsyncServiceClient(host, port) as conn:
                    responses = await conn.submit_all(queries)
                return sum(1 for r in responses if r.ok)

            answered = sum(await asyncio.gather(*(drive() for _ in range(clients))))
        finally:
            await server.shutdown()
        return answered

    times: List[float] = []
    answered = 0
    for _ in range(repeats):
        started = time.perf_counter()
        answered = asyncio.run(one_pass())
        times.append(time.perf_counter() - started)
    median = sorted(times)[len(times) // 2]
    total = clients * len(queries)
    return BenchMeasurement(
        times_s=times,
        metrics={
            "clients": clients,
            "queries": total,
            "answered": answered,
            "qps": total / median if median > 0 else float("inf"),
        },
    )


def bench_serve_net_latency(repeats: int) -> BenchMeasurement:
    """Single-client round-trip latency over localhost TCP.

    ``times_s`` times a pass over a warm LRU (all hits); each repeat
    then clears the LRU and times one cold pass (all misses).
    """
    import asyncio

    from ..serve import AsyncServiceClient, NetConfig, NetServer

    service, client = _build_serve_service()
    queries = _serve_query_mix(client, count=50)

    async def timed_pass(conn) -> float:
        started = time.perf_counter()
        for query in queries:
            await conn.submit(query)
        return time.perf_counter() - started

    async def one_pass() -> Tuple[float, float]:
        server = NetServer(service, NetConfig(pool_workers=1))
        await server.start()
        host, port = server.address
        try:
            async with AsyncServiceClient(host, port) as conn:
                for query in queries:  # warm the LRU once
                    await conn.submit(query)
                warm = await timed_pass(conn)
                service.cache.clear()
                cold = await timed_pass(conn)
        finally:
            await server.shutdown()
        return warm, cold

    times: List[float] = []
    cold_times: List[float] = []
    for _ in range(repeats):
        warm, cold = asyncio.run(one_pass())
        times.append(warm)
        cold_times.append(cold)
    median = sorted(times)[len(times) // 2]
    median_cold = sorted(cold_times)[len(cold_times) // 2]
    per_query = len(queries) or 1
    return BenchMeasurement(
        times_s=times,
        metrics={
            "queries": per_query,
            "warm_us_per_query": median / per_query * 1e6,
            "cold_us_per_query": median_cold / per_query * 1e6,
        },
    )


def _build_device_trace(channels: int = 8, breakpoints: int = 5_000):
    """A deterministic many-channel DeviceTrace for codec benchmarks."""
    from ..offline.trace import ChannelTrace, DeviceTrace

    trace = DeviceTrace(
        captured_at=breakpoints * 0.01,
        battery_capacity_j=40_000.0,
        apps={10_000 + c: f"bench.app{c}" for c in range(channels)},
        system_uids=[1000],
        foreground=[(0.0, 10_000)],
    )
    for c in range(channels):
        trace.channels.append(
            ChannelTrace(
                owner=10_000 + c,
                component="cpu" if c % 2 else "radio",
                breakpoints=[
                    (i * 0.01, float((i * 7919 + c) % 1000 + 1) / 1000.0)
                    for i in range(breakpoints)
                ],
            )
        )
    return trace


def bench_store_encode(repeats: int) -> BenchMeasurement:
    """Binary trace-bin encode vs the JSON path, on a 40k-breakpoint trace."""
    from ..store import get_codec

    trace = _build_device_trace()
    bin_codec = get_codec("trace-bin")
    json_codec = get_codec("trace-json")
    times: List[float] = []
    json_times: List[float] = []
    blob = json_blob = b""
    for _ in range(repeats):
        started = time.perf_counter()
        blob = bin_codec.encode(trace)
        times.append(time.perf_counter() - started)
        started = time.perf_counter()
        json_blob = json_codec.encode(trace)
        json_times.append(time.perf_counter() - started)
    breakpoints = sum(len(ch.breakpoints) for ch in trace.channels)
    return BenchMeasurement(
        times_s=times,
        metrics={
            "breakpoints": breakpoints,
            "binary_bytes": len(blob),
            "json_bytes": len(json_blob),
            "compaction_ratio": len(json_blob) / len(blob) if blob else 0.0,
            "json_encode_median_s": sorted(json_times)[len(json_times) // 2],
        },
    )


def bench_store_decode(repeats: int) -> BenchMeasurement:
    """Full binary decode vs JSON parse, plus the lazy windowed path."""
    from ..store import LazyBinaryTrace, get_codec

    trace = _build_device_trace()
    blob = get_codec("trace-bin").encode(trace)
    json_blob = get_codec("trace-json").encode(trace)
    owner, component = trace.channels[0].owner, trace.channels[0].component
    times: List[float] = []
    json_times: List[float] = []
    lazy_times: List[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        decoded = get_codec("trace-bin").decode(blob)
        times.append(time.perf_counter() - started)
        started = time.perf_counter()
        get_codec("trace-json").decode(json_blob)
        json_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        lazy = LazyBinaryTrace(blob)
        window = lazy.breakpoints(owner, component, start=10.0, end=20.0)
        lazy_times.append(time.perf_counter() - started)
        assert len(decoded.channels) == len(trace.channels)
        assert window
    median_full = sorted(times)[len(times) // 2]
    median_lazy = sorted(lazy_times)[len(lazy_times) // 2]
    return BenchMeasurement(
        times_s=times,
        metrics={
            "binary_bytes": len(blob),
            "json_decode_median_s": sorted(json_times)[len(json_times) // 2],
            "lazy_window_median_s": median_lazy,
            "lazy_window_speedup": (
                median_full / median_lazy if median_lazy > 0 else float("inf")
            ),
        },
    )


def bench_serve_cold_ingest(repeats: int) -> BenchMeasurement:
    """Cold corpus re-ingest: digest-memoized replay vs re-simulation.

    Each repeat uses a fresh artifact store: the first
    ``trace_from_document`` call replays the scenario on a simulated
    device and captures the trace into the store; the second call loads
    the memoized ``trace-bin`` artifact instead.  ``times_s`` is the
    memoized path (what a warm store's cold start costs); the
    re-simulation medians and the speedup land in ``metrics``.
    """
    import tempfile

    from ..check.generator import generate_scenario
    from ..serve import trace_from_document
    from ..store import ArtifactStore
    from ..store.codecs import CORPUS_KIND, CORPUS_SCHEMA

    scenario = generate_scenario(4321, ops=60)
    document = {
        "schema": CORPUS_SCHEMA,
        "kind": CORPUS_KIND,
        "oracles": ["bench"],
        "violations": [],
        "original_ops": len(scenario.ops),
        "shrunk_ops": len(scenario.ops),
        "scenario": scenario.to_dict(),
    }
    times: List[float] = []
    resim_times: List[float] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        for index in range(repeats):
            store = ArtifactStore(f"{tmp}/store-{index}")
            started = time.perf_counter()
            cold = trace_from_document(document, store=store)
            resim_times.append(time.perf_counter() - started)
            started = time.perf_counter()
            warm = trace_from_document(document, store=store)
            times.append(time.perf_counter() - started)
            assert len(warm.channels) == len(cold.channels)
    median_memo = sorted(times)[len(times) // 2]
    median_resim = sorted(resim_times)[len(resim_times) // 2]
    return BenchMeasurement(
        times_s=times,
        metrics={
            "scenario_ops": len(scenario.ops),
            "resimulate_median_s": median_resim,
            "memoized_speedup": (
                median_resim / median_memo if median_memo > 0 else float("inf")
            ),
        },
    )


def _build_aggregate_fleet(sessions: int = 8, config=None, lap_s: float = 0.0):
    """A deterministic multi-session fleet for aggregation benchmarks.

    Sessions cycle through the attack workloads; each further lap runs
    ``lap_s`` seconds longer, so with ``lap_s > 0`` every session has
    its own content (memoized partials are keyed on content).
    """
    from ..offline import capture_trace
    from ..serve import ProfilingService, ServiceConfig
    from ..workloads import ALL_ATTACKS

    names = sorted(ALL_ATTACKS)
    service = ProfilingService(config or ServiceConfig(telemetry=False))
    for index in range(sessions):
        lap, slot = divmod(index, len(names))
        run = ALL_ATTACKS[names[slot]](30.0 + lap * lap_s)
        service.ingest_trace(
            f"fleet-{index:02d}", capture_trace(run.system, run.eandroid), "bench"
        )
    return service


def _aggregate_requests():
    """The request shapes both fleet-aggregate benchmarks answer."""
    from ..aggregate import AggregateRequest

    return [
        AggregateRequest(backend="eandroid", op="sum", group_by="owner"),
        AggregateRequest(backend="eandroid", op="topk", group_by="category", k=5),
        AggregateRequest(backend="energy", op="mean", group_by="mechanism"),
    ]


def bench_aggregate_scatter(repeats: int) -> BenchMeasurement:
    """Full scatter-gather aggregates over an 8-session fleet (no memo)."""
    service = _build_aggregate_fleet()
    requests = _aggregate_requests()
    times: List[float] = []
    answered = 0
    for _ in range(repeats):
        started = time.perf_counter()
        answered = sum(1 for req in requests if service.aggregate(req).ok)
        times.append(time.perf_counter() - started)
    median = sorted(times)[len(times) // 2]
    per_session = len(requests) * len(service.sessions)
    return BenchMeasurement(
        times_s=times,
        metrics={
            "requests": len(requests),
            "sessions": len(service.sessions),
            "answered": answered,
            "partials_per_s": per_session / median if median > 0 else float("inf"),
        },
    )


def bench_aggregate_memoized(repeats: int) -> BenchMeasurement:
    """Fully memoized aggregates on a restored 16-session fleet.

    The fleet is spilled to a temporary store, every request's partials
    are memoized, and the service is rebuilt with ``restore_sessions()``
    as a restart would.  Each timed repeat answers the requests from
    the store memo alone (ref, manifest and verified object reads, then
    the gather), so this is the store's read path, not the analyzer.
    """
    import tempfile

    from ..serve import ProfilingService, ServiceConfig

    requests = _aggregate_requests()
    times: List[float] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-memo-") as tmp:
        config = ServiceConfig(telemetry=False, store_dir=tmp, spill=True)
        fleet = _build_aggregate_fleet(16, config, lap_s=10.0)
        for request in requests:
            fleet.aggregate(request)
        service = ProfilingService(config)
        sessions = len(service.restore_sessions())
        for _ in range(repeats):
            started = time.perf_counter()
            responses = [service.aggregate(request) for request in requests]
            times.append(time.perf_counter() - started)
            if any(r.computed or r.memoized != sessions for r in responses):
                raise RuntimeError("aggregate_memoized: a memo probe missed")
    median = sorted(times)[len(times) // 2]
    return BenchMeasurement(
        times_s=times,
        metrics={
            "requests": len(requests),
            "sessions": sessions,
            "memoized_partials_per_s": (
                len(requests) * sessions / median if median > 0 else float("inf")
            ),
        },
    )


def bench_aggregate_merge(repeats: int) -> BenchMeasurement:
    """Pure gather-step merge throughput over synthetic partials."""
    from ..aggregate import AggregateRequest, GroupedPartial, merge_partials

    request = AggregateRequest(backend="energy", op="sum", group_by="owner")
    partials = [
        GroupedPartial.for_session(
            f"fleet-{index:03d}",
            {f"com.play.cat{g % 12}.app{g}": float((index * 31 + g) % 97) for g in range(40)},
        )
        for index in range(64)
    ]
    times: List[float] = []
    groups = 0
    for _ in range(repeats):
        started = time.perf_counter()
        merged = merge_partials(partials, request)
        result = merged.finalize(request)
        times.append(time.perf_counter() - started)
        groups = result["group_count"]
    median = sorted(times)[len(times) // 2]
    return BenchMeasurement(
        times_s=times,
        metrics={
            "partials": len(partials),
            "groups": groups,
            "merges_per_s": len(partials) / median if median > 0 else float("inf"),
        },
    )


def bench_calibration(repeats: int) -> BenchMeasurement:
    """Fixed pure-python workload measuring machine speed.

    The regression gate divides every benchmark's median by this run's
    calibration median before comparing against the committed baseline,
    so a slower/faster CI runner shifts both sides equally instead of
    tripping (or masking) the gate.
    """
    times: List[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        acc = 0
        for i in range(400_000):
            acc = (acc + i * i) % 1_000_003
        times.append(time.perf_counter() - started)
        assert acc >= 0
    return BenchMeasurement(times_s=times, metrics={})


CALIBRATION_BENCH = "calibration"

for _order, _spec in enumerate(
    [
        BenchSpec(
            name=CALIBRATION_BENCH,
            runner=bench_calibration,
            kind="calibration",
            description="fixed workload normalizing machine speed",
        ),
        BenchSpec(
            name="meter_query_1k",
            runner=bench_meter_query_1k,
            kind="micro",
            description="window energy queries, 1k-breakpoint trace",
        ),
        BenchSpec(
            name="meter_query_50k",
            runner=bench_meter_query_50k,
            kind="macro",
            description="window energy queries, 50k-breakpoint trace",
        ),
        BenchSpec(
            name="meter_by_owner",
            runner=bench_meter_by_owner,
            kind="micro",
            description="repeated per-owner energy reports (memoized path)",
        ),
        BenchSpec(
            name="kernel_dispatch",
            runner=bench_kernel_dispatch,
            kind="micro",
            description="event-queue schedule + dispatch throughput",
        ),
        BenchSpec(
            name="fig1_end_to_end",
            runner=bench_fig1_end_to_end,
            kind="macro",
            description="Fig. 1 experiment, fresh device each repeat",
        ),
        BenchSpec(
            name="fig9_end_to_end",
            runner=bench_fig9_end_to_end,
            kind="macro",
            description="Fig. 9 experiment, fresh device each repeat",
        ),
        BenchSpec(
            name="fuzz_oracle_step",
            runner=bench_fuzz_oracle_step,
            kind="macro",
            description="conformance scenario with step oracles every op",
        ),
        BenchSpec(
            name="eandroid_hook",
            runner=bench_eandroid_hook,
            kind="macro",
            description="800-op scenario attached vs detached (Table I hook cost)",
        ),
        BenchSpec(
            name="offline_reports",
            runner=bench_offline_reports,
            kind="macro",
            description="all five offline report backends, 800-op trace",
        ),
        BenchSpec(
            name="offline_windowed",
            runner=bench_offline_windowed,
            kind="macro",
            description="windowed eandroid/collateral misses, one warm analyzer",
        ),
        BenchSpec(
            name="serve_throughput",
            runner=bench_serve_throughput,
            kind="macro",
            description="mixed-backend query batches through the service",
        ),
        BenchSpec(
            name="serve_latency",
            runner=bench_serve_latency,
            kind="micro",
            description="per-query serve latency, cold vs warm result LRU",
        ),
        BenchSpec(
            name="serve_net_throughput",
            runner=bench_serve_net_throughput,
            kind="macro",
            description="4 concurrent TCP clients querying the net front-end",
        ),
        BenchSpec(
            name="serve_net_latency",
            runner=bench_serve_net_latency,
            kind="micro",
            description="single-client TCP round-trip latency, warm LRU",
        ),
        BenchSpec(
            name="store_encode",
            runner=bench_store_encode,
            kind="micro",
            description="trace-bin encode of a captured attack trace",
        ),
        BenchSpec(
            name="store_decode",
            runner=bench_store_decode,
            kind="micro",
            description="trace-bin full decode + lazy windowed channel read",
        ),
        BenchSpec(
            name="serve_cold_ingest",
            runner=bench_serve_cold_ingest,
            kind="macro",
            description="corpus re-ingest via digest-memoized replay",
        ),
        BenchSpec(
            name="aggregate_scatter",
            runner=bench_aggregate_scatter,
            kind="macro",
            description="scatter-gather fleet aggregates, 8-session fleet",
        ),
        BenchSpec(
            name="aggregate_memoized",
            runner=bench_aggregate_memoized,
            kind="macro",
            description="memo-hit fleet aggregates, restored 16-session store",
        ),
        BenchSpec(
            name="aggregate_merge",
            runner=bench_aggregate_merge,
            kind="micro",
            description="gather-step partial merges, 64 synthetic partials",
        ),
    ]
):
    register_bench(
        BenchSpec(
            name=_spec.name,
            runner=_spec.runner,
            kind=_spec.kind,
            description=_spec.description,
            repeats=_spec.repeats,
            order=_order,
        )
    )
