"""The repository's benchmark: ``profile``, ``serve`` and ``fleet``.

Run from the repository root::

    python3 perfbench/run.py --workload profile --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
alternate slices with spans on and prints the per-layer metrics, the
tracing overhead, and writes a Chrome trace under ``.perfbench/``.
``--inject`` is the sensitivity self-check: it makes one layer do its
work twice per call (``OfflineAnalyzer.describe`` in ``profile``,
``ArtifactStore.get`` in ``fleet``; ``serve`` has no benchmark-side
call to double and must not move).  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
from tracing import Tracer  # noqa: E402

WORKLOADS = ("profile", "serve", "fleet")

END_TO_END = {
    "throughput_ops_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "setup_s": "s",
}

#: Every per-layer metric, by name, with its unit.  A layer a workload
#: does not exercise reads 0 there (it did no work).
PER_LAYER = {
    "android.boot_ms": "ms",
    "sim.host_us_per_event": "us",
    "sim.events_per_op": "count",
    "core.hook_overhead_pct": "%",
    "core.detached_run_ms": "ms",
    "offline.capture_ms": "ms",
    "offline.report_ms.energy": "ms",
    "offline.report_ms.batterystats": "ms",
    "offline.report_ms.powertutor": "ms",
    "offline.report_ms.eandroid": "ms",
    "offline.report_ms.collateral": "ms",
    "offline.links_per_op": "count",
    "check.oracle_ops": "count",
    "net.rtt_us": "us",
    "net.overhead_us": "us",
    "serve.service_us.hit": "us",
    "serve.service_us.miss": "us",
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "serve.cache_hit_ratio": "ratio",
    "serve.answered": "count",
    "serve.hot_requests": "count",
    "serve.oneoff_requests": "count",
    "serve.checked": "count",
    "net.received": "count",
    "net.answered": "count",
    "net.shed": "count",
    "net.errors": "count",
    "store.put_ms": "ms",
    "store.get_ms": "ms",
    "store.bytes_per_breakpoint": "B",
    "aggregate.latency_ms": "ms",
    "aggregate.memo_hit_ratio": "ratio",
    "aggregate.partials": "count",
    "aggregate.checked": "count",
    "bench.yard_ms": "ms",
    "bench.trace_overhead_pct": "%",
    "bench.untraced_op_ms": "ms",
    "wall.throughput_ops_s": "1/s",
    "wall.p50_ms": "ms",
    "wall.p90_ms": "ms",
    "wall.setup_s": "s",
}


def make_workload(name: str, seed: int, tracer: Tracer, inject: bool, work: Path):
    if name == "profile":
        from workload_profile import ProfileWorkload

        return ProfileWorkload(seed, tracer, inject)
    if name == "fleet":
        from workload_fleet import FleetWorkload

        return FleetWorkload(seed, tracer, inject, work)
    from workload_serve import ServeWorkload

    return ServeWorkload(seed, tracer, inject, work, ROOT)


def drive(workload, seconds: float, clock: measure.Clock, tracer: Tracer, traced: bool):
    """Warm up, then the timed loop: yardstick-bracketed slices until ``seconds`` pass.

    The untimed warm-up runs the workload's own ops for
    ``workload.warmup_s``: a fresh process spends its first seconds of
    a store-heavy loop in the kernel far more than later, whatever the
    machine's speed.  With ``traced`` every other timed slice records
    spans, so the traced and untraced halves share the machine's
    conditions and their difference is the tracing overhead.
    Returns the untraced and traced samples and the warm-up op count.
    """
    warm_ops = 0
    warm_end = time.perf_counter() + workload.warmup_s
    while time.perf_counter() < warm_end:
        warm_ops += len(workload.run_slice(measure.SLICE_S, False)[0])
        workload.after_slice()
    plain = measure.Samples(workload.window_ops)
    spanned = measure.Samples(workload.window_ops)
    clock.restart()
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline:
        tracing = traced and index % 2 == 1
        tracer.enabled = tracing
        latencies, busy = workload.run_slice(measure.SLICE_S, tracing)
        tracer.enabled = False
        factor = clock.close()
        tracer.scale_pending(factor)
        (spanned if tracing else plain).add_slice(latencies, busy, factor)
        if workload.after_slice():
            clock.restart()
        index += 1
    return plain, spanned, warm_ops


def run(args: argparse.Namespace) -> dict:
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    clock = measure.Clock()
    workload = make_workload(args.workload, args.seed, tracer, args.inject, work)
    try:
        setups, raw_setups = measure.timed_setups(workload, workload.setups, clock)
        plain, spanned, warm_ops = drive(workload, args.seconds, clock, tracer, bool(args.trace))
        workload.finish()
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
    problems = workload.guard()
    for problem in problems:
        print(f"perfbench: DETERMINISM GUARD FAILED: {problem}", file=sys.stderr)
    for problem in workload.problems[:20]:
        print(f"perfbench: failed op: {problem}", file=sys.stderr)

    e2e = plain.end_to_end(setups, raw_setups)
    if args.trace:
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(workload.layers())
        values.update(workload.counts())
        values.update({k: v for k, v in e2e.items() if k.startswith("wall.")})
        untraced_op_ms = plain.busy_s * 1e3 / plain.ops
        traced_op_ms = spanned.busy_s * 1e3 / spanned.ops
        values["bench.untraced_op_ms"] = untraced_op_ms
        values["bench.trace_overhead_pct"] = 100.0 * (traced_op_ms / untraced_op_ms - 1.0)
        values["bench.yard_ms"] = measure.median(clock.readings)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in PER_LAYER.items()}
        trace_path = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome(trace_path, {"workload": args.workload, "seed": args.seed})
        print(f"perfbench: Chrome trace written to {trace_path}", file=sys.stderr)
    else:
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END.items()}
    attempted = warm_ops + plain.ops + spanned.ops
    return {
        "correct": not problems and workload.failed == 0,
        "attempted": attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject", action="store_true",
        help="sensitivity self-check: one layer does its work twice per call",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        result = run(args)
    except measure.TooFewSamples as exc:
        print(f"perfbench: {exc}; run longer", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
