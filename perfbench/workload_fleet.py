"""``fleet``: the fleet operator, in process.

A ``ProfilingService`` with an ``ArtifactStore`` (``spill=True``) holds
48 sessions.  One op in 6 runs a fleet aggregate (cycling
sum/mean/topk/histogram x owner/category/mechanism: sessions not
replaced since the same aggregate last ran hit the store memo, new
ones are computed and memoized); the others are cold report queries
over windows that never repeat, so the working set is far larger than
the LRU.  Every 64 ops the service is rebuilt from the store with
``restore_sessions()``, as an operator restart would do, which keeps
trace fault-in on the read path, and the op before each rebuild
ingests a new trace into the next slot (trace-bin encode, put, spill).
Store writes run beside store reads, the analyzer runs at its cold cost
and ``net``/``protocol`` do nothing.

Ingests are one op in 64, not one in 6: every ingest invalidates the
memo of all 12 aggregates, so one in 6 meant about 40 new files per 6
ops, and on a VM the kernel time of creating files swings by 2.5x from
one run to the next (README.md) — far past the bounds.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from typing import Dict, List, Tuple

from tracing import Tracer

SLOTS = 48
#: Distinct generated traces (stratified log-uniform sizes) behind the
#: slots, dealt round-robin; new ingests are seeded power-scaled
#: variants of them (a differently calibrated device), so every ingest
#: has new content without simulating during the run.
BASES = 48
#: One op in CYCLE is a fleet aggregate; the rest are cold queries,
#: except that the last op before each restart ingests a new trace.
CYCLE = 6
RESTART_EVERY = 64
#: One aggregate in this many is recomputed on a fresh service with no
#: memo and must match byte for byte (outside timing).
CHECK_EVERY = 32


class FleetWorkload:
    name = "fleet"
    warmup_s = 6
    setups = 3
    window_ops = 0  # metrics pooled over the run

    def __init__(self, seed: int, tracer: Tracer, inject: bool, work: Path) -> None:
        from repro.aggregate import AggregateRequest
        from repro.aggregate.request import GROUP_BYS, OPS
        from repro.offline.analyzer import OfflineAnalyzer
        from repro.reports.request import BACKENDS, ReportRequest
        from repro.serve import ProfilingService, QueryRequest, ServiceConfig
        from repro.store import ArtifactStore

        self.seed = seed
        self.tracer = tracer
        self.work = work
        self.backends = BACKENDS
        self._service_cls = ProfilingService
        self._config_cls = ServiceConfig
        self._query_cls = QueryRequest
        self._report_cls = ReportRequest
        self.aggregates = [
            AggregateRequest(backend=BACKENDS[j % len(BACKENDS)], op=op, group_by=group_by)
            for j, (op, group_by) in enumerate((o, g) for o in OPS for g in GROUP_BYS)
        ]
        self.rng = random.Random(f"fleet:{seed}")
        self.rng.shuffle(self.aggregates)
        #: Cold-query (slot, backend) targets, dealt from a shuffled deck
        #: so every seed queries the same mix in a different order.
        self.targets: List[Tuple[int, str]] = []
        self._analyzer_cls = OfflineAnalyzer
        if inject:
            # Process-wide on purpose: every store the service opens reads
            # twice.  The process ends with the run.
            original = ArtifactStore.get

            def get_twice(store, digest):
                original(store, digest)
                return original(store, digest)

            ArtifactStore.get = get_twice
        self.builds = 0
        self.service = None
        self.bases: List = []
        self.slot_traces: Dict[str, object] = {}
        self.next_op = 0
        self.failed = 0
        self.problems: List[str] = []
        self.pending_checks: List[Tuple[object, str, Dict[str, object]]] = []
        self.bytes_per_bp: List[float] = []
        self.checked = 0
        self.memoized = 0
        self.computed = 0
        self.queries = 0
        self.cached = 0

    # -- inputs ----------------------------------------------------------------
    def _variant(self, base, scale: float):
        from repro.offline.trace import ChannelTrace, DeviceTrace

        return DeviceTrace(
            captured_at=base.captured_at,
            channels=[
                ChannelTrace(c.owner, c.component, [(t, p * scale) for t, p in c.breakpoints])
                for c in base.channels
            ],
            foreground=list(base.foreground),
            apps=dict(base.apps),
            system_uids=list(base.system_uids),
            links=list(base.links),
            battery_capacity_j=base.battery_capacity_j,
        )

    def _new_trace(self, slot: int, generation: int, rng: random.Random):
        base = self.bases[(slot + generation) % BASES]
        return self._variant(base, round(rng.uniform(0.5, 1.5), 6))

    # -- set-up ------------------------------------------------------------------
    def build(self):
        """Generate the base traces, fill a fresh store, warm every op kind."""
        from repro.check.generator import generate_scenario
        from repro.check.runner import ScenarioExecutor
        from repro.offline import capture_trace

        self.builds += 1
        store_dir = self.work / f"fleet-store-{self.builds}"
        self.store_dir = store_dir
        rng = random.Random(f"fleet-bases:{self.seed}")
        self.bases = []
        for j in range(BASES):
            size = int(round(50 * 16 ** ((j + rng.random()) / BASES)))
            executor = ScenarioExecutor(generate_scenario(rng.randrange(1 << 30), ops=size))
            executor.run()
            self.bases.append(capture_trace(executor.system, executor.ea))
            yield
        self.service = self._service_cls(self._config(store_dir))
        total_bytes = 0
        breakpoints = 0
        for slot in range(SLOTS):
            name = f"fleet-{slot:02d}"
            trace = self._new_trace(slot, 0, rng)
            record = self.service.ingest_trace(name, trace)
            self.slot_traces[name] = trace
            total_bytes += self.service.store.info(record.content_digest).size
            breakpoints += sum(len(c.breakpoints) for c in trace.channels)
            if slot % 8 == 7:
                yield
        self.bytes_per_bp.append(total_bytes / breakpoints)
        self.service.aggregate(self.aggregates[0])
        yield
        self._restart()
        self._query(0, random.Random(0))

    def _config(self, store_dir: Path):
        return self._config_cls(store_dir=str(store_dir), spill=True)

    def _restart(self) -> None:
        self.service = self._service_cls(self._config(self.store_dir))
        self.service.restore_sessions()

    def close(self) -> None:
        # Stores are removed with the run's work directory at the end:
        # deleting one here would load the file system during the run.
        self.service = None

    # -- ops -------------------------------------------------------------------
    def _query(self, index: int, rng: random.Random):
        if not self.targets:
            self.targets = [(slot, b) for slot in range(SLOTS) for b in self.backends]
            self.rng.shuffle(self.targets)
        slot, backend = self.targets.pop()
        name = f"fleet-{slot:02d}"
        record = self.service.sessions[name]
        # A window start that never repeats: the query always misses.
        start = round(rng.uniform(0.0, 0.25) * record.captured_at, 6) + index * 1e-9
        query = self._query_cls(index, name, self._report_cls(backend, start=start))
        if self.tracer.enabled and record.spilled:
            with self.tracer.span("store.get"):
                record.trace
        return self.service.submit(query)

    def run_slice(self, budget_s: float, tracing: bool):
        span = self.tracer.span
        latencies: List[float] = []
        busy = 0.0
        started = time.perf_counter()
        restore_describe = self._instrument_describe() if tracing else None
        try:
            while time.perf_counter() - started < budget_s:
                index = self.next_op
                self.next_op += 1
                self.tracer.op = index
                rng = random.Random(f"fleet-op:{self.seed}:{index}")
                kind = _kind(index)
                if kind == 0:
                    slot, generation = divmod(index // RESTART_EVERY, SLOTS)[::-1]
                    name = f"fleet-{slot:02d}"
                    trace = self._new_trace(slot, generation + 1, rng)
                if index and index % RESTART_EVERY == 0:
                    t0 = time.perf_counter()
                    with span("serve.restore_sessions"):
                        self._restart()
                    busy += time.perf_counter() - t0
                t0 = time.perf_counter()
                with span("fleet.op"):
                    if kind == 0:
                        with span("store.put"):
                            self.service.ingest_trace(name, trace)
                        ok = True
                    elif kind == 1:
                        request = self.aggregates[(index // CYCLE) % len(self.aggregates)]
                        with span("aggregate.latency"):
                            response = self.service.aggregate(request)
                        ok = response.ok and not response.partial
                    else:
                        response = self._query(index, rng)
                        ok = response.ok
                elapsed = time.perf_counter() - t0
                busy += elapsed
                latencies.append(elapsed * 1e3)
                # Outside the op's timing: bookkeeping and sampled checks.
                if kind == 0:
                    self.slot_traces[name] = trace
                elif kind == 1:
                    self.memoized += response.memoized
                    self.computed += response.computed
                    if ok and rng.randrange(CHECK_EVERY) == 0:
                        payload = json.dumps(response.payload)
                        self.pending_checks.append((request, payload, dict(self.slot_traces)))
                else:
                    self.queries += 1
                    self.cached += response.cached
                if not ok:
                    self.failed += 1
                    self.problems.append(f"fleet op {index}: {getattr(response, 'error', None)}")
        finally:
            if restore_describe is not None:
                restore_describe()
        return latencies, busy

    def _instrument_describe(self):
        """Time ``OfflineAnalyzer.describe`` calls made inside the service."""
        cls = self._analyzer_cls
        original = cls.describe
        span = self.tracer.span

        def describe(analyzer, request):
            with span("offline.report_ms." + request.backend):
                return original(analyzer, request)

        cls.describe = describe

        def restore() -> None:
            cls.describe = original

        return restore

    def after_slice(self) -> bool:
        """Recompute sampled aggregates on a fresh, memo-less service."""
        if not self.pending_checks:
            return False
        for request, payload, traces in self.pending_checks:
            fresh = self._service_cls(self._config_cls(telemetry=False))
            for name, trace in traces.items():
                fresh.ingest_trace(name, trace)
            again = fresh.aggregate(request)
            self.checked += 1
            if not again.ok or json.dumps(again.payload) != payload:
                self.failed += 1
                self.problems.append(f"aggregate {request.key()} differs from a fresh recompute")
        self.pending_checks.clear()
        return True

    # -- wrap-up ---------------------------------------------------------------
    def finish(self) -> None:
        pass

    def guard(self) -> List[str]:
        """Every set-up must have stored exactly the same bytes."""
        if len(set(self.bytes_per_bp)) > 1:
            return [f"fleet store.bytes_per_breakpoint drifted across set-ups: {self.bytes_per_bp}"]
        return []

    def counts(self) -> Dict[str, float]:
        return {
            "store.bytes_per_breakpoint": self.bytes_per_bp[-1],
            "aggregate.partials": float(self.memoized + self.computed),
            "aggregate.memo_hit_ratio": self.memoized / max(1, self.memoized + self.computed),
            "aggregate.checked": float(self.checked),
            "serve.answered": float(self.queries),
            "serve.cache_hit_ratio": self.cached / max(1, self.queries),
        }

    def layers(self) -> Dict[str, float]:
        t = self.tracer
        out = {
            "store.put_ms": t.mean_ms("store.put"),
            "store.get_ms": t.mean_ms("store.get"),
            "aggregate.latency_ms": t.mean_ms("aggregate.latency"),
        }
        for backend in self.backends:
            out["offline.report_ms." + backend] = t.mean_ms("offline.report_ms." + backend)
        return out


def _kind(index: int) -> int:
    """0: ingest, 1: aggregate, 2: cold query."""
    if index % RESTART_EVERY == RESTART_EVERY - 1:
        return 0
    return 1 if index % CYCLE == 1 else 2
