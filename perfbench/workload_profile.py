"""``profile``: the researcher's pipeline, in process.

One op profiles one scenario on a fresh simulated device with E-Android
attached: generate the scenario script, boot the device, run it,
capture the trace and render all five backend reports.  One op in
eight is instead one of the paper's Fig. 9 runs (the six attacks and
the two normal scenes).  ``sim``/``android``/``power``/``core``/
``offline`` do almost all the work; ``store``, ``serve``, ``net`` and
``aggregate`` do none, so a transport or store change must read "no
change" here.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from tracing import Tracer

#: Generated-scenario sizes are stratified log-uniform over this range
#: (roughly 10 to 250 attack links); each block of 56 generated ops
#: draws one size from each of 56 strata, so every seed sees the same
#: size distribution with different scenarios.
MIN_OPS, MAX_OPS = 50, 800
BLOCK = 56
FIG9_EVERY = 8
#: Ops whose event/link counts the determinism guard re-derives.
GUARD_OPS = 16
#: One op in this many runs the conservation oracles (outside timing).
ORACLE_EVERY = 16


class ProfileWorkload:
    name = "profile"
    warmup_s = 2
    setups = 5
    window_ops = 0  # metrics pooled over the run

    def __init__(self, seed: int, tracer: Tracer, inject: bool) -> None:
        from repro.check.generator import generate_scenario
        from repro.check.runner import ScenarioExecutor
        from repro.offline import OfflineAnalyzer, capture_trace
        from repro.reports.request import BACKENDS, ReportRequest
        from repro.workloads import ALL_ATTACKS, run_scene1, run_scene2

        self.seed = seed
        self.tracer = tracer
        self.inject = inject
        self._generate = generate_scenario
        self._executor = ScenarioExecutor
        self._capture = capture_trace
        self._analyzer = OfflineAnalyzer
        self.requests = [(b, ReportRequest(b)) for b in BACKENDS]
        self.fig9 = sorted(ALL_ATTACKS.items()) + [("scene1", run_scene1), ("scene2", run_scene2)]
        self._fig9_offset = random.Random(f"fig9:{seed}").randrange(len(self.fig9))
        self._oracle_rng = random.Random(f"oracle:{seed}")
        self._block_cache: Tuple[int, List[Tuple[int, int]]] = (-1, [])
        self.next_op = 0
        self.failed = 0
        self.problems: List[str] = []
        self.prefix_counts: List[Tuple[int, int]] = []
        self.oracle_checked = 0
        self.traced_events = 0  # events dispatched by traced generated ops

    # -- the op stream -----------------------------------------------------
    def _block(self, block: int) -> List[Tuple[int, int]]:
        """(scenario seed, size) for each generated op of one block."""
        if self._block_cache[0] != block:
            rng = random.Random(f"profile:{self.seed}:{block}")
            sizes = [
                int(round(MIN_OPS * (MAX_OPS / MIN_OPS) ** ((j + rng.random()) / BLOCK)))
                for j in range(BLOCK)
            ]
            rng.shuffle(sizes)
            base = (self.seed & 0xFFFFF) << 24 | block * BLOCK
            self._block_cache = (block, [(base + j, n) for j, n in enumerate(sizes)])
        return self._block_cache[1]

    def spec(self, index: int):
        """Op ``index`` of the stream: ``("fig9", name)`` or ``("gen", seed, n)``."""
        if index % FIG9_EVERY == FIG9_EVERY - 1:
            return ("fig9", (index // FIG9_EVERY + self._fig9_offset) % len(self.fig9))
        generated = index - index // FIG9_EVERY
        scenario_seed, size = self._block(generated // BLOCK)[generated % BLOCK]
        return ("gen", scenario_seed, size)

    # -- set-up --------------------------------------------------------------
    def build(self):
        """Warm every code path once: each Fig. 9 run and four scenarios."""
        for i in range(len(self.fig9)):
            self._execute(("fig9", i))
        yield
        for size in (MIN_OPS, 150, 400, MAX_OPS):
            self._execute(("gen", 7, size))
            yield

    def close(self) -> None:
        pass

    # -- one op -------------------------------------------------------------
    def _execute(self, spec):
        """Run one op; returns (system, eandroid, trace, scenario)."""
        span = self.tracer.span
        scenario = None
        with span("profile.op"):
            if spec[0] == "fig9":
                with span("workloads.fig9"):
                    run = self.fig9[spec[1]][1]()
                system, eandroid = run.system, run.eandroid
            else:
                with span("check.generate"):
                    scenario = self._generate(spec[1], ops=spec[2])
                with span("android.boot"):
                    executor = self._executor(scenario)
                with span("sim.run") as run_span:
                    executor.run()
                system, eandroid = executor.system, executor.ea
                if run_span is not None:
                    self.traced_events += system.kernel.dispatched_count
            with span("offline.capture"):
                trace = self._capture(system, eandroid)
            with span("offline.analyzer"):
                analyzer = self._analyzer(trace)
            for backend, request in self.requests:
                with span("offline.report_ms." + backend):
                    analyzer.describe(request).to_dict()
                    if self.inject:
                        analyzer.describe(request).to_dict()
        return system, eandroid, trace, scenario

    def run_slice(self, budget_s: float, tracing: bool):
        latencies: List[float] = []
        busy = 0.0
        started = time.perf_counter()
        while time.perf_counter() - started < budget_s:
            index = self.next_op
            self.next_op += 1
            self.tracer.op = index
            spec = self.spec(index)
            t0 = time.perf_counter()
            system, eandroid, trace, scenario = self._execute(spec)
            elapsed = time.perf_counter() - t0
            busy += elapsed
            latencies.append(elapsed * 1e3)
            # Everything below is outside the op's timing.
            if index < GUARD_OPS:
                self.prefix_counts.append((system.kernel.dispatched_count, len(trace.links)))
            if self._oracle_rng.randrange(ORACLE_EVERY) == 0:
                self._check_oracles(index, system, eandroid)
            if tracing and scenario is not None:
                self._hook_overhead(scenario)
        return latencies, busy

    def _check_oracles(self, index: int, system, eandroid) -> None:
        from repro.check.oracles import energy_conservation, no_over_charging

        self.oracle_checked += 1
        violations = energy_conservation(system, eandroid) + no_over_charging(system, eandroid)
        if violations:
            self.failed += 1
            self.problems.append(f"op {index}: {violations[0]}")

    def _hook_overhead(self, scenario) -> None:
        """Table I: the same script with and without E-Android attached."""
        for attach in (False, True):
            executor = self._executor(scenario, attach=attach)
            with self.tracer.span("core.run_attached" if attach else "core.run_detached"):
                executor.run()

    def after_slice(self) -> bool:
        return False

    # -- wrap-up -------------------------------------------------------------
    def finish(self) -> None:
        pass

    def guard(self) -> List[str]:
        """Re-derive the prefix's counts on fresh devices; they must match."""
        problems = []
        for index, observed in enumerate(self.prefix_counts):
            system, _, trace, _ = self._execute(self.spec(index))
            again = (system.kernel.dispatched_count, len(trace.links))
            if again != observed:
                problems.append(f"profile op {index}: (events, links) {observed} then {again}")
        return problems

    def counts(self) -> Dict[str, float]:
        n = max(1, len(self.prefix_counts))
        return {
            "sim.events_per_op": sum(c[0] for c in self.prefix_counts) / n,
            "offline.links_per_op": sum(c[1] for c in self.prefix_counts) / n,
            "check.oracle_ops": float(self.oracle_checked),
        }

    def layers(self) -> Dict[str, float]:
        t = self.tracer
        out: Dict[str, float] = {}
        for name in ("android.boot", "offline.capture"):
            out[name + "_ms"] = t.mean_ms(name)
        for backend, _ in self.requests:
            out["offline.report_ms." + backend] = t.mean_ms("offline.report_ms." + backend)
        events = self.traced_events
        out["sim.host_us_per_event"] = sum(t.durations_ms("sim.run")) * 1e3 / events if events else 0.0
        detached = sum(t.durations_ms("core.run_detached"))
        attached = sum(t.durations_ms("core.run_attached"))
        out["core.detached_run_ms"] = t.mean_ms("core.run_detached")
        out["core.hook_overhead_pct"] = 100.0 * (attached - detached) / detached if detached else 0.0
        return out
