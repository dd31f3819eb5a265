"""Table I / Fig. 10 — micro-operation latency benchmark.

"To measure the overhead of E-Android, we first recorded the time cost
of several critical events that E-Android monitors ... We run each
operation 50 times on both Android and E-Android.  We excluded the two
biggest and smallest values as outliers." (§VI-B)

Three configurations are measured:

* ``android`` — stock framework, nothing subscribed to its bus;
* ``eandroid_framework`` — E-Android's monitor attached but the energy
  accounting module disabled (isolates pure hook cost);
* ``eandroid_complete`` — the full system.

Each of Table I's 13 operations is exercised 50 times per configuration
with wall-clock timing; the output is the boxplot five-number summary of
Fig. 10 (after outlier removal) in milliseconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..android import AndroidSystem, explicit
from ..android.power_manager import SCREEN_BRIGHT_WAKE_LOCK
from ..android.settings import SCREEN_BRIGHTNESS
from ..android.manifest import (
    WAKE_LOCK,
    WRITE_SETTINGS,
    AndroidManifest,
    ComponentDecl,
    ComponentKind,
    launcher_filter,
)
from ..android.activity import Activity
from ..android.app import App
from ..android.service import Service
from ..core import EAndroidAccounting, EAndroidMonitor

CONFIGURATIONS = ("android", "eandroid_framework", "eandroid_complete")

#: Table I, in paper order.
MICRO_OPERATIONS = (
    "start_self_service",
    "stop_self_service",
    "start_other_service",
    "stop_other_service",
    "bind_self_service",
    "unbind_self_service",
    "bind_other_service",
    "unbind_other_service",
    "start_self_activity",
    "start_other_activity",
    "wakelock_acquire",
    "wakelock_release",
    "change_screen",
)

MICRO_OPERATION_DEFINITIONS: Dict[str, str] = {
    "start_self_service": "Start a service belongs to same app by startService().",
    "stop_self_service": "Stop a service belongs to same app by stopService().",
    "start_other_service": "Start a service belongs to different app by startService().",
    "stop_other_service": "Stop a service belongs to different app by stopService().",
    "bind_self_service": "Bind a service belongs to same app by bindService().",
    "unbind_self_service": "Unbind a service belongs to same app by unbindService().",
    "bind_other_service": "Bind a service belongs to different app by bindService().",
    "unbind_other_service": "Unbind a service belongs to different app by unbindService().",
    "start_self_activity": "Start an activity belongs to same app by startActivity().",
    "start_other_activity": "Start an activity belongs to different app by startActivity().",
    "wakelock_acquire": "Acquire a wakelock by acquire().",
    "wakelock_release": "Release a wakelock by release().",
    "change_screen": "Change screen brightness.",
}


class _OpActivity(Activity):
    """No-op activity for the activity-start operations."""


class _OpService(Service):
    """No-op service for the service operations."""


def _bench_app(package: str) -> App:
    manifest = AndroidManifest(
        package=package,
        category="tools",
        uses_permissions=frozenset({WAKE_LOCK, WRITE_SETTINGS}),
        components=(
            ComponentDecl(
                name="_OpActivity",
                kind=ComponentKind.ACTIVITY,
                exported=True,
                intent_filters=(launcher_filter(),),
            ),
            ComponentDecl(
                name="_OpService", kind=ComponentKind.SERVICE, exported=True
            ),
        ),
    )
    return App(manifest, {"_OpActivity": _OpActivity, "_OpService": _OpService})


def build_configured_system(configuration: str) -> AndroidSystem:
    """A fresh device in one of the three measured configurations."""
    if configuration not in CONFIGURATIONS:
        raise ValueError(f"unknown configuration {configuration!r}")
    system = AndroidSystem()
    system.install(_bench_app("com.bench.self"))
    system.install(_bench_app("com.bench.other"))
    system.boot()
    if configuration != "android":
        accounting = EAndroidAccounting(
            system.kernel, system.hardware.meter, telemetry=system.telemetry
        )
        monitor = EAndroidMonitor(
            system,
            accounting,
            accounting_enabled=(configuration == "eandroid_complete"),
        )
        monitor.attach(system.telemetry)
    return system


@dataclass
class BoxplotStats:
    """Five-number summary (ms) after the paper's outlier policy."""

    operation: str
    configuration: str
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    samples: int

    @staticmethod
    def from_samples(
        operation: str, configuration: str, samples_ms: List[float]
    ) -> "BoxplotStats":
        """Drop the two biggest and smallest values, then summarise."""
        ordered = sorted(samples_ms)
        if len(ordered) > 8:
            ordered = ordered[2:-2]
        count = len(ordered)

        def quantile(fraction: float) -> float:
            index = fraction * (count - 1)
            lower = int(index)
            upper = min(lower + 1, count - 1)
            weight = index - lower
            return ordered[lower] * (1 - weight) + ordered[upper] * weight

        return BoxplotStats(
            operation=operation,
            configuration=configuration,
            minimum=ordered[0],
            q1=quantile(0.25),
            median=quantile(0.5),
            q3=quantile(0.75),
            maximum=ordered[-1],
            samples=count,
        )


@dataclass
class MicrobenchResult:
    """All boxplots for one run of the micro-benchmark."""

    stats: List[BoxplotStats] = field(default_factory=list)

    def for_op(self, operation: str) -> Dict[str, BoxplotStats]:
        """configuration -> stats for one operation."""
        return {
            s.configuration: s for s in self.stats if s.operation == operation
        }

    def render_text(self) -> str:
        """ASCII rendering of Fig. 10 (medians, ms)."""
        lines = ["=== Fig. 10 — micro-operation medians (ms) ==="]
        header = f"{'operation':<22}" + "".join(
            f"{c:>20}" for c in CONFIGURATIONS
        )
        lines.append(header)
        for op in MICRO_OPERATIONS:
            row = self.for_op(op)
            cells = "".join(
                f"{row[c].median:>20.4f}" if c in row else f"{'-':>20}"
                for c in CONFIGURATIONS
            )
            lines.append(f"{op:<22}{cells}")
        return "\n".join(lines)


class MicroBenchmark:
    """Drives Table I's operations against a configured device."""

    def __init__(self, iterations: int = 50) -> None:
        self.iterations = iterations

    # Each op maps to (setup, measured, teardown) callables per iteration.
    def _op_cycle(
        self, system: AndroidSystem, operation: str, iteration: int
    ) -> Callable[[], None]:
        """Return the *measured* callable, performing setup eagerly."""
        self_uid = system.uid_of("com.bench.self")
        self_svc = explicit("com.bench.self", "_OpService")
        other_svc = explicit("com.bench.other", "_OpService")

        if operation == "start_self_service":
            return lambda: system.am.start_service(self_uid, self_svc)
        if operation == "stop_self_service":
            system.am.start_service(self_uid, self_svc)
            return lambda: system.am.stop_service(self_uid, self_svc)
        if operation == "start_other_service":
            return lambda: system.am.start_service(self_uid, other_svc)
        if operation == "stop_other_service":
            system.am.start_service(self_uid, other_svc)
            return lambda: system.am.stop_service(self_uid, other_svc)
        if operation == "bind_self_service":
            return lambda: system.am.bind_service(self_uid, self_svc)
        if operation == "unbind_self_service":
            connection = system.am.bind_service(self_uid, self_svc)
            return lambda: system.am.unbind_service(connection)
        if operation == "bind_other_service":
            return lambda: system.am.bind_service(self_uid, other_svc)
        if operation == "unbind_other_service":
            connection = system.am.bind_service(self_uid, other_svc)
            return lambda: system.am.unbind_service(connection)
        if operation == "start_self_activity":
            return lambda: system.am.start_activity(
                self_uid, explicit("com.bench.self", "_OpActivity")
            )
        if operation == "start_other_activity":
            return lambda: system.am.start_activity(
                self_uid, explicit("com.bench.other", "_OpActivity")
            )
        if operation == "wakelock_acquire":
            return lambda: system.power_manager.acquire(
                self_uid, SCREEN_BRIGHT_WAKE_LOCK, f"bench-{iteration}"
            )
        if operation == "wakelock_release":
            lock = system.power_manager.acquire(
                self_uid, SCREEN_BRIGHT_WAKE_LOCK, f"bench-{iteration}"
            )
            return lock.release
        if operation == "change_screen":
            level = 50 + (iteration % 2) * 100  # alternate so it's a real change
            return lambda: system.settings.put(self_uid, SCREEN_BRIGHTNESS, level)
        raise ValueError(f"unknown micro operation {operation!r}")

    def _cleanup(self, system: AndroidSystem, operation: str) -> None:
        """Reset per-iteration state the measured call may have left."""
        self_uid = system.uid_of("com.bench.self")
        if operation in ("start_self_service", "bind_self_service"):
            record = system.am.service_record("com.bench.self", "_OpService")
            if record is not None:
                for connection in list(record.connections):
                    system.am.unbind_service(connection)
                if record.started:
                    system.am.stop_service(
                        self_uid, explicit("com.bench.self", "_OpService")
                    )
        if operation in ("start_other_service", "bind_other_service"):
            record = system.am.service_record("com.bench.other", "_OpService")
            if record is not None:
                for connection in list(record.connections):
                    system.am.unbind_service(connection)
                if record.started:
                    system.am.stop_service(
                        self_uid, explicit("com.bench.other", "_OpService")
                    )
        if operation in ("start_self_activity", "start_other_activity"):
            record = system.am.supervisor.front_record()
            if record is not None and record.component_name == "_OpActivity":
                system.am.finish_activity(record)
        if operation == "wakelock_acquire":
            for lock in system.power_manager.held_locks(self_uid):
                lock.release()

    def measure(
        self, operation: str, configuration: str
    ) -> BoxplotStats:
        """Time one operation ``iterations`` times in one configuration."""
        system = build_configured_system(configuration)
        samples_ms: List[float] = []
        for iteration in range(self.iterations):
            measured = self._op_cycle(system, operation, iteration)
            start = time.perf_counter()
            measured()
            elapsed = time.perf_counter() - start
            samples_ms.append(elapsed * 1000.0)
            self._cleanup(system, operation)
            system.run_for(0.01)  # drain any scheduled callbacks
        return BoxplotStats.from_samples(operation, configuration, samples_ms)

    def run_all(self) -> MicrobenchResult:
        """The full Fig. 10 grid: 13 operations x 3 configurations."""
        result = MicrobenchResult()
        for operation in MICRO_OPERATIONS:
            for configuration in CONFIGURATIONS:
                result.stats.append(self.measure(operation, configuration))
        return result
