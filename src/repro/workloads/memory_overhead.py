"""Memory overhead of E-Android (the §VI-B AnTuTu memory aspect).

"We also used AnTuTu benchmark to measure the CPU and memory overhead."
On the simulator we can measure the memory question directly: run the
same workload with and without the monitor attached and compare the
Python-heap growth (tracemalloc), plus an itemised census of E-Android's
own data structures (journal entries, links, map elements).  The paper's
claim — overhead similar to stock Android — translates to: E-Android's
state grows with *collateral events*, not with time or workload volume.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import dataclass
from typing import Callable, Optional

from ..android import AndroidSystem, explicit
from ..apps import build_victim_app
from ..attacks import build_bind_malware
from ..core import EAndroid, attach_eandroid


@dataclass
class MemoryReport:
    """Heap growth for one configuration plus E-Android's state census."""

    configuration: str
    heap_growth_kib: float
    journal_entries: int = 0
    attack_links: int = 0
    map_elements: int = 0

    def render_text(self) -> str:
        """One row of the memory comparison."""
        detail = ""
        if self.configuration == "eandroid":
            detail = (
                f"  (journal={self.journal_entries} links={self.attack_links} "
                f"map elements={self.map_elements})"
            )
        return (
            f"{self.configuration:<10} heap growth {self.heap_growth_kib:8.1f} KiB"
            + detail
        )


def _default_workload(system: AndroidSystem) -> None:
    """A busy mixed workload: launches, IPC, background service churn."""
    from ..apps import VICTIM_PACKAGE
    from ..attacks import BIND_PACKAGE

    system.launch_app(BIND_PACKAGE)
    system.press_home()
    victim = system.uid_of(VICTIM_PACKAGE)
    svc = explicit(VICTIM_PACKAGE, "VictimWorkService")
    for _ in range(20):
        system.am.start_service(victim, svc)
        system.run_for(5.0)
        system.am.stop_service(victim, svc)
        system.launch_app(VICTIM_PACKAGE)
        system.press_home()
        system.run_for(5.0)


def measure_memory_overhead(
    workload: Optional[Callable[[AndroidSystem], None]] = None,
) -> dict:
    """Heap growth running ``workload`` with and without E-Android.

    Returns ``{"android": MemoryReport, "eandroid": MemoryReport}``.
    """
    if workload is None:
        workload = _default_workload
    reports = {}
    for configuration in ("android", "eandroid"):
        system = AndroidSystem()
        system.install(build_victim_app())
        system.install(build_bind_malware())
        system.boot()
        eandroid: Optional[EAndroid] = None
        if configuration == "eandroid":
            eandroid = attach_eandroid(system)
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        workload(system)
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        report = MemoryReport(
            configuration=configuration,
            heap_growth_kib=(after - before) / 1024.0,
        )
        if eandroid is not None:
            report.journal_entries = len(eandroid.monitor.log)
            report.attack_links = len(eandroid.accounting.attack_log())
            report.map_elements = sum(
                len(eandroid.accounting.map_for(host))
                for host in eandroid.accounting.hosts()
            )
        reports[configuration] = report
    return reports
