"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper — these quantify the cost of the mechanisms
the reproduction chose:

* reachability-based map sync (Algorithm 1) along a deep attack chain;
* windowed energy queries against piecewise-constant traces as traces
  grow;
* the per-event cost of the monitor's journal (framework-only mode);
* full simulated-hour throughput of a device under attack (how cheap is
  virtual time).
"""

from repro.android import AndroidSystem, explicit
from repro.core import AttackKind, EAndroidAccounting, attach_eandroid
from repro.power import EnergyMeter, PowerTrace
from repro.sim import Kernel
from repro.workloads.microbench import build_configured_system


def test_bench_map_sync_chain_depth(benchmark):
    """Algorithm 1 sync cost with a 40-deep live attack chain.

    Ending and reopening the chain's tail link changes what every host
    upstream of it reaches, so each round re-diffs all 40 maps.
    """
    kernel = Kernel()
    meter = EnergyMeter(kernel)
    accounting = EAndroidAccounting(kernel, meter)
    links = [
        accounting.begin_attack(AttackKind.SERVICE_BIND, 10000 + i, 10001 + i)
        for i in range(40)
    ]

    def end_and_reopen_tail():
        tail = links[-1]
        accounting.end_attack(tail)
        links[-1] = accounting.begin_attack(tail.kind, tail.driving_uid, tail.target)

    benchmark(end_and_reopen_tail)
    # The deepest host reaches every downstream app.
    assert len(accounting.maps.map_for(10000).open_targets()) == 40


def test_bench_windowed_energy_query(benchmark):
    """Window-energy queries over a trace with 10k breakpoints."""
    trace = PowerTrace()
    for i in range(10_000):
        trace.append(float(i), 100.0 + (i % 7))

    result = benchmark(lambda: trace.energy_j(2_000.0, 8_000.0))
    assert result > 0


def test_bench_monitor_journal_per_event(benchmark):
    """Hook + journal cost for one cross-app service start/stop pair."""
    system = build_configured_system("eandroid_framework")
    uid = system.uid_of("com.bench.self")
    svc = explicit("com.bench.other", "_OpService")

    def start_stop():
        system.am.start_service(uid, svc)
        system.am.stop_service(uid, svc)

    benchmark(start_stop)


def test_bench_simulated_hour_under_attack(benchmark):
    """Wall cost of simulating one attack-hour of virtual time."""
    from repro.apps import build_victim_app, VICTIM_PACKAGE
    from repro.attacks import build_multi_malware, MULTI_PACKAGE

    def simulate_hour():
        system = AndroidSystem()
        system.install(build_victim_app())
        system.install(build_multi_malware())
        system.boot()
        attach_eandroid(system)
        system.launch_app(MULTI_PACKAGE)
        system.run_for(3600.0)
        return system.battery.percent()

    percent = benchmark(simulate_hour)
    assert percent < 100.0


def test_bench_eandroid_report_generation(benchmark):
    """Cost of producing the revised battery interface view."""
    from repro.workloads.scenarios import run_multi_attack

    run = run_multi_attack()

    report = benchmark(lambda: run.eandroid.report(run.start, run.end))
    assert report.total_energy_j() > 0


def test_bench_offline_reconstruction(benchmark):
    """Cost of rebuilding the E-Android view from a serialised trace."""
    from repro.offline import DeviceTrace, OfflineAnalyzer, capture_trace
    from repro.workloads import run_day

    day = run_day(seed=3, hours=4.0, with_malware=True)
    text = capture_trace(day.system, day.eandroid).to_json()

    def reconstruct():
        analyzer = OfflineAnalyzer(DeviceTrace.from_json(text))
        return analyzer.eandroid_report()

    report = benchmark(reconstruct)
    assert report.total_energy_j() > 0


def test_bench_detector_scan(benchmark):
    """Cost of a full suspect scan after a day of attacks."""
    from repro.core import CollateralEnergyDetector
    from repro.workloads import run_day

    day = run_day(seed=3, hours=4.0, with_malware=True)
    detector = CollateralEnergyDetector(day.system, day.eandroid.accounting)
    suspects = benchmark(detector.rank_suspects)
    assert suspects
