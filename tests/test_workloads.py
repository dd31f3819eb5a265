"""Tests for the evaluation workloads: scenarios, microbench, AnTuTu."""

import pytest

from repro.telemetry import Category
from repro.workloads import (
    AnTuTuBenchmark,
    BoxplotStats,
    CONFIGURATIONS,
    MICRO_OPERATIONS,
    MicroBenchmark,
    build_configured_system,
    run_attack5,
    run_attack6,
    run_fig3_drains,
    run_scene1,
    run_scene2,
)


class TestScenes:
    def test_scene1_android_blames_camera(self):
        run = run_scene1()
        report = run.android_report()
        assert report.percent_of("Camera") > 10 * max(
            report.percent_of("Message"), 0.1
        )

    def test_scene1_eandroid_reveals_message(self):
        run = run_scene1()
        report = run.eandroid_report()
        message = report.entry_for("Message")
        camera = report.entry_for("Camera")
        assert message.collateral_j.get("Camera", 0.0) == pytest.approx(
            camera.energy_j, rel=0.01
        )

    def test_scene2_chain_charges_contacts(self):
        run = run_scene2()
        report = run.eandroid_report()
        contacts = report.entry_for("Contacts")
        assert "Camera" in contacts.collateral_j
        assert "Message" in contacts.collateral_j

    def test_scene_windows_cover_script(self):
        run = run_scene1()
        assert run.end - run.start == pytest.approx(61.0)


class TestAttackControls:
    def test_attack5_attack_beats_normal(self):
        attack = run_attack5(duration=60.0)
        normal = run_attack5(duration=60.0, attack=False)
        attack_screen = attack.system.hardware.meter.screen_energy_j(
            start=attack.start, end=attack.end
        )
        normal_screen = normal.system.hardware.meter.screen_energy_j(
            start=normal.start, end=normal.end
        )
        assert attack_screen > normal_screen * 1.3

    def test_attack6_attack_beats_normal(self):
        attack = run_attack6(duration=60.0)
        normal = run_attack6(duration=60.0, attack=False)
        attack_screen = attack.system.hardware.meter.screen_energy_j(
            start=attack.start, end=attack.end
        )
        normal_screen = normal.system.hardware.meter.screen_energy_j(
            start=normal.start, end=normal.end
        )
        # Normal: screen times out after 30 s; attack: pinned on for 60 s.
        assert attack_screen > normal_screen * 1.5


class TestFig3Drains:
    @pytest.fixture(scope="class")
    def drains(self):
        return {d.name: d for d in run_fig3_drains()}

    def test_five_series(self, drains):
        assert set(drains) == {
            "brightness_low",
            "brightness_10",
            "brightness_full",
            "bind_service",
            "interrupt_app",
        }

    def test_full_brightness_fastest(self, drains):
        fastest = min(drains.values(), key=lambda d: d.hours_to_dead)
        assert fastest.name == "brightness_full"

    def test_baseline_slowest(self, drains):
        slowest = max(drains.values(), key=lambda d: d.hours_to_dead)
        assert slowest.name == "brightness_low"

    def test_small_brightness_increase_costs_battery(self, drains):
        assert (
            drains["brightness_10"].hours_to_dead
            < drains["brightness_low"].hours_to_dead
        )

    def test_hours_in_plausible_range(self, drains):
        for drain in drains.values():
            assert 3.0 < drain.hours_to_dead < 30.0

    def test_curves_monotone(self, drains):
        for drain in drains.values():
            percents = [s.percent for s in drain.curve]
            assert all(a >= b for a, b in zip(percents, percents[1:]))
            assert percents[-1] == pytest.approx(0.0, abs=0.5)

    def test_percent_at_hours(self, drains):
        drain = drains["brightness_full"]
        assert drain.percent_at_hours(0.0) == pytest.approx(100.0)
        assert drain.percent_at_hours(drain.hours_to_dead) == pytest.approx(0.0)


class TestMicroBenchmark:
    def test_boxplot_outlier_policy(self):
        samples = [100.0, 90.0] + [1.0] * 46 + [0.001, 0.002]
        stats = BoxplotStats.from_samples("op", "android", samples)
        assert stats.samples == 46
        assert stats.maximum == 1.0
        assert stats.minimum == 1.0

    def test_boxplot_small_sample_kept(self):
        stats = BoxplotStats.from_samples("op", "android", [1.0, 2.0, 3.0])
        assert stats.samples == 3
        assert stats.median == 2.0

    def test_quartiles_ordered(self):
        stats = BoxplotStats.from_samples(
            "op", "android", [float(i) for i in range(50)]
        )
        assert stats.minimum <= stats.q1 <= stats.median <= stats.q3 <= stats.maximum

    @pytest.mark.parametrize("operation", MICRO_OPERATIONS)
    def test_each_operation_measurable(self, operation):
        bench = MicroBenchmark(iterations=6)
        stats = bench.measure(operation, "android")
        assert stats.median >= 0.0
        assert stats.samples > 0

    def test_all_configurations_build(self):
        for configuration in CONFIGURATIONS:
            system = build_configured_system(configuration)
            monitored = [
                system.telemetry.wants(category)
                for category in (
                    Category.ACTIVITY,
                    Category.SERVICE,
                    Category.WAKELOCK,
                    Category.SCREEN,
                )
            ]
            if configuration == "android":
                assert not any(monitored)
            else:
                assert all(monitored)

    def test_unknown_configuration_rejected(self):
        with pytest.raises(ValueError):
            build_configured_system("ios")

    def test_unknown_operation_rejected(self):
        bench = MicroBenchmark(iterations=1)
        with pytest.raises(ValueError):
            bench.measure("frobnicate", "android")

    def test_render_text_grid(self):
        bench = MicroBenchmark(iterations=5)
        result = bench.run_all()
        text = result.render_text()
        for operation in MICRO_OPERATIONS:
            assert operation in text


class TestAnTuTu:
    def test_scores_positive(self):
        result = AnTuTuBenchmark(rounds=3, inner=200).run("android")
        assert result.total > 0
        assert all(score > 0 for score in result.scores.values())

    def test_compare_has_both(self):
        results = AnTuTuBenchmark(rounds=3, inner=200).compare()
        assert set(results) == {"android", "eandroid"}
        # Similar performance within a generous noise band at tiny sizes.
        ratio = results["eandroid"].total / results["android"].total
        assert 0.3 < ratio < 3.0

    def test_unknown_configuration_rejected(self):
        with pytest.raises(ValueError):
            AnTuTuBenchmark(rounds=1, inner=10).run("webos")


class TestProfileRobustness:
    """The Fig. 3 shape must hold on a different device profile."""

    def test_fig3_ordering_on_tablet(self):
        from repro.power import TABLET

        drains = {d.name: d for d in run_fig3_drains(profile=TABLET)}
        hours = {name: d.hours_to_dead for name, d in drains.items()}
        assert hours["brightness_full"] < hours["bind_service"] < hours["brightness_low"]
        assert hours["brightness_10"] < hours["brightness_low"]
        assert hours["interrupt_app"] < hours["brightness_low"]

    def test_tablet_battery_bigger_but_screen_hungrier(self):
        from repro.power import NEXUS4, TABLET

        assert TABLET.battery_capacity_j > NEXUS4.battery_capacity_j
        assert TABLET.screen.power_mw(255) > NEXUS4.screen.power_mw(255)


class TestMemoryOverhead:
    """§VI-B memory aspect: E-Android's state is event-bounded."""

    def test_reports_for_both_configurations(self):
        from repro.workloads import measure_memory_overhead

        reports = measure_memory_overhead()
        assert set(reports) == {"android", "eandroid"}
        assert reports["android"].heap_growth_kib > 0
        assert reports["eandroid"].journal_entries > 0
        assert "heap growth" in reports["eandroid"].render_text()

    def test_overhead_bounded(self):
        from repro.workloads import measure_memory_overhead

        reports = measure_memory_overhead()
        # The monitor's state for this workload is tens of KiB, not MiB.
        extra = (
            reports["eandroid"].heap_growth_kib
            - reports["android"].heap_growth_kib
        )
        assert extra < 512.0

    def test_state_scales_with_events_not_time(self):
        """Idle virtual hours add no monitor state."""
        from repro.android import AndroidSystem
        from repro.apps import build_victim_app
        from repro.core import attach_eandroid

        system = AndroidSystem()
        system.install(build_victim_app())
        system.boot()
        ea = attach_eandroid(system)
        baseline_journal = len(ea.monitor.log)
        system.run_for(24 * 3600.0)  # a silent day
        assert len(ea.monitor.log) <= baseline_journal + 2  # timeout events only
        assert ea.accounting.attack_log() == []
