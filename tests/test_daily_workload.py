"""Scale integration tests: a generated day of usage on one device."""

import pytest

from repro.accounting import BatteryStats, PowerTutor
from repro.check.oracles import map_link_consistency
from repro.core import SCREEN_TARGET
from repro.workloads import run_day


class TestDayGeneration:
    def test_deterministic_per_seed(self):
        first = run_day(seed=7, hours=2.0)
        second = run_day(seed=7, hours=2.0)
        assert first.log.launches == second.log.launches
        assert first.system.battery.percent() == pytest.approx(
            second.system.battery.percent()
        )

    def test_different_seeds_differ(self):
        a = run_day(seed=1, hours=2.0)
        b = run_day(seed=2, hours=2.0)
        assert a.log.launches != b.log.launches

    def test_sessions_happen(self):
        day = run_day(seed=42, hours=4.0)
        assert day.log.sessions >= 4
        assert sum(day.log.launches.values()) >= day.log.sessions

    def test_battery_drains_meaningfully(self):
        day = run_day(seed=42, hours=4.0)
        assert 0.0 <= day.system.battery.percent() < 100.0


class TestDayInvariants:
    @pytest.fixture(scope="class")
    def day(self):
        return run_day(seed=42, hours=6.0, with_malware=True)

    def test_energy_conservation_over_day(self, day):
        meter = day.system.hardware.meter
        assert meter.total_energy_j() == pytest.approx(
            sum(meter.energy_by_owner().values()), rel=1e-9
        )
        assert day.system.battery.energy_used_j() == pytest.approx(
            meter.total_energy_j(), rel=1e-9
        )

    def test_no_over_charging_over_day(self, day):
        meter = day.system.hardware.meter
        for host in day.eandroid.accounting.hosts():
            for target, joules in day.eandroid.accounting.collateral_breakdown(
                host
            ).items():
                ground = (
                    meter.screen_energy_j()
                    if target == SCREEN_TARGET
                    else meter.energy_j(owner=target)
                )
                assert joules <= ground + 1e-6

    def test_maps_match_reachability_at_end(self, day):
        assert map_link_consistency(day.system, day.eandroid) == []

    def test_malware_visible_in_eandroid_not_batterystats(self, day):
        stock = BatteryStats(day.system).report()
        revised = day.eandroid.report()
        # The wakelock malware shows almost nothing to BatteryStats...
        assert stock.percent_of("Qrscanner") < 1.0
        # ...but carries heavy collateral in the revised view.
        entry = revised.entry_for("Qrscanner")
        assert entry is not None and sum(entry.collateral_j.values()) > 100.0

    def test_powertutor_conserves_over_day(self, day):
        report = PowerTutor(day.system).report()
        assert report.total_energy_j() == pytest.approx(
            day.system.hardware.meter.total_energy_j(), rel=1e-6
        )

    def test_attack_links_accumulated(self, day):
        assert len(day.eandroid.accounting.attack_log()) > 5

    def test_malware_day_drains_more(self):
        clean = run_day(seed=42, hours=4.0, with_malware=False)
        infected = run_day(seed=42, hours=4.0, with_malware=True)
        assert (
            infected.system.battery.energy_used_j()
            > clean.system.battery.energy_used_j() * 1.2
        )
