"""Tests for E-Android accounting: Algorithm 1, Figs. 6-8, invariants."""

import pytest

from repro.accounting import BatteryStats, PowerTutor
from repro.android import SCREEN_BRIGHTNESS, explicit
from repro.core import (
    AttackKind,
    SCREEN_TARGET,
    attach_eandroid,
    attach_eandroid_powertutor,
)

from helpers import booted_system, make_app


@pytest.fixture
def rig():
    system = booted_system(
        make_app("com.appa"), make_app("com.appb"), make_app("com.appc")
    )
    # The paper's experimental setup: "For all experiments, we set the
    # wakelock so that the screen will be forced on" (§III-B) — held by
    # the system so no attack link is attributed to it.
    from repro.android import SCREEN_BRIGHT_WAKE_LOCK

    system.power_manager.acquire(
        system.package_manager.system_uid, SCREEN_BRIGHT_WAKE_LOCK, "test-rig"
    )
    return system, attach_eandroid(system)


class TestWindowedEnergy:
    def test_only_window_energy_charged(self, rig):
        """§IV-B: energy outside the attack lifecycle is never charged."""
        system, ea = rig
        a = system.uid_of("com.appa")
        b = system.uid_of("com.appb")
        svc = explicit("com.appb", "PlainService")
        # B burns CPU for 100 s before any attack.
        system.hardware.cpu.set_utilization(b, 0.5)
        system.run_for(100.0)
        conn = system.am.bind_service(a, svc)
        system.run_for(50.0)
        system.am.unbind_service(conn)
        system.run_for(100.0)
        b_in_window = system.hardware.meter.energy_j(owner=b, start=100.0, end=150.0)
        charged = ea.accounting.collateral_breakdown(a)[b]
        assert charged == pytest.approx(b_in_window)
        b_total = system.hardware.meter.energy_j(owner=b)
        assert charged < b_total / 3

    def test_no_double_charge_multi_collateral(self, rig):
        """Fig. 6: bind + start + interrupt on the same victim charge
        the union of windows, not the sum."""
        system, ea = rig
        a = system.uid_of("com.appa")
        b = system.uid_of("com.appb")
        system.hardware.cpu.set_utilization(b, 0.5)
        svc = explicit("com.appb", "PlainService")
        conn = system.am.bind_service(a, svc)
        system.am.start_activity(a, explicit("com.appb", "PlainActivity"))
        system.am.start_service(a, svc)
        system.run_for(60.0)
        charged = ea.accounting.collateral_breakdown(a)[b]
        b_energy = system.hardware.meter.energy_j(owner=b, start=0.0, end=60.0)
        # Three overlapping links, exactly one window's worth of charge.
        assert charged == pytest.approx(b_energy)
        assert len(ea.accounting.live_attacks()) >= 3

    def test_connection_revoked_only_after_all_attacks_end(self, rig):
        system, ea = rig
        a = system.uid_of("com.appa")
        b = system.uid_of("com.appb")
        system.hardware.cpu.set_utilization(b, 0.5)
        svc = explicit("com.appb", "PlainService")
        conn = system.am.bind_service(a, svc)
        system.am.start_service(a, svc)
        system.run_for(10.0)
        system.am.stop_service(a, svc)  # start-link ends, bind remains
        system.run_for(10.0)
        # Still charging: the one window reaches now.
        assert ea.accounting.map_for(a)[b] == [(0.0, 20.0)]
        system.am.unbind_service(conn)
        assert b not in ea.accounting.graph.reachable_from(a)
        system.run_for(5.0)
        # One contiguous 20 s window, closed at the unbind.
        assert ea.accounting.map_for(a)[b] == [(0.0, 20.0)]

    def test_collateral_never_exceeds_target_ground_truth(self, rig):
        system, ea = rig
        a = system.uid_of("com.appa")
        b = system.uid_of("com.appb")
        system.hardware.cpu.set_utilization(b, 0.7)
        conn = system.am.bind_service(a, explicit("com.appb", "PlainService"))
        system.run_for(500.0)
        charged = ea.accounting.collateral_breakdown(a)[b]
        assert charged <= system.hardware.meter.energy_j(owner=b) + 1e-9


class TestHybridChain:
    """Fig. 7: A binds B's service; B starts C; C changes brightness."""

    def run_chain(self, system, ea):
        a = system.uid_of("com.appa")
        b = system.uid_of("com.appb")
        c = system.uid_of("com.appc")
        system.hardware.cpu.set_utilization(b, 0.2)
        system.hardware.cpu.set_utilization(c, 0.3)
        conn = system.am.bind_service(a, explicit("com.appb", "PlainService"))
        system.am.start_activity(b, explicit("com.appc", "PlainActivity"))
        system.settings.put(c, SCREEN_BRIGHTNESS, 255)
        return a, b, c, conn

    def test_chain_charges_root(self, rig):
        system, ea = rig
        a, b, c, conn = self.run_chain(system, ea)
        system.run_for(30.0)
        breakdown = ea.accounting.collateral_breakdown(a)
        assert set(breakdown) == {b, c, SCREEN_TARGET}
        assert breakdown[c] > 0
        assert breakdown[SCREEN_TARGET] > 0

    def test_middle_app_charged_for_its_own_chain(self, rig):
        system, ea = rig
        a, b, c, conn = self.run_chain(system, ea)
        system.run_for(30.0)
        breakdown_b = ea.accounting.collateral_breakdown(b)
        assert set(breakdown_b) == {c, SCREEN_TARGET}

    def test_user_brightness_ends_screen_element_everywhere(self, rig):
        """Fig. 7: 'User sets brightness -> Screen attack End'."""
        system, ea = rig
        a, b, c, conn = self.run_chain(system, ea)
        system.run_for(30.0)
        system.systemui.user_set_brightness(100)
        ended = system.now
        graph = ea.accounting.graph
        assert graph.reachable_from(a) == {b, c}
        assert graph.reachable_from(b) == {c}
        system.run_for(10.0)
        map_a = ea.accounting.map_for(a)
        assert map_a[SCREEN_TARGET][-1][1] == ended
        assert ea.accounting.map_for(b)[SCREEN_TARGET][-1][1] == ended
        # Apps B and C are still charged to A — their links live on.
        assert map_a[b][-1][1] == system.now
        assert map_a[c][-1][1] == system.now

    def test_user_start_ends_chain_elements(self, rig):
        """Fig. 7: 'User starts B, C -> Collateral Attack End (B, C)'."""
        system, ea = rig
        a, b, c, conn = self.run_chain(system, ea)
        system.run_for(30.0)
        system.am.unbind_service(conn)
        system.launch_app("com.appc")
        assert ea.accounting.graph.reachable_from(a) == set()
        system.run_for(5.0)
        # every window of A's map closed before now
        assert all(
            spans[-1][1] < system.now
            for spans in ea.accounting.map_for(a).values()
        )

    def test_service_backpropagation(self, rig):
        """Algorithm 1 lines 11-15: binding an app that already drives
        others adopts its existing victims."""
        system, ea = rig
        b = system.uid_of("com.appb")
        c = system.uid_of("com.appc")
        a = system.uid_of("com.appa")
        # B already binds C's service...
        system.am.bind_service(b, explicit("com.appc", "PlainService"))
        system.run_for(10.0)
        # ...then A binds B: A's map must contain both B and C.
        system.am.bind_service(a, explicit("com.appb", "PlainService"))
        assert ea.accounting.graph.reachable_from(a) == {b, c}
        system.run_for(5.0)
        # But C's charge to A starts at the moment of A's bind, not B's.
        [(start, end)] = ea.accounting.map_for(a)[c]
        assert start == pytest.approx(10.0)
        assert end == system.now


class TestInterface:
    def test_report_superimposes_collateral(self, rig):
        system, ea = rig
        a = system.uid_of("com.appa")
        b = system.uid_of("com.appb")
        system.hardware.cpu.set_utilization(b, 0.8)
        system.am.bind_service(a, explicit("com.appb", "PlainService"))
        system.run_for(60.0)
        report = ea.report()
        entry_a = report.entry_for_uid(a)
        entry_b = report.entry_for_uid(b)
        assert entry_a is not None and entry_b is not None
        assert entry_a.collateral_j  # breakdown present
        assert entry_a.energy_j == pytest.approx(entry_b.energy_j)
        assert entry_a.own_energy_j == pytest.approx(0.0)

    def test_collateral_breakdown_labels(self, rig):
        system, ea = rig
        a = system.uid_of("com.appa")
        system.settings.put(a, SCREEN_BRIGHTNESS, 255)
        system.power_manager.user_activity()  # screen on
        system.run_for(20.0)
        entry = ea.interface.detailed_inventory(a)
        assert "Screen" in entry.collateral_j

    def test_no_collateral_matches_baseline(self, rig):
        """Invariant 6: without collateral events, E-Android == baseline."""
        system, ea = rig
        b = system.uid_of("com.appb")
        system.launch_app("com.appb")
        system.hardware.cpu.set_utilization(b, 0.4)
        system.run_for(60.0)
        baseline = BatteryStats(system).report()
        revised = ea.report()
        for entry in baseline.entries:
            matching = revised.entry_for(entry.label)
            assert matching is not None
            assert matching.energy_j == pytest.approx(entry.energy_j)
            assert not matching.collateral_j

    def test_powertutor_variant(self, rig):
        system, _ = rig
        ea_pt = attach_eandroid_powertutor(system)
        a = system.uid_of("com.appa")
        b = system.uid_of("com.appb")
        system.hardware.cpu.set_utilization(b, 0.5)
        system.am.bind_service(a, explicit("com.appb", "PlainService"))
        system.run_for(30.0)
        report = ea_pt.report()
        assert "PowerTutor" in report.profiler
        assert report.entry_for_uid(a).collateral_j

    def test_render_text_contains_collateral_lines(self, rig):
        system, ea = rig
        a = system.uid_of("com.appa")
        b = system.uid_of("com.appb")
        system.hardware.cpu.set_utilization(b, 0.5)
        system.am.bind_service(a, explicit("com.appb", "PlainService"))
        system.run_for(30.0)
        text = ea.report().render_text()
        assert "(collateral)" in text
        assert "Appa" in text

    def test_detached_monitor_records_nothing(self, rig):
        system, ea = rig
        ea.detach()
        a = system.uid_of("com.appa")
        system.am.bind_service(a, explicit("com.appb", "PlainService"))
        system.run_for(30.0)
        assert ea.accounting.attack_log() == []


class TestComponentInventory:
    def test_component_split(self, rig):
        system, ea = rig
        a = system.uid_of("com.appa")
        system.hardware.cpu.set_utilization(a, 0.5)
        system.hardware.gps.start(a)
        system.run_for(20.0)
        inventory = ea.interface.component_inventory(a)
        assert set(inventory) == {"cpu", "gps"}
        assert inventory["gps"] > inventory["cpu"]

    def test_render_app_detail(self, rig):
        system, ea = rig
        a = system.uid_of("com.appa")
        b = system.uid_of("com.appb")
        system.hardware.cpu.set_utilization(a, 0.2)
        system.hardware.cpu.set_utilization(b, 0.4)
        system.am.bind_service(a, explicit("com.appb", "PlainService"))
        system.run_for(30.0)
        text = ea.interface.render_app_detail(a)
        assert "own energy by component" in text
        assert "collateral energy by source" in text
        assert "Appb" in text

    def test_render_detail_empty_app(self, rig):
        system, ea = rig
        a = system.uid_of("com.appa")
        text = ea.interface.render_app_detail(a)
        assert "none recorded" in text
