"""Failure injection: processes dying at the worst possible moments.

The paper's accounting has to survive a hostile environment — malware
killed mid-attack, victims force-stopped mid-window, whole chains
collapsing at once.  These tests kill things at every stage and check
the trackers, maps, and framework stay consistent.
"""

import pytest

from repro.android import (
    ActivityState,
    SCREEN_BRIGHT_WAKE_LOCK,
    ServiceState,
    explicit,
)
from repro.core import AttackKind, SCREEN_TARGET, attach_eandroid

from helpers import booted_system, make_app


@pytest.fixture
def rig():
    system = booted_system(
        make_app("com.mal"), make_app("com.vic"), make_app("com.third")
    )
    system.power_manager.acquire(
        system.package_manager.system_uid, SCREEN_BRIGHT_WAKE_LOCK, "rig"
    )
    return system, attach_eandroid(system)


class TestMalwareKilledMidAttack:
    def test_bind_attack_survives_malware_death(self, rig):
        system, ea = rig
        system.launch_app("com.mal")
        mal = system.uid_of("com.mal")
        vic = system.uid_of("com.vic")
        system.hardware.cpu.set_utilization(vic, 0.4)
        system.am.bind_service(mal, explicit("com.vic", "PlainService"))
        system.run_for(30.0)
        system.am.force_stop("com.mal")
        # The binding died with the process; the window closed at 30 s.
        link = ea.accounting.attacks_by_kind(AttackKind.SERVICE_BIND)[0]
        assert not link.alive
        charged = ea.accounting.collateral_breakdown(mal)[vic]
        in_window = system.hardware.meter.energy_j(owner=vic, end=link.end_time)
        assert charged == pytest.approx(in_window)
        # Energy after the death is NOT charged.
        system.run_for(60.0)
        assert ea.accounting.collateral_breakdown(mal)[vic] == pytest.approx(charged)

    def test_activity_attack_record_survives_malware_death(self, rig):
        system, ea = rig
        system.launch_app("com.mal")
        mal = system.uid_of("com.mal")
        system.am.start_activity(mal, explicit("com.vic", "PlainActivity"))
        system.am.force_stop("com.mal")
        # Activity link is about the victim's state, not the malware's
        # process — it stays alive until the victim is (re)started.
        assert any(
            l.kind == AttackKind.ACTIVITY and l.alive
            for l in ea.accounting.attack_log()
        )
        system.launch_app("com.vic")
        assert all(
            not l.alive
            for l in ea.accounting.attacks_by_kind(AttackKind.ACTIVITY)
        )


class TestVictimKilledMidAttack:
    def test_victim_force_stop_closes_service_links(self, rig):
        system, ea = rig
        mal = system.uid_of("com.mal")
        system.am.bind_service(mal, explicit("com.vic", "PlainService"))
        system.am.start_service(mal, explicit("com.vic", "PlainService"))
        system.run_for(10.0)
        system.am.force_stop("com.vic")
        assert ea.accounting.live_attacks() == []
        assert not system.am.running_services()

    def test_victim_death_releases_wakelock_and_link(self, rig):
        system, ea = rig
        system.launch_app("com.vic")
        vic = system.uid_of("com.vic")
        system.power_manager.acquire(vic, SCREEN_BRIGHT_WAKE_LOCK, "leak")
        system.press_home()
        assert any(
            l.kind == AttackKind.WAKELOCK for l in ea.accounting.live_attacks()
        )
        system.am.force_stop("com.vic")
        assert all(
            l.kind != AttackKind.WAKELOCK for l in ea.accounting.live_attacks()
        )
        assert system.power_manager.held_locks(vic) == []


class TestChainCollapse:
    def test_middle_of_chain_dies(self, rig):
        system, ea = rig
        mal = system.uid_of("com.mal")
        mid = system.uid_of("com.vic")
        leaf = system.uid_of("com.third")
        system.am.bind_service(mal, explicit("com.vic", "PlainService"))
        system.am.bind_service(mid, explicit("com.third", "PlainService"))
        assert ea.accounting.graph.reachable_from(mal) == {mid, leaf}
        system.run_for(5.0)
        system.am.force_stop("com.vic")
        # Both hops through the middle app die: malware's map closes.
        assert ea.accounting.graph.reachable_from(mal) == set()
        system.run_for(1.0)
        # The charge windows were archived intact.
        assert ea.accounting.map_for(mal)[leaf] == [(0.0, 5.0)]

    def test_whole_cast_dies_no_dangling_state(self, rig):
        system, ea = rig
        mal = system.uid_of("com.mal")
        system.launch_app("com.mal")
        system.am.bind_service(mal, explicit("com.vic", "PlainService"))
        system.am.start_activity(mal, explicit("com.third", "PlainActivity"))
        for package in ("com.mal", "com.vic", "com.third"):
            system.am.force_stop(package)
        assert system.am.running_services() == []
        for package in ("com.mal", "com.vic", "com.third"):
            uid = system.uid_of(package)
            assert system.processes.processes_of_uid(uid) == []
        # Only the activity link (victim never restarted) may live on.
        for link in ea.accounting.live_attacks():
            assert link.kind in (AttackKind.ACTIVITY, AttackKind.INTERRUPT)


class TestFrameworkEdgeCases:
    def test_double_force_stop_is_error_free(self, rig):
        system, _ = rig
        system.launch_app("com.vic")
        system.am.force_stop("com.vic")
        system.am.force_stop("com.vic")  # idempotent: nothing to kill

    def test_restart_after_force_stop(self, rig):
        system, _ = rig
        system.launch_app("com.vic")
        system.am.force_stop("com.vic")
        record = system.launch_app("com.vic")
        assert record.state == ActivityState.RESUMED
        app = system.package_manager.app_for_package("com.vic")
        assert app.process is not None and app.process.alive

    def test_service_restart_after_death(self, rig):
        system, _ = rig
        mal = system.uid_of("com.mal")
        system.am.start_service(mal, explicit("com.vic", "PlainService"))
        system.am.force_stop("com.vic")
        record = system.am.start_service(mal, explicit("com.vic", "PlainService"))
        assert record.state == ServiceState.RUNNING

    def test_dialog_tap_with_no_dialog(self, rig):
        system, _ = rig
        system.launch_app("com.vic")
        system.tap_dialog_ok()  # PlainActivity has no handler: no-op

    def test_back_press_on_empty_screen(self, rig):
        system, _ = rig
        # Home screen: back swallowed by the launcher.
        system.press_back()
        assert system.foreground_package() == "com.android.launcher"

    def test_kernel_error_handler_isolates_bad_app_code(self, rig):
        system, _ = rig
        errors = []
        system.kernel.set_error_handler(lambda event, exc: errors.append(exc))
        system.kernel.call_later(1.0, lambda: 1 / 0, name="buggy-app-callback")
        system.run_for(2.0)
        assert len(errors) == 1
        # The device keeps working afterwards.
        system.launch_app("com.vic")
        assert system.foreground_package() == "com.vic"

    def test_uninstall_running_app_then_reports_still_work(self, rig):
        system, ea = rig
        system.launch_app("com.vic")
        vic = system.uid_of("com.vic")
        system.hardware.cpu.set_utilization(vic, 0.3)
        system.run_for(10.0)
        system.am.force_stop("com.vic")
        system.hardware.cpu.set_utilization(vic, 0.0)
        system.package_manager.uninstall("com.vic")
        report = ea.report()
        # The uid's history remains, labelled by the fallback.
        assert report.entry_for(f"uid:{vic}") is not None


class TestUninstall:
    def test_uninstall_running_app_tears_everything_down(self, rig):
        """§I: the battery interface exists so users can delete energy
        hogs — deleting must stop the drain."""
        system, ea = rig
        system.launch_app("com.mal")
        mal = system.uid_of("com.mal")
        system.am.bind_service(mal, explicit("com.vic", "PlainService"))
        lock = system.power_manager.acquire(mal, SCREEN_BRIGHT_WAKE_LOCK, "l")
        system.run_for(10.0)
        system.uninstall("com.mal")
        assert not system.package_manager.is_installed("com.mal")
        assert not lock.held
        assert system.am.running_services() == []  # victim's service unbound
        assert system.hardware.meter.current_power_mw(mal) == 0.0

    def test_uninstall_idle_app(self, rig):
        system, _ = rig
        system.uninstall("com.third")
        assert not system.package_manager.is_installed("com.third")
