"""Integration tests for the six collateral energy attacks (+ variants).

Each test checks both halves of the paper's claim:
(1) the attack drains real energy while the malware's *direct* ledger
    stays near zero (stealth against Android/BatteryStats);
(2) E-Android's collateral accounting exposes the malware.
"""

import pytest

from repro.accounting import BatteryStats
from repro.android import AndroidSystem, ServiceState, explicit
from repro.apps import (
    CAMERA_PACKAGE,
    VICTIM_PACKAGE,
    build_camera_app,
    build_victim_app,
)
from repro.attacks import (
    BACKGROUND_PACKAGE,
    BIND_PACKAGE,
    BRIGHTNESS_PACKAGE,
    HIJACK_PACKAGE,
    HYBRID_PACKAGE,
    INTERRUPT_PACKAGE,
    MULTI_PACKAGE,
    RELAY_B_PACKAGE,
    RELAY_C_PACKAGE,
    WAKELOCK_PACKAGE,
    build_background_malware,
    build_bind_malware,
    build_brightness_malware,
    build_hijack_malware,
    build_hybrid_malware,
    build_interrupt_malware,
    build_multi_malware,
    build_relay_b,
    build_relay_c,
    build_wakelock_malware,
)
from repro.core import SCREEN_TARGET, attach_eandroid


def rig(*apps):
    system = AndroidSystem()
    for app in apps:
        system.install(app)
    system.boot()
    return system, attach_eandroid(system)


class TestAttack1Hijack:
    def test_camera_hijack_charges_malware(self):
        system, ea = rig(build_camera_app(), build_hijack_malware())
        system.launch_app(HIJACK_PACKAGE)
        system.run_for(60.0)
        malware = system.uid_of(HIJACK_PACKAGE)
        camera = system.uid_of(CAMERA_PACKAGE)
        # Stealth: Android sees (almost) nothing on the malware.
        android = BatteryStats(system).report()
        assert android.percent_of("Flashlight") < 1.0
        assert android.entry_for_uid(camera).energy_j > 10.0
        # E-Android: the camera's burn lands on the malware.
        breakdown = ea.accounting.collateral_breakdown(malware)
        assert breakdown[camera] == pytest.approx(
            system.hardware.meter.energy_j(owner=camera), rel=0.01
        )

    def test_no_permissions_needed(self):
        malware = build_hijack_malware()
        assert malware.manifest.uses_permissions == frozenset()


class TestAttack2Background:
    def test_victims_buried_and_draining(self):
        system, ea = rig(build_victim_app(), build_background_malware())
        system.launch_app(BACKGROUND_PACKAGE)
        assert system.foreground_package() == BACKGROUND_PACKAGE
        victim = system.uid_of(VICTIM_PACKAGE)
        records = system.am.supervisor.records_of_uid(victim)
        assert records and not any(r.visible for r in records)
        start = system.now
        system.run_for(60.0)
        # Victim drains in the background...
        assert system.hardware.meter.energy_j(owner=victim, start=start) > 1.0
        # ...and E-Android charges it to the malware.
        malware = system.uid_of(BACKGROUND_PACKAGE)
        assert victim in ea.accounting.collateral_breakdown(malware)


class TestAttack3BindService:
    def test_bind_keeps_stopped_service_alive(self):
        system, ea = rig(build_victim_app(), build_bind_malware())
        system.launch_app(BIND_PACKAGE)
        system.press_home()
        # Victim starts its own service, then stops it immediately (§VI-A).
        victim = system.uid_of(VICTIM_PACKAGE)
        svc = explicit(VICTIM_PACKAGE, "VictimWorkService")
        record = system.am.start_service(victim, svc)
        system.run_for(1.0)  # malware's poll notices and binds
        system.am.stop_service(victim, svc)
        assert record.state == ServiceState.RUNNING  # malware keeps it alive
        system.run_for(60.0)
        malware = system.uid_of(BIND_PACKAGE)
        breakdown = ea.accounting.collateral_breakdown(malware)
        assert breakdown[victim] > 0

    def test_attack_window_excludes_pre_bind_energy(self):
        system, ea = rig(build_victim_app(), build_bind_malware())
        system.launch_app(BIND_PACKAGE)
        system.press_home()
        victim = system.uid_of(VICTIM_PACKAGE)
        svc = explicit(VICTIM_PACKAGE, "VictimWorkService")
        system.am.start_service(victim, svc)
        system.run_for(1.0)
        bind_time = 0.5  # malware polls at 0.5 s cadence after launch
        system.run_for(60.0)
        malware = system.uid_of(BIND_PACKAGE)
        charged = ea.accounting.collateral_breakdown(malware)[victim]
        total = system.hardware.meter.energy_j(owner=victim)
        assert charged <= total


class TestAttack4Interrupt:
    def run_attack(self):
        system, ea = rig(build_victim_app(), build_interrupt_malware())
        system.launch_app(INTERRUPT_PACKAGE)
        system.press_home()
        system.launch_app(VICTIM_PACKAGE)
        system.run_for(5.0)
        system.press_back()  # exit dialog appears
        system.run_for(1.0)  # side channel fires; cover placed
        system.tap_dialog_ok()  # user "quits"; actually goes to stop state
        return system, ea

    def test_victim_survives_fake_quit_with_wakelock(self):
        system, ea = self.run_attack()
        victim = system.uid_of(VICTIM_PACKAGE)
        records = system.am.supervisor.records_of_uid(victim)
        assert records  # not destroyed
        assert system.power_manager.holds_screen_lock(victim)
        system.run_for(3600.0)
        assert system.display.is_screen_on  # wakelock pins the screen

    def test_eandroid_charges_malware_for_screen(self):
        system, ea = self.run_attack()
        system.run_for(60.0)
        malware = system.uid_of(INTERRUPT_PACKAGE)
        victim = system.uid_of(VICTIM_PACKAGE)
        breakdown = ea.accounting.collateral_breakdown(malware)
        assert victim in breakdown
        assert SCREEN_TARGET in breakdown  # via the victim's wakelock link

    def test_android_blames_victim_not_malware(self):
        system, ea = self.run_attack()
        system.run_for(60.0)
        report = BatteryStats(system).report()
        assert report.percent_of("Compass") < 1.0

    def test_side_channel_detects_only_exit_dialog(self):
        system, ea = rig(build_victim_app(), build_interrupt_malware())
        system.launch_app(INTERRUPT_PACKAGE)
        system.press_home()
        system.launch_app(VICTIM_PACKAGE)
        # No dialog: malware must NOT cover anything.
        system.run_for(10.0)
        assert system.foreground_package() == VICTIM_PACKAGE


class TestAttack5Brightness:
    def test_background_brightness_bump(self):
        system, ea = rig(build_victim_app(), build_brightness_malware(delta_levels=60))
        before = system.display.brightness
        system.launch_app(BRIGHTNESS_PACKAGE)
        system.run_for(0.1)
        assert system.display.brightness == before + 60
        # The self-close activity is gone; foreground is malware's main UI.
        assert system.foreground_package() == BRIGHTNESS_PACKAGE

    def test_auto_mode_camouflage(self):
        system, ea = rig(build_brightness_malware(delta_levels=60))
        system.systemui.user_set_auto_mode(True)
        auto_level = system.display.auto_brightness
        system.launch_app(BRIGHTNESS_PACKAGE)
        system.run_for(0.1)
        assert not system.display.is_auto_mode
        assert system.display.brightness == min(255, auto_level + 60)

    def test_eandroid_charges_malware_for_screen(self):
        system, ea = rig(build_brightness_malware(target_level=255))
        system.launch_app(BRIGHTNESS_PACKAGE)
        system.run_for(60.0)
        malware = system.uid_of(BRIGHTNESS_PACKAGE)
        breakdown = ea.accounting.collateral_breakdown(malware)
        assert breakdown[SCREEN_TARGET] > 0

    def test_user_slider_ends_attack(self):
        system, ea = rig(build_brightness_malware(target_level=255))
        system.launch_app(BRIGHTNESS_PACKAGE)
        system.run_for(10.0)
        system.systemui.user_set_brightness(100)
        assert ea.accounting.live_attacks() == [] or all(
            l.kind.value != "screen" for l in ea.accounting.live_attacks()
        )


class TestAttack6Wakelock:
    def test_background_lock_keeps_screen_on(self):
        system, ea = rig(build_victim_app(), build_wakelock_malware())
        system.launch_app(WAKELOCK_PACKAGE)
        system.press_home()
        system.launch_app(VICTIM_PACKAGE)
        system.run_for(3600.0)
        assert system.display.is_screen_on

    def test_eandroid_charges_malware_for_screen(self):
        system, ea = rig(build_victim_app(), build_wakelock_malware())
        system.launch_app(VICTIM_PACKAGE)
        system.press_home()
        system.launch_app(WAKELOCK_PACKAGE)
        system.press_home()  # malware's lock acquired while foreground? no:
        # the service acquired it when the activity resumed; by pressing
        # home the malware leaves the foreground with the lock held.
        system.run_for(60.0)
        malware = system.uid_of(WAKELOCK_PACKAGE)
        breakdown = ea.accounting.collateral_breakdown(malware)
        assert SCREEN_TARGET in breakdown
        assert breakdown[SCREEN_TARGET] > 0


class TestMultiAttack:
    def test_union_not_sum(self):
        system, ea = rig(build_victim_app(), build_multi_malware())
        system.launch_app(MULTI_PACKAGE)
        system.run_for(60.0)
        malware = system.uid_of(MULTI_PACKAGE)
        victim = system.uid_of(VICTIM_PACKAGE)
        charged = ea.accounting.collateral_breakdown(malware)[victim]
        ground = system.hardware.meter.energy_j(owner=victim)
        assert charged <= ground + 1e-9
        assert charged > 0

    def test_several_live_links_one_open_window(self):
        system, ea = rig(build_victim_app(), build_multi_malware())
        system.launch_app(MULTI_PACKAGE)
        malware = system.uid_of(MULTI_PACKAGE)
        victim = system.uid_of(VICTIM_PACKAGE)
        live = [l for l in ea.accounting.live_attacks() if l.target == victim]
        assert len(live) >= 3  # bind + start + activity (+ interrupt)
        began = max(l.begin_time for l in live)
        system.run_for(1.0)
        # one window, open since the links began and still charging now
        [(start, end)] = ea.accounting.map_for(malware)[victim]
        assert start <= began
        assert end == system.now


class TestHybridChain:
    def test_chain_reaches_screen(self):
        system, ea = rig(
            build_relay_b(), build_relay_c(), build_hybrid_malware()
        )
        system.launch_app(HYBRID_PACKAGE)
        system.run_for(30.0)
        malware = system.uid_of(HYBRID_PACKAGE)
        b = system.uid_of(RELAY_B_PACKAGE)
        c = system.uid_of(RELAY_C_PACKAGE)
        breakdown = ea.accounting.collateral_breakdown(malware)
        assert set(breakdown) >= {b, c, SCREEN_TARGET}

    def test_brightness_raised_by_leaf(self):
        system, ea = rig(build_relay_b(), build_relay_c(), build_hybrid_malware())
        system.launch_app(HYBRID_PACKAGE)
        system.run_for(1.0)
        assert system.display.brightness == 255


class TestAutoStart:
    def test_malware_autostarts_on_unlock(self):
        system, ea = rig(build_camera_app(), build_hijack_malware())
        # Never tapped: the unlock broadcast wakes the payload.
        system.unlock_screen()
        system.run_for(10.0)
        camera = system.uid_of(CAMERA_PACKAGE)
        assert system.hardware.meter.energy_j(owner=camera) > 0


class TestMultiVictimBackground:
    def test_three_victims_buried_and_charged(self):
        """§III-B attack #2: 'malware can open other apps concurrently'."""
        from repro.apps.demo import build_victim_app
        from repro.attacks.background import build_background_malware

        victims = [
            ("com.victim.one", "VictimMainActivity"),
            ("com.victim.two", "VictimMainActivity"),
            ("com.victim.three", "VictimMainActivity"),
        ]
        system = AndroidSystem()
        for package, _ in victims:
            system.install(build_victim_app(package=package))
        system.install(build_background_malware(targets=tuple(victims)))
        system.boot()
        ea = attach_eandroid(system)
        system.launch_app(BACKGROUND_PACKAGE)
        system.run_for(60.0)
        malware = system.uid_of(BACKGROUND_PACKAGE)
        breakdown = ea.accounting.collateral_breakdown(malware)
        for package, _ in victims:
            uid = system.uid_of(package)
            records = system.am.supervisor.records_of_uid(uid)
            assert records and not any(r.visible for r in records)
            assert breakdown.get(uid, 0.0) > 0


class TestContextPermissionChecks:
    def test_camera_requires_permission(self):
        from helpers import make_app
        from repro.android import Context, SecurityException

        system = AndroidSystem()
        app = system.install(make_app("com.nocam", permissions=()))
        system.boot()
        context = Context(system, app)
        with pytest.raises(SecurityException):
            context.open_camera()

    def test_gps_requires_permission(self):
        from helpers import make_app
        from repro.android import Context, SecurityException

        system = AndroidSystem()
        app = system.install(make_app("com.nogps", permissions=()))
        system.boot()
        context = Context(system, app)
        with pytest.raises(SecurityException):
            context.start_gps()


class TestGpsHogExtension:
    def test_gps_hog_charges_malware(self):
        from repro.apps import MAPS_PACKAGE, build_maps_app
        from repro.attacks import GPS_HOG_PACKAGE, build_gps_hog_malware

        system, ea = rig(build_maps_app(), build_gps_hog_malware())
        system.launch_app(GPS_HOG_PACKAGE)
        system.press_home()
        assert system.hardware.gps.is_on()
        system.run_for(120.0)
        malware = system.uid_of(GPS_HOG_PACKAGE)
        maps_uid = system.uid_of(MAPS_PACKAGE)
        breakdown = ea.accounting.collateral_breakdown(malware)
        assert breakdown[maps_uid] == pytest.approx(
            system.hardware.meter.energy_j(owner=maps_uid), rel=0.01
        )
        # Stealth: stock Android shows nothing on the converter.
        assert BatteryStats(system).report().percent_of("Unitconverter") < 1.0

    def test_no_permissions_needed(self):
        from repro.attacks import build_gps_hog_malware

        assert build_gps_hog_malware().manifest.uses_permissions == frozenset()
