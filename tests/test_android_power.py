"""Tests for wakelocks, screen timeout, suspend, and display policy."""

import pytest

from repro.android import (
    BRIGHTNESS_MODE_AUTOMATIC,
    BRIGHTNESS_MODE_MANUAL,
    BadStateError,
    FULL_WAKE_LOCK,
    PARTIAL_WAKE_LOCK,
    SCREEN_BRIGHT_WAKE_LOCK,
    SCREEN_BRIGHTNESS,
    SCREEN_BRIGHTNESS_MODE,
    SCREEN_OFF_TIMEOUT,
    SecurityException,
    WAKE_LOCK,
    explicit,
)

from helpers import booted_system, make_app


@pytest.fixture
def system():
    return booted_system(make_app("com.app"), make_app("com.nopermission", permissions=()))


class TestWakelockBasics:
    def test_acquire_requires_permission(self, system):
        uid = system.uid_of("com.nopermission")
        with pytest.raises(SecurityException):
            system.power_manager.acquire(uid, PARTIAL_WAKE_LOCK, "test")

    def test_unknown_type_rejected(self, system):
        uid = system.uid_of("com.app")
        with pytest.raises(ValueError):
            system.power_manager.acquire(uid, "BOGUS_LOCK", "test")

    def test_acquire_release_cycle(self, system):
        uid = system.uid_of("com.app")
        lock = system.power_manager.acquire(uid, PARTIAL_WAKE_LOCK, "cpu")
        assert lock.held
        assert system.power_manager.held_locks(uid) == [lock]
        lock.release()
        assert not lock.held
        assert system.power_manager.held_locks(uid) == []

    def test_double_release_rejected(self, system):
        uid = system.uid_of("com.app")
        lock = system.power_manager.acquire(uid, PARTIAL_WAKE_LOCK, "cpu")
        lock.release()
        with pytest.raises(BadStateError):
            lock.release()

    def test_holds_screen_lock(self, system):
        uid = system.uid_of("com.app")
        system.power_manager.acquire(uid, PARTIAL_WAKE_LOCK, "cpu")
        assert not system.power_manager.holds_screen_lock(uid)
        system.power_manager.acquire(uid, SCREEN_BRIGHT_WAKE_LOCK, "scr")
        assert system.power_manager.holds_screen_lock(uid)


class TestScreenTimeout:
    def test_screen_times_out_without_lock(self, system):
        assert system.display.is_screen_on
        system.run_for(31.0)
        assert not system.display.is_screen_on

    def test_device_suspends_after_timeout(self, system):
        system.run_for(31.0)
        assert system.hardware.suspended

    def test_screen_lock_prevents_timeout(self, system):
        system.launch_app("com.app")
        uid = system.uid_of("com.app")
        system.power_manager.acquire(uid, SCREEN_BRIGHT_WAKE_LOCK, "keep-on")
        system.run_for(3600.0)
        assert system.display.is_screen_on
        assert not system.hardware.suspended

    def test_release_restarts_timeout(self, system):
        system.launch_app("com.app")
        uid = system.uid_of("com.app")
        lock = system.power_manager.acquire(uid, SCREEN_BRIGHT_WAKE_LOCK, "keep-on")
        system.run_for(120.0)
        lock.release()
        system.run_for(31.0)
        assert not system.display.is_screen_on

    def test_partial_lock_prevents_suspend_not_screen_off(self, system):
        system.launch_app("com.app")
        uid = system.uid_of("com.app")
        system.power_manager.acquire(uid, PARTIAL_WAKE_LOCK, "cpu")
        system.run_for(60.0)
        assert not system.display.is_screen_on
        assert not system.hardware.suspended

    def test_user_activity_resets_timeout(self, system):
        system.run_for(25.0)
        system.power_manager.user_activity()
        system.run_for(25.0)
        assert system.display.is_screen_on
        system.run_for(10.0)
        assert not system.display.is_screen_on

    def test_custom_timeout_setting(self, system):
        system.settings.put_as_system(SCREEN_OFF_TIMEOUT, 5.0)
        system.power_manager.user_activity()
        system.run_for(6.0)
        assert not system.display.is_screen_on

    def test_wake_up_after_suspend(self, system):
        system.run_for(60.0)
        assert system.hardware.suspended
        system.power_manager.wake_up()
        assert system.display.is_screen_on
        assert not system.hardware.suspended


class TestLinkToDeath:
    def test_process_death_releases_wakelock(self, system):
        system.launch_app("com.app")
        uid = system.uid_of("com.app")
        lock = system.power_manager.acquire(uid, SCREEN_BRIGHT_WAKE_LOCK, "leak")
        system.am.force_stop("com.app")
        assert not lock.held
        assert system.power_manager.held_locks(uid) == []

    def test_stopping_activity_does_not_release(self, system):
        """The gap the paper exploits: onStop keeps the wakelock held."""
        system.launch_app("com.app")
        uid = system.uid_of("com.app")
        lock = system.power_manager.acquire(uid, SCREEN_BRIGHT_WAKE_LOCK, "leak")
        system.press_home()  # app now stopped, but its process lives
        assert lock.held
        system.run_for(3600.0)
        assert system.display.is_screen_on  # battery still burning

    def test_death_release_notifies_observers(self, system):
        from repro.telemetry import WakelockReleaseEvent

        releases = []
        system.telemetry.subscribe(
            lambda event: releases.append((event.tag, event.by_death)),
            event_type=WakelockReleaseEvent,
        )
        system.launch_app("com.app")
        uid = system.uid_of("com.app")
        system.power_manager.acquire(uid, PARTIAL_WAKE_LOCK, "will-die")
        system.am.force_stop("com.app")
        assert ("will-die", True) in releases


class TestBrightnessPolicy:
    def test_settings_write_applies_in_manual_mode(self, system):
        uid = system.uid_of("com.app")
        system.settings.put(uid, SCREEN_BRIGHTNESS, 200)
        assert system.display.brightness == 200

    def test_settings_write_requires_permission(self, system):
        uid = system.uid_of("com.nopermission")
        with pytest.raises(SecurityException):
            system.settings.put(uid, SCREEN_BRIGHTNESS, 255)

    def test_auto_mode_ignores_setting_until_manual(self, system):
        """§IV-A: value saved in auto mode but not valid until manual."""
        uid = system.uid_of("com.app")
        system.settings.put_as_system(SCREEN_BRIGHTNESS_MODE, BRIGHTNESS_MODE_AUTOMATIC)
        auto_level = system.display.auto_brightness
        system.settings.put(uid, SCREEN_BRIGHTNESS, 255)
        assert system.display.brightness == auto_level
        system.settings.put(uid, SCREEN_BRIGHTNESS_MODE, BRIGHTNESS_MODE_MANUAL)
        assert system.display.brightness == 255

    def test_ambient_changes_auto_brightness(self, system):
        system.settings.put_as_system(SCREEN_BRIGHTNESS_MODE, BRIGHTNESS_MODE_AUTOMATIC)
        system.display.set_ambient_level(30)
        assert system.display.brightness == 30

    def test_window_override_wins_while_foreground(self, system):
        system.launch_app("com.app")
        uid = system.uid_of("com.app")
        system.display.set_window_brightness(uid, 250)
        assert system.display.brightness == 250
        system.press_home()
        assert system.display.brightness == 102  # back to settings value

    def test_window_override_of_background_app_ignored(self, system):
        uid = system.uid_of("com.app")
        system.display.set_window_brightness(uid, 250)
        assert system.display.brightness == 102

    def test_systemui_slider(self, system):
        system.systemui.user_set_brightness(42)
        assert system.display.brightness == 42

    def test_brightness_observer_sees_caller(self, system):
        from repro.telemetry import BrightnessChangeEvent

        changes = []
        system.telemetry.subscribe(
            lambda event: changes.append(
                (event.caller_uid, event.old_level, event.new_level, event.via)
            ),
            event_type=BrightnessChangeEvent,
        )
        uid = system.uid_of("com.app")
        system.settings.put(uid, SCREEN_BRIGHTNESS, 240)
        assert changes == [(uid, 102, 240, "settings")]

    def test_screen_energy_follows_brightness(self, system):
        system.launch_app("com.app")
        uid = system.uid_of("com.app")
        system.power_manager.acquire(uid, SCREEN_BRIGHT_WAKE_LOCK, "on")
        meter = system.hardware.meter
        system.settings.put(uid, SCREEN_BRIGHTNESS, 10)
        start = system.now
        system.run_for(100.0)
        low = meter.screen_energy_j(start=start)
        system.settings.put(uid, SCREEN_BRIGHTNESS, 255)
        start = system.now
        system.run_for(100.0)
        high = meter.screen_energy_j(start=start)
        assert high > low * 1.5


class TestDimWakelock:
    def test_dim_lock_dims_after_timeout_window(self, system):
        from repro.android import SCREEN_DIM_WAKE_LOCK

        system.launch_app("com.app")
        uid = system.uid_of("com.app")
        system.power_manager.acquire(uid, SCREEN_DIM_WAKE_LOCK, "dim")
        system.run_for(60.0)
        # Screen alive thanks to the lock, but only at the dim level.
        assert system.display.is_screen_on
        assert system.hardware.screen.is_dimmed

    def test_bright_lock_overrides_dim(self, system):
        from repro.android import SCREEN_BRIGHT_WAKE_LOCK, SCREEN_DIM_WAKE_LOCK

        system.launch_app("com.app")
        uid = system.uid_of("com.app")
        system.power_manager.acquire(uid, SCREEN_DIM_WAKE_LOCK, "dim")
        bright = system.power_manager.acquire(uid, SCREEN_BRIGHT_WAKE_LOCK, "bright")
        system.run_for(60.0)
        assert not system.hardware.screen.is_dimmed
        bright.release()
        assert system.hardware.screen.is_dimmed

    def test_dim_power_below_bright(self, system):
        from repro.android import SCREEN_DIM_WAKE_LOCK
        from repro.power import NEXUS4

        system.launch_app("com.app")
        uid = system.uid_of("com.app")
        system.power_manager.acquire(uid, SCREEN_DIM_WAKE_LOCK, "dim")
        system.run_for(60.0)
        assert system.hardware.screen.current_power_mw() == NEXUS4.screen.power_mw(
            NEXUS4.screen.dim_brightness
        )


class TestDisplayEdgeCases:
    def test_window_override_beats_auto_mode(self, system):
        """The window attribute outranks even automatic brightness."""
        system.settings.put_as_system(SCREEN_BRIGHTNESS_MODE, BRIGHTNESS_MODE_AUTOMATIC)
        system.launch_app("com.app")
        uid = system.uid_of("com.app")
        system.display.set_window_brightness(uid, 222)
        assert system.display.brightness == 222
        system.display.set_window_brightness(uid, None)  # clear
        assert system.display.brightness == system.display.auto_brightness

    def test_ambient_in_manual_mode_is_inert(self, system):
        before = system.display.brightness
        system.display.set_ambient_level(240)
        assert system.display.brightness == before

    def test_screen_off_then_on_restores_effective_brightness(self, system):
        uid = system.uid_of("com.app")
        system.settings.put(uid, SCREEN_BRIGHTNESS, 200)
        system.power_manager.go_to_sleep()
        assert not system.display.is_screen_on
        system.power_manager.wake_up()
        assert system.display.is_screen_on
        assert system.display.brightness == 200

    def test_equal_value_write_fires_no_observer(self, system):
        changes = []
        system.settings.add_observer(changes.append)
        uid = system.uid_of("com.app")
        system.settings.put(uid, SCREEN_BRIGHTNESS, 102)  # already 102
        assert changes == []
