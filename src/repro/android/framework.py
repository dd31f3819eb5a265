"""The AndroidSystem facade — one simulated device.

Wires the simulation kernel, hardware platform, and every framework
service together, installs the system apps, and exposes the operations
scenario drivers use (install apps, press buttons, unlock the screen).

Stock "Android" is an :class:`AndroidSystem` with a baseline profiler
attached; "E-Android" is the same system with the E-Android monitor
subscribed to the device's telemetry bus — mirroring the paper's design
where E-Android is a framework extension, not a separate OS.

Every observable event in the device flows through one
:class:`~repro.telemetry.TelemetryBus` (``system.telemetry``): framework
services publish typed activity/service/wakelock/screen events, the sim
kernel publishes dispatch/timer spans, and the hardware meter publishes
draw changes.
"""

from __future__ import annotations

from typing import List, Optional

from ..power.components import HardwarePlatform
from ..power.battery import Battery
from ..power.profiles import NEXUS4, DevicePowerProfile
from ..sim.kernel import Kernel
from ..sim.process import ProcessTable
from ..telemetry import TelemetryBus
from .activity import ActivityRecord
from .activity_manager import ActivityManager
from .app import App
from .binder import Binder
from .display import DisplayManager
from .intent import (
    ACTION_USER_PRESENT,
    Intent,
    implicit,
)
from .package_manager import PackageManager
from .power_manager import PowerManagerService
from .settings import SettingsProvider
from .surfaceflinger import SurfaceFlinger
from .system_apps import (
    LAUNCHER_PACKAGE,
    PHONE_PACKAGE,
    SystemUi,
    build_launcher,
    build_phone,
    build_resolver,
    build_systemui,
)


class AndroidSystem:
    """A complete simulated device."""

    def __init__(self, profile: DevicePowerProfile = NEXUS4) -> None:
        self.kernel = Kernel()
        self.telemetry = TelemetryBus()
        self.kernel.set_telemetry(self.telemetry)
        self.profile = profile
        self.hardware = HardwarePlatform(self.kernel, profile, telemetry=self.telemetry)
        self.battery = Battery(self.kernel, self.hardware.meter, profile.battery_capacity_j)
        self.processes = ProcessTable()
        self.binder = Binder(self.processes)
        self.package_manager = PackageManager()
        self.settings = SettingsProvider(self.package_manager, lambda: self.kernel.now)
        self.display = DisplayManager(
            self.kernel, self.hardware.screen, self.settings, self.telemetry
        )
        self.am = ActivityManager(
            self.kernel,
            self.package_manager,
            self.processes,
            self.binder,
            self.display,
            self.telemetry,
        )
        self.power_manager = PowerManagerService(
            self.kernel,
            self.hardware,
            self.display,
            self.settings,
            self.package_manager,
            self.binder,
            self.am.process_of_uid,
            self.telemetry,
        )
        self.surfaceflinger = SurfaceFlinger(self.am.foreground_record)
        self.am.set_ui_invalidate(self.surfaceflinger.invalidate)

        # System apps.
        self.launcher = build_launcher()
        self.install(self.launcher, system_app=True)
        systemui_app = build_systemui()
        self.install(systemui_app, system_app=True)
        assert systemui_app.uid is not None
        self.systemui = SystemUi(self, systemui_app.uid)
        self.resolver = build_resolver()
        self.install(self.resolver, system_app=True)
        self.phone = build_phone()
        self.install(self.phone, system_app=True)

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def install(self, app: App, system_app: bool = False) -> App:
        """Install an app and hand it its uid."""
        uid = self.package_manager.install(app, system_app=system_app)
        app.on_installed(self, uid)
        return app

    def install_all(self, apps: List[App]) -> None:
        """Install several apps."""
        for app in apps:
            self.install(app)

    def uninstall(self, package: str) -> None:
        """Remove a package, force-stopping anything it has running.

        Mirrors real Android: deleting an energy-hog app is the user
        action the battery interface exists to enable (§I), and it must
        tear down activities, services, bindings, and wakelocks first.
        """
        self.am.force_stop(package)
        self.package_manager.uninstall(package)

    # ------------------------------------------------------------------
    # device-level user operations
    # ------------------------------------------------------------------
    def boot(self) -> None:
        """Power on: wake the device and land on the home screen."""
        self.power_manager.wake_up()
        self.am.start_activity(
            self.package_manager.system_uid,
            Intent(component=None, action="android.intent.action.MAIN").with_component(
                _home_component()
            ),
            user_initiated=True,
        )

    def press_home(self) -> None:
        """User presses the home button."""
        self.power_manager.user_activity()
        self.am.move_task_to_front(
            self.package_manager.system_uid, LAUNCHER_PACKAGE, user_initiated=True
        )

    def press_back(self) -> None:
        """User presses the back button."""
        self.power_manager.user_activity()
        self.am.press_back()

    def tap_dialog_ok(self) -> None:
        """User taps OK on the visible dialog."""
        self.power_manager.user_activity()
        self.am.tap_dialog_ok()

    def launch_app(self, package: str) -> ActivityRecord:
        """User taps an app icon in the launcher."""
        self.power_manager.user_activity()
        app = self.package_manager.app_for_package(package)
        decl = app.manifest.launcher_activity()
        if decl is None:
            raise ValueError(f"{package} has no launcher activity")
        intent = Intent().with_component(_component(package, decl.name))
        return self.am.start_activity(
            self.package_manager.system_uid, intent, user_initiated=True
        )

    def incoming_call(self, ring_seconds: float = 10.0) -> ActivityRecord:
        """An incoming call pops its activity over the foreground app.

        The popup is transparent (the app below only pauses) and, being
        system-initiated, opens no attack link — but an app below that
        fails to release its wakelock in onPause keeps draining, the
        §III-A *unintentional* collateral case.  The call dismisses
        itself after ``ring_seconds``.
        """
        from .intent import ComponentName, Intent

        record = self.am.start_activity(
            self.package_manager.system_uid,
            Intent(component=ComponentName(PHONE_PACKAGE, "IncomingCallActivity")),
            user_initiated=False,
        )
        self.power_manager.user_activity()  # the ring lights the screen
        self.kernel.call_later(
            ring_seconds,
            lambda: self.am.finish_activity(record)
            if record.state.value != "destroyed"
            else None,
            name="call-ends",
        )
        return record

    def unlock_screen(self) -> None:
        """User wakes and unlocks the device (fires ACTION_USER_PRESENT)."""
        self.power_manager.user_activity()
        self.am.send_broadcast(
            self.package_manager.system_uid, implicit(ACTION_USER_PRESENT)
        )

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.kernel.now

    def run_for(self, seconds: float) -> None:
        """Advance virtual time."""
        self.kernel.run_for(seconds)

    def foreground_uid(self) -> Optional[int]:
        """The uid currently holding the foreground."""
        return self.am.foreground_uid()

    def foreground_package(self) -> Optional[str]:
        """The package currently holding the foreground."""
        record = self.am.foreground_record()
        return record.package if record else None

    def uid_of(self, package: str) -> int:
        """Installed package's uid."""
        app = self.package_manager.app_for_package(package)
        assert app.uid is not None
        return app.uid


def _component(package: str, class_name: str):
    from .intent import ComponentName

    return ComponentName(package, class_name)


def _home_component():
    return _component(LAUNCHER_PACKAGE, "HomeActivity")
