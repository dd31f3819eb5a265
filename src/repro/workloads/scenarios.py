"""Scenario drivers for the evaluation (§VI-A).

Each scenario builds a fresh simulated device, plays the paper's script
on it, and returns a :class:`ScenarioRun` from which the experiments
pull the Android view (baseline profiler), the E-Android view, and
ground truth.  Because E-Android does not perturb the simulated energy
(§VI-B verifies this explicitly), both views are taken from one run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from ..accounting import BatteryStats, PowerTutor, ProfilerReport
from ..android import (
    AndroidSystem,
    SCREEN_BRIGHT_WAKE_LOCK,
    SCREEN_BRIGHTNESS,
    explicit,
)
from ..apps import (
    CAMERA_PACKAGE,
    CONTACTS_PACKAGE,
    MESSAGE_PACKAGE,
    VICTIM_PACKAGE,
    build_camera_app,
    build_contacts_app,
    build_message_app,
    build_victim_app,
)
from ..attacks import (
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
from ..core import EAndroid, attach_eandroid, attach_eandroid_powertutor
from ..telemetry import PhaseBeginEvent, PhaseEndEvent

ATTACK_DURATION_S = 60.0
FILM_DURATION_S = 30.0


@dataclass
class ScenarioRun:
    """One completed scenario with its measurement window."""

    name: str
    system: AndroidSystem
    eandroid: EAndroid
    start: float
    end: float
    notes: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Mark the measurement window on the device timeline so trace
        # exports show the phase alongside the attack windows it frames.
        bus = self.system.telemetry
        bus.publish(PhaseBeginEvent(time=self.start, phase=self.name))
        bus.publish(PhaseEndEvent(time=self.end, phase=self.name))

    def android_report(self) -> ProfilerReport:
        """What stock Android's BatteryStats shows for the window."""
        return BatteryStats(self.system).report(self.start, self.end)

    def powertutor_report(self) -> ProfilerReport:
        """What stock PowerTutor shows for the window."""
        return PowerTutor(self.system).report(self.start, self.end)

    def eandroid_report(self) -> ProfilerReport:
        """What E-Android's revised interface shows for the window."""
        return self.eandroid.report(self.start, self.end)


def _fresh(*builders: Callable, baseline: str = "batterystats") -> tuple:
    system = AndroidSystem()
    for build in builders:
        system.install(build())
    system.boot()
    if baseline == "powertutor":
        eandroid = attach_eandroid_powertutor(system)
    else:
        eandroid = attach_eandroid(system)
    return system, eandroid


def _force_screen_on(system: AndroidSystem) -> None:
    """The paper's setup: 'we set the wakelock so that the screen will
    be forced on' — held by the system uid so nothing is charged."""
    system.power_manager.acquire(
        system.package_manager.system_uid, SCREEN_BRIGHT_WAKE_LOCK, "experiment"
    )


# ----------------------------------------------------------------------
# Normal scenes (Figs. 1, 9a, 9b)
# ----------------------------------------------------------------------
def run_scene1(baseline: str = "batterystats") -> ScenarioRun:
    """Scene #1: open Message, wait 30 s, film a 30 s video."""
    system, eandroid = _fresh(build_message_app, build_camera_app, baseline=baseline)
    _force_screen_on(system)
    start = system.now
    record = system.launch_app(MESSAGE_PACKAGE)
    system.run_for(30.0)
    record.instance.record_video(FILM_DURATION_S)
    system.run_for(FILM_DURATION_S + 1.0)
    return ScenarioRun("scene1", system, eandroid, start, system.now)


def run_scene2(baseline: str = "batterystats") -> ScenarioRun:
    """Scene #2: Contacts opens Message, which films a 30 s video —
    the legitimate hybrid chain."""
    system, eandroid = _fresh(
        build_contacts_app, build_message_app, build_camera_app, baseline=baseline
    )
    _force_screen_on(system)
    start = system.now
    contacts = system.launch_app(CONTACTS_PACKAGE)
    system.run_for(10.0)
    contacts.instance.open_message()
    system.run_for(10.0)
    message_record = system.am.supervisor.front_record()
    message_record.instance.record_video(FILM_DURATION_S)
    system.run_for(FILM_DURATION_S + 1.0)
    return ScenarioRun("scene2", system, eandroid, start, system.now)


# ----------------------------------------------------------------------
# Attacks (Figs. 9c-9f; attacks #1/#2 mirror scene #1 per §VI-A)
# ----------------------------------------------------------------------
def run_attack1(duration: float = ATTACK_DURATION_S) -> ScenarioRun:
    """Attack #1: camera hijack."""
    system, eandroid = _fresh(build_camera_app, build_hijack_malware)
    _force_screen_on(system)
    start = system.now
    system.launch_app(HIJACK_PACKAGE)
    system.run_for(duration)
    run = ScenarioRun("attack1", system, eandroid, start, system.now)
    run.notes["malware_uid"] = system.uid_of(HIJACK_PACKAGE)
    run.notes["victim_uid"] = system.uid_of(CAMERA_PACKAGE)
    return run


def run_attack2(duration: float = ATTACK_DURATION_S) -> ScenarioRun:
    """Attack #2: victims triggered into the background."""
    system, eandroid = _fresh(build_victim_app, build_background_malware)
    _force_screen_on(system)
    start = system.now
    system.launch_app(BACKGROUND_PACKAGE)
    system.run_for(duration)
    run = ScenarioRun("attack2", system, eandroid, start, system.now)
    run.notes["malware_uid"] = system.uid_of(BACKGROUND_PACKAGE)
    run.notes["victim_uid"] = system.uid_of(VICTIM_PACKAGE)
    return run


def run_attack3(duration: float = ATTACK_DURATION_S) -> ScenarioRun:
    """Attack #3: bind without unbinding.

    "The attacked app starts its service and stops it immediately.
    However, the connection bound by malware forces the service to run
    continuously." (§VI-A)
    """
    system, eandroid = _fresh(build_victim_app, build_bind_malware)
    _force_screen_on(system)
    system.launch_app(BIND_PACKAGE)
    system.press_home()
    start = system.now
    victim = system.uid_of(VICTIM_PACKAGE)
    svc = explicit(VICTIM_PACKAGE, "VictimWorkService")
    system.am.start_service(victim, svc)
    system.run_for(1.0)  # malware's poll detects the service and binds
    system.am.stop_service(victim, svc)
    system.run_for(duration)
    run = ScenarioRun("attack3", system, eandroid, start, system.now)
    run.notes["malware_uid"] = system.uid_of(BIND_PACKAGE)
    run.notes["victim_uid"] = victim
    return run


def run_attack4(duration: float = ATTACK_DURATION_S) -> ScenarioRun:
    """Attack #4: interrupt the victim at quit time (side channel +
    transparent cover); measures after the victim is backgrounded."""
    system, eandroid = _fresh(build_victim_app, build_interrupt_malware)
    system.launch_app(INTERRUPT_PACKAGE)
    system.press_home()
    system.launch_app(VICTIM_PACKAGE)
    system.run_for(5.0)
    system.press_back()  # exit dialog
    system.run_for(1.0)  # malware covers it
    system.tap_dialog_ok()  # fake quit: victim only stops
    start = system.now
    system.run_for(duration)
    run = ScenarioRun("attack4", system, eandroid, start, system.now)
    run.notes["malware_uid"] = system.uid_of(INTERRUPT_PACKAGE)
    run.notes["victim_uid"] = system.uid_of(VICTIM_PACKAGE)
    return run


def run_attack5(
    duration: float = ATTACK_DURATION_S, attack: bool = True
) -> ScenarioRun:
    """Attack #5: brightness escalation; ``attack=False`` gives the
    'regular screen energy' control of Fig. 9e's upper half."""
    system, eandroid = _fresh(build_victim_app, lambda: build_brightness_malware(target_level=255))
    _force_screen_on(system)
    system.launch_app(VICTIM_PACKAGE)
    if attack:
        malware_uid = system.uid_of(BRIGHTNESS_PACKAGE)
        # The payload fires from the background via the unlock broadcast.
        system.unlock_screen()
        system.am.move_task_to_front(
            system.package_manager.system_uid, VICTIM_PACKAGE, user_initiated=True
        )
    start = system.now
    system.run_for(duration)
    run = ScenarioRun(
        "attack5" if attack else "attack5_normal",
        system,
        eandroid,
        start,
        system.now,
    )
    run.notes["malware_uid"] = system.uid_of(BRIGHTNESS_PACKAGE)
    return run


def run_attack6(
    duration: float = ATTACK_DURATION_S, attack: bool = True
) -> ScenarioRun:
    """Attack #6: a background service's unreleased screen wakelock;
    ``attack=False`` lets the screen auto-off after 30 s (the control:
    'malware releases the wakelock').  The foreground app is Message —
    an app with no wakelock of its own, so the screen's fate is decided
    entirely by the malware's lock."""
    system, eandroid = _fresh(build_message_app, build_wakelock_malware)
    system.launch_app(WAKELOCK_PACKAGE)  # payload acquires the lock
    system.press_home()
    system.launch_app(MESSAGE_PACKAGE)
    malware_uid = system.uid_of(WAKELOCK_PACKAGE)
    if not attack:
        for lock in system.power_manager.held_locks(malware_uid):
            lock.release()
    start = system.now
    system.run_for(duration)
    run = ScenarioRun(
        "attack6" if attack else "attack6_normal",
        system,
        eandroid,
        start,
        system.now,
    )
    run.notes["malware_uid"] = malware_uid
    run.notes["victim_uid"] = system.uid_of(MESSAGE_PACKAGE)
    return run


def run_multi_attack(duration: float = ATTACK_DURATION_S) -> ScenarioRun:
    """Fig. 6: several simultaneous attacks on one victim."""
    system, eandroid = _fresh(build_victim_app, build_multi_malware)
    _force_screen_on(system)
    start = system.now
    system.launch_app(MULTI_PACKAGE)
    system.run_for(duration)
    run = ScenarioRun("multi", system, eandroid, start, system.now)
    run.notes["malware_uid"] = system.uid_of(MULTI_PACKAGE)
    run.notes["victim_uid"] = system.uid_of(VICTIM_PACKAGE)
    return run


def run_hybrid_attack(duration: float = ATTACK_DURATION_S) -> ScenarioRun:
    """Fig. 7: the A->B->C->screen chain."""
    system, eandroid = _fresh(
        build_relay_b, build_relay_c, build_hybrid_malware
    )
    _force_screen_on(system)
    start = system.now
    system.launch_app(HYBRID_PACKAGE)
    system.run_for(duration)
    run = ScenarioRun("hybrid", system, eandroid, start, system.now)
    run.notes["malware_uid"] = system.uid_of(HYBRID_PACKAGE)
    run.notes["relay_b_uid"] = system.uid_of(RELAY_B_PACKAGE)
    run.notes["relay_c_uid"] = system.uid_of(RELAY_C_PACKAGE)
    return run


ALL_ATTACKS = {
    "attack1": run_attack1,
    "attack2": run_attack2,
    "attack3": run_attack3,
    "attack4": run_attack4,
    "attack5": run_attack5,
    "attack6": run_attack6,
}


# ----------------------------------------------------------------------
# Fig. 3 — battery depletion configurations
# ----------------------------------------------------------------------
@dataclass
class DrainResult:
    """One Fig. 3 series."""

    name: str
    hours_to_dead: float
    curve: List  # of BatterySample

    def percent_at_hours(self, hours: float) -> float:
        """Charge level after ``hours`` (linear steady-state draw)."""
        if self.hours_to_dead <= 0:
            return 0.0
        return max(0.0, 100.0 * (1.0 - hours / self.hours_to_dead))


def _drain_base(brightness: int, profile=None) -> AndroidSystem:
    """Screen forced on at ``brightness``; idle home screen foreground.

    The paper uses "demo apps that almost have no functionality as
    attacked apps", so the baseline is the bare screen-on device and
    each attack configuration adds only the victim activity it needs.
    ``profile`` selects the device power profile (default Nexus 4).
    """
    from ..power.profiles import NEXUS4

    system = AndroidSystem(profile=profile if profile is not None else NEXUS4)
    system.install(build_victim_app())
    system.boot()
    _force_screen_on(system)
    system.settings.put_as_system(SCREEN_BRIGHTNESS, brightness)
    return system


def _finish_drain(name: str, system: AndroidSystem) -> DrainResult:
    # Let the configuration reach steady state, then extrapolate the
    # piecewise-constant draw to 0% analytically.
    system.run_for(120.0)
    dead_at = system.battery.time_until_dead()
    assert dead_at is not None, "drain configuration draws no power"
    curve = system.battery.discharge_curve(step_s=900.0)
    return DrainResult(name=name, hours_to_dead=dead_at / 3600.0, curve=curve)


def run_drain_brightness(level: int, name: str, profile=None) -> DrainResult:
    """Screen pinned on at ``level`` with the idle demo app foreground."""
    return _finish_drain(name, _drain_base(level, profile=profile))


def run_drain_bind_service(profile=None) -> DrainResult:
    """Baseline brightness plus the bound-forever victim service."""
    system = _drain_base(0, profile=profile)
    system.install(build_bind_malware())
    system.launch_app(BIND_PACKAGE)
    system.press_home()
    victim = system.uid_of(VICTIM_PACKAGE)
    svc = explicit(VICTIM_PACKAGE, "VictimWorkService")
    system.am.start_service(victim, svc)
    system.run_for(1.0)  # malware's poll binds
    system.am.stop_service(victim, svc)
    return _finish_drain("bind_service", system)


def run_drain_interrupt(profile=None) -> DrainResult:
    """Baseline brightness plus the victim interrupted to background."""
    system = _drain_base(0, profile=profile)
    system.install(build_interrupt_malware())
    system.launch_app(INTERRUPT_PACKAGE)
    system.press_home()
    system.launch_app(VICTIM_PACKAGE)
    system.run_for(5.0)
    system.press_back()
    system.run_for(1.0)
    system.tap_dialog_ok()
    return _finish_drain("interrupt_app", system)


def run_fig3_drains(profile=None) -> List[DrainResult]:
    """All five Fig. 3 series (``profile`` defaults to the Nexus 4)."""
    return [
        run_drain_brightness(0, "brightness_low", profile=profile),
        run_drain_brightness(10, "brightness_10", profile=profile),
        run_drain_brightness(255, "brightness_full", profile=profile),
        run_drain_bind_service(profile=profile),
        run_drain_interrupt(profile=profile),
    ]
