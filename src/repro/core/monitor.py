"""The E-Android framework monitor.

The first of the paper's three components: a framework extension that
observes every potentially-collateral event, journals it, and drives the
attack-lifecycle state machines of Fig. 5, opening/closing attack links
in the accounting module:

* Fig. 5a (activity): a start by another app opens a window that lasts
  until the driven app is started again or moved to front;
* Fig. 5b (interrupting activity): an app forcing the foreground app to
  background opens a window until the victim is back in front;
* Fig. 5c (service): start..stop/stopSelf and bind..unbind windows;
* Fig. 5d (screen): brightness raised in manual mode / auto→manual
  switch, ended by the attacker decreasing it, a SystemUI (user) change,
  or a switch back to auto;
* Fig. 5e (wakelock): a screen wakelock acquired while not foreground,
  or held while the app leaves the foreground, ended on release (or when
  the holder legitimately returns to the foreground).

System apps (launcher, SystemUI, resolver) never *drive* attacks and are
never charged as *targets* — but their events are still journaled
(§IV-A).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Type, TYPE_CHECKING

from ..android.power_manager import SCREEN_LOCK_TYPES
from ..telemetry import Subscription, TelemetryBus
from ..telemetry.events import (
    ActivityFinishedEvent,
    ActivityMoveToFrontEvent,
    ActivityStartEvent,
    BrightnessChangeEvent,
    BrightnessModeChangeEvent,
    ForegroundChangedEvent,
    PackageStoppedEvent,
    ScreenStateEvent,
    ServiceBindEvent,
    ServiceStartEvent,
    ServiceStopEvent,
    ServiceStopSelfEvent,
    ServiceUnbindEvent,
    TelemetryEvent,
    WakelockAcquireEvent,
    WakelockReleaseEvent,
)
from .accounting import EAndroidAccounting
from .events import CollateralEventType, EventLog
from .links import SCREEN_TARGET, AttackKind, AttackLink

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..android.framework import AndroidSystem


class EAndroidMonitor:
    """Telemetry-bus subscriber → event journal + attack tracking.

    :meth:`attach` subscribes one typed handler per framework event
    class (the ``_on_*`` methods below, keyed by class in
    ``_handlers``), so the bus delivers each event straight to its
    handler; every handler takes the event itself.
    """

    def __init__(
        self,
        system: "AndroidSystem",
        accounting: EAndroidAccounting,
        accounting_enabled: bool = True,
    ) -> None:
        self._system = system
        self._accounting = accounting
        # §VI-B's "framework-only" configuration: events are journaled
        # (the framework extension is active) but the enhanced energy
        # accounting module is disabled — used to separate hook overhead
        # from accounting overhead in the Fig. 10 micro-benchmark.
        self.accounting_enabled = accounting_enabled
        self.log = EventLog()
        # Fig. 5a: at most one live activity link per driven app.
        self._activity_links: Dict[int, AttackLink] = {}
        # Fig. 5b: at most one live interrupt link per interrupted app.
        self._interrupt_links: Dict[int, AttackLink] = {}
        # Fig. 5c: start link per service record; bind links per
        # (record, client) with a connection refcount.
        self._service_start_links: Dict[int, AttackLink] = {}
        self._service_bind_links: Dict[Tuple[int, int], AttackLink] = {}
        self._service_bind_counts: Dict[Tuple[int, int], int] = {}
        # Fig. 5d: at most one live screen link per attacking app.
        self._screen_links: Dict[int, AttackLink] = {}
        # Fig. 5e: screen-wakelock held counts and live links per app.
        self._wakelock_links: Dict[int, AttackLink] = {}
        self._screen_lock_counts: Dict[int, int] = {}
        self._subscriptions: List[Subscription] = []
        self._bus: Optional[TelemetryBus] = None
        self._journal = self.log.record_fields
        self._is_system_uid = system.package_manager.is_system_uid
        self._handlers: Dict[Type[TelemetryEvent], Callable[..., None]] = {
            ActivityStartEvent: self._on_activity_start,
            ActivityMoveToFrontEvent: self._on_activity_move_to_front,
            ActivityFinishedEvent: self._on_activity_finished,
            PackageStoppedEvent: self._on_package_stopped,
            ForegroundChangedEvent: self._on_foreground_changed,
            ServiceStartEvent: self._on_service_start,
            ServiceStopEvent: self._on_service_stop,
            ServiceStopSelfEvent: self._on_service_stop_self,
            ServiceBindEvent: self._on_service_bind,
            ServiceUnbindEvent: self._on_service_unbind,
            WakelockAcquireEvent: self._on_wakelock_acquire,
            WakelockReleaseEvent: self._on_wakelock_release,
            BrightnessChangeEvent: self._on_brightness_change,
            BrightnessModeChangeEvent: self._on_brightness_mode_change,
            ScreenStateEvent: self._on_screen_state,
        }
        # Attaching mid-run (the real deployment case: E-Android boots
        # with the device, but tests/tools may attach late): prime the
        # wakelock census from PowerManagerService so Fig. 5e tracking
        # doesn't start blind.
        for lock in system.power_manager.held_locks():
            if lock.lock_type in SCREEN_LOCK_TYPES:
                self._screen_lock_counts[lock.uid] = (
                    self._screen_lock_counts.get(lock.uid, 0) + 1
                )

    # ------------------------------------------------------------------
    # bus subscription
    # ------------------------------------------------------------------
    def attach(self, bus: TelemetryBus) -> None:
        """Subscribe every typed handler to the device bus."""
        if self._subscriptions:
            raise RuntimeError("monitor is already attached")
        self._subscriptions = [
            bus.subscribe(handler, event_type=event_class, name="eandroid-monitor")
            for event_class, handler in self._handlers.items()
        ]
        self._bus = bus

    def detach(self) -> None:
        """Unsubscribe (used by the overhead ablations); idempotent."""
        for subscription in self._subscriptions:
            self._bus.unsubscribe(subscription)
        self._subscriptions = []

    @property
    def attached(self) -> bool:
        """Whether the monitor is currently subscribed to a bus."""
        return bool(self._subscriptions)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _is_system(self, uid: Optional[int]) -> bool:
        return uid is None or self._is_system_uid(uid)

    def _cross_app_attackable(self, driving: Optional[int], driven: Optional[int]) -> bool:
        """Both real apps, distinct, neither a system app."""
        return (
            driving is not None
            and driven is not None
            and driving != driven
            and not self._is_system_uid(driving)
            and not self._is_system_uid(driven)
        )

    def _begin(
        self, kind: AttackKind, driving: int, target: int, detail: str = ""
    ) -> Optional[AttackLink]:
        """Open a link unless the accounting module is disabled."""
        if not self.accounting_enabled:
            return None
        return self._accounting.begin_attack(kind, driving, target, detail)

    def _end(self, link: Optional[AttackLink]) -> None:
        if link is not None and link.alive:
            self._accounting.end_attack(link)

    # ------------------------------------------------------------------
    # Fig. 5a / 5b — activities
    # ------------------------------------------------------------------
    def _on_activity_start(self, event: ActivityStartEvent) -> None:
        caller_uid, target_uid, record = event.caller_uid, event.target_uid, event.record
        user_initiated = event.user_initiated
        self._journal((
            event.time,
            CollateralEventType.ACTIVITY_START,
            caller_uid,
            target_uid,
            {"component": record.component_name, "user_initiated": user_initiated},
        ))
        # "Attack ends when the app is started again" — whoever starts it.
        self._end(self._activity_links.pop(target_uid, None))
        self._end(self._interrupt_links.pop(target_uid, None))
        if not user_initiated and self._cross_app_attackable(caller_uid, target_uid):
            self._activity_links[target_uid] = self._begin(
                AttackKind.ACTIVITY,
                caller_uid,
                target_uid,
                detail=f"start {record.package}/{record.component_name}",
            )

    def _on_activity_move_to_front(self, event: ActivityMoveToFrontEvent) -> None:
        caller_uid, target_uid = event.caller_uid, event.target_uid
        user_initiated = event.user_initiated
        self._journal((
            event.time,
            CollateralEventType.ACTIVITY_MOVE_TO_FRONT,
            caller_uid,
            target_uid,
            {"user_initiated": user_initiated},
        ))
        # "Attack ends when the app is moved to front."
        self._end(self._activity_links.pop(target_uid, None))
        self._end(self._interrupt_links.pop(target_uid, None))
        if not user_initiated and self._cross_app_attackable(caller_uid, target_uid):
            self._activity_links[target_uid] = self._begin(
                AttackKind.ACTIVITY, caller_uid, target_uid, detail="move_to_front"
            )

    def _on_activity_finished(self, event: ActivityFinishedEvent) -> None:
        record = event.record
        self._journal((
            event.time,
            CollateralEventType.ACTIVITY_FINISHED,
            None,
            record.uid,
            {"component": record.component_name},
        ))

    def _on_package_stopped(self, event: PackageStoppedEvent) -> None:
        uid = event.uid
        self._journal((
            event.time,
            CollateralEventType.PACKAGE_STOPPED,
            None,
            uid,
            {"package": event.package},
        ))
        # Force Stop kills every component, so attacks *against* this app
        # are physically over: its next life is a fresh, user-initiated
        # start, and Fig. 5a/5b windows must not span the death.  Links
        # the dead app *drives* stay open — a brightness setting or a
        # started-elsewhere activity outlives its driver's process.
        self._end(self._activity_links.pop(uid, None))
        self._end(self._interrupt_links.pop(uid, None))

    def _on_foreground_changed(self, event: ForegroundChangedEvent) -> None:
        previous_uid, new_uid = event.previous_uid, event.new_uid
        cause, initiator_uid = event.cause, event.initiator_uid
        self._journal((
            event.time,
            CollateralEventType.FOREGROUND_CHANGED,
            initiator_uid,
            new_uid,
            {"previous_uid": previous_uid, "cause": cause},
        ))
        # The app back in front is no longer "interrupted" (Fig. 5b) and
        # legitimately owns the screen again (Fig. 5e end-by-return).
        if new_uid is not None:
            self._end(self._interrupt_links.pop(new_uid, None))
            self._end(self._wakelock_links.pop(new_uid, None))
        # Fig. 5b begin: an app (not the user) pushed the previous
        # foreground app to the background.
        if previous_uid != new_uid and self._cross_app_attackable(
            initiator_uid, previous_uid
        ):
            self._end(self._interrupt_links.pop(previous_uid, None))
            self._interrupt_links[previous_uid] = self._begin(
                AttackKind.INTERRUPT,
                initiator_uid,
                previous_uid,
                detail=f"interrupted via {cause}",
            )
        # Fig. 5e begin: previous foreground app left the screen while
        # still holding a screen wakelock.
        if (
            previous_uid is not None
            and previous_uid != new_uid
            and not self._is_system(previous_uid)
            and self._screen_lock_counts.get(previous_uid, 0) > 0
            and previous_uid not in self._wakelock_links
        ):
            self._wakelock_links[previous_uid] = self._begin(
                AttackKind.WAKELOCK,
                previous_uid,
                SCREEN_TARGET,
                detail="screen wakelock held after entering background",
            )

    # ------------------------------------------------------------------
    # Fig. 5c — services
    # ------------------------------------------------------------------
    def _journal_service(
        self, event_type: CollateralEventType, event: TelemetryEvent
    ) -> None:
        """Journal one caller -> target service event (start/stop/bind/unbind)."""
        self._journal((
            event.time,
            event_type,
            event.caller_uid,
            event.target_uid,
            {"component": event.record.component_name},
        ))

    def _on_service_start(self, event: ServiceStartEvent) -> None:
        self._journal_service(CollateralEventType.SERVICE_START, event)
        caller_uid, target_uid, record = event.caller_uid, event.target_uid, event.record
        if self._cross_app_attackable(caller_uid, target_uid):
            self._end(self._service_start_links.pop(record.record_id, None))
            self._service_start_links[record.record_id] = self._begin(
                AttackKind.SERVICE_START,
                caller_uid,
                target_uid,
                detail=f"startService {record.component_name}",
            )

    def _on_service_stop(self, event: ServiceStopEvent) -> None:
        self._journal_service(CollateralEventType.SERVICE_STOP, event)
        self._end(self._service_start_links.pop(event.record.record_id, None))

    def _on_service_stop_self(self, event: ServiceStopSelfEvent) -> None:
        record = event.record
        self._journal((
            event.time,
            CollateralEventType.SERVICE_STOP_SELF,
            record.uid,
            record.uid,
            {"component": record.component_name},
        ))
        self._end(self._service_start_links.pop(record.record_id, None))

    def _on_service_bind(self, event: ServiceBindEvent) -> None:
        self._journal_service(CollateralEventType.SERVICE_BIND, event)
        caller_uid, target_uid, record = event.caller_uid, event.target_uid, event.record
        if not self._cross_app_attackable(caller_uid, target_uid):
            return
        key = (record.record_id, caller_uid)
        self._service_bind_counts[key] = self._service_bind_counts.get(key, 0) + 1
        if key not in self._service_bind_links:
            self._service_bind_links[key] = self._begin(
                AttackKind.SERVICE_BIND,
                caller_uid,
                target_uid,
                detail=f"bindService {record.component_name}",
            )

    def _on_service_unbind(self, event: ServiceUnbindEvent) -> None:
        self._journal_service(CollateralEventType.SERVICE_UNBIND, event)
        key = (event.record.record_id, event.caller_uid)
        count = self._service_bind_counts.get(key, 0)
        if count <= 1:
            self._service_bind_counts.pop(key, None)
            self._end(self._service_bind_links.pop(key, None))
        else:
            self._service_bind_counts[key] = count - 1

    # ------------------------------------------------------------------
    # Fig. 5e — wakelocks
    # ------------------------------------------------------------------
    def _on_wakelock_acquire(self, event: WakelockAcquireEvent) -> None:
        uid, lock_type, tag = event.uid, event.lock_type, event.tag
        self._journal((
            event.time,
            CollateralEventType.WAKELOCK_ACQUIRE,
            uid,
            None,
            {"lock_type": lock_type, "tag": tag},
        ))
        if lock_type not in SCREEN_LOCK_TYPES:
            return
        self._screen_lock_counts[uid] = self._screen_lock_counts.get(uid, 0) + 1
        # "E-Android starts the wakelock collateral attack when the
        # foreground app is not the app acquiring the wakelock."
        if (
            not self._is_system(uid)
            and self._system.foreground_uid() != uid
            and uid not in self._wakelock_links
        ):
            self._wakelock_links[uid] = self._begin(
                AttackKind.WAKELOCK,
                uid,
                SCREEN_TARGET,
                detail=f"screen wakelock {tag!r} acquired in background",
            )

    def _on_wakelock_release(self, event: WakelockReleaseEvent) -> None:
        uid, lock_type = event.uid, event.lock_type
        self._journal((
            event.time,
            CollateralEventType.WAKELOCK_RELEASE,
            uid,
            None,
            {"lock_type": lock_type, "tag": event.tag, "by_death": event.by_death},
        ))
        if lock_type not in SCREEN_LOCK_TYPES:
            return
        count = self._screen_lock_counts.get(uid, 0)
        if count <= 1:
            self._screen_lock_counts.pop(uid, None)
            # "E-Android marks the end of the attack when the wakelock
            # is released."
            self._end(self._wakelock_links.pop(uid, None))
        else:
            self._screen_lock_counts[uid] = count - 1

    # ------------------------------------------------------------------
    # Fig. 5d — screen
    # ------------------------------------------------------------------
    def _on_brightness_change(self, event: BrightnessChangeEvent) -> None:
        caller_uid, via = event.caller_uid, event.via
        old_level, new_level = event.old_level, event.new_level
        self._journal((
            event.time,
            CollateralEventType.BRIGHTNESS_CHANGE,
            caller_uid,
            None,
            {"old": old_level, "new": new_level, "via": via},
        ))
        if via == "settings" and self._is_system(caller_uid):
            # "Brightness changed by system UI (i.e., operated by users)"
            # terminates every screen attack window.
            self._end_all_screen_links()
            return
        if via not in ("settings", "window") or self._is_system(caller_uid):
            return
        assert caller_uid is not None
        if new_level > old_level:
            if caller_uid not in self._screen_links:
                self._screen_links[caller_uid] = self._begin(
                    AttackKind.SCREEN,
                    caller_uid,
                    SCREEN_TARGET,
                    detail=f"brightness {old_level} -> {new_level} via {via}",
                )
        elif new_level < old_level:
            # "Brightness decreasing by the attacking app" ends its window.
            self._end(self._screen_links.pop(caller_uid, None))

    def _on_brightness_mode_change(self, event: BrightnessModeChangeEvent) -> None:
        caller_uid, manual = event.caller_uid, event.manual
        self._journal((
            event.time,
            CollateralEventType.BRIGHTNESS_MODE_CHANGE,
            caller_uid,
            None,
            {"manual": manual, "via": event.via},
        ))
        if not manual:
            # "Switching into the auto mode" ends every screen window.
            self._end_all_screen_links()
            return
        # "Apps attempt to switch the auto mode to the manual mode" is a
        # begin event (the stored brightness now takes effect).
        if caller_uid is not None and not self._is_system(caller_uid):
            if caller_uid not in self._screen_links:
                self._screen_links[caller_uid] = self._begin(
                    AttackKind.SCREEN,
                    caller_uid,
                    SCREEN_TARGET,
                    detail="switched brightness mode to manual",
                )

    def _on_screen_state(self, event: ScreenStateEvent) -> None:
        self._journal((
            event.time, CollateralEventType.SCREEN_STATE, None, None, {"on": event.is_on}
        ))

    def _end_all_screen_links(self) -> None:
        for uid in list(self._screen_links):
            self._end(self._screen_links.pop(uid))
