"""The ActivityManager ("am").

Orchestrates every component interaction the paper's attacks abuse:

* activity starts (explicit and implicit with resolver), including the
  lifecycle choreography — pause the outgoing activity, resume the
  incoming one, stop fully-covered ones (transparent covers only pause);
* task-stack reordering (home button, move-to-front);
* the full service lifecycle with the bind/unbind liveness rule of
  attack #3;
* broadcasts (runtime and manifest receivers — how malware auto-starts
  on ACTION_USER_PRESENT);
* force-stop and binder-death cleanup.

The paper's E-Android "mainly relies on 'am' ... to record collateral
energy events" (§V); here those recording points are typed event
publications on the device's :class:`~repro.telemetry.TelemetryBus`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from .activity import Activity, ActivityRecord, ActivityState
from .app import App, Context
from .errors import ActivityNotFoundError, BadStateError, SecurityException
from .intent import ComponentName, Intent
from .manifest import REORDER_TASKS, ComponentKind
from ..telemetry import (
    ActivityFinishedEvent,
    ActivityMoveToFrontEvent,
    ActivityStartEvent,
    ForegroundChangedEvent,
    PackageStoppedEvent,
    ServiceBindEvent,
    ServiceStartEvent,
    ServiceStopEvent,
    ServiceStopSelfEvent,
    ServiceUnbindEvent,
    TelemetryBus,
)
from .service import Service, ServiceConnection, ServiceRecord, ServiceState
from .task_stack import TaskStackSupervisor
from .timeline import ForegroundTimeline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.kernel import Kernel
    from ..sim.process import ProcessRecord, ProcessTable
    from .binder import Binder
    from .display import DisplayManager
    from .package_manager import PackageManager

ResolverPolicy = Callable[
    [Intent, List[Tuple[App, "object"]]], Tuple[App, "object"]
]

ServiceKey = Tuple[str, str]  # (package, class name)

#: The Activity callback run on entering each lifecycle state.
_LIFECYCLE_HOOKS: Dict[ActivityState, str] = {
    ActivityState.CREATED: "on_create",
    ActivityState.STARTED: "on_start",
    ActivityState.RESUMED: "on_resume",
    ActivityState.PAUSED: "on_pause",
    ActivityState.STOPPED: "on_stop",
    ActivityState.DESTROYED: "on_destroy",
}


class ActivityManager:
    """Component lifecycle orchestration and the framework event source."""

    def __init__(
        self,
        kernel: "Kernel",
        package_manager: "PackageManager",
        processes: "ProcessTable",
        binder: "Binder",
        display: "DisplayManager",
        telemetry: TelemetryBus,
    ) -> None:
        self._kernel = kernel
        self._pm = package_manager
        self._processes = processes
        self._binder = binder
        self._display = display
        self._telemetry = telemetry
        self.supervisor = TaskStackSupervisor()
        self.timeline = ForegroundTimeline()
        self._services: Dict[ServiceKey, ServiceRecord] = {}
        self._receivers: Dict[str, List[Tuple[int, Callable[[Intent], None]]]] = {}
        self._resolver_policy: Optional[ResolverPolicy] = None
        self._ui_invalidate: Callable[[], None] = lambda: None
        self._last_foreground: Optional[int] = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def set_resolver_policy(self, policy: Optional[ResolverPolicy]) -> None:
        """Install the "user choice" policy for implicit-intent resolution.

        With several matching handlers Android shows resolverActivity;
        the policy stands in for the user's tap.  The default picks the
        first handler in package-name order (deterministic).
        """
        self._resolver_policy = policy

    def set_ui_invalidate(self, callback: Callable[[], None]) -> None:
        """Hook SurfaceFlinger invalidation into UI-changing operations."""
        self._ui_invalidate = callback

    # ------------------------------------------------------------------
    # foreground bookkeeping
    # ------------------------------------------------------------------
    def foreground_record(self) -> Optional[ActivityRecord]:
        """The activity currently holding the screen."""
        return self.supervisor.front_record()

    def foreground_uid(self) -> Optional[int]:
        """The uid of the foreground activity's app."""
        record = self.foreground_record()
        return record.uid if record else None

    def _note_foreground(self, cause: str, initiator_uid: Optional[int]) -> None:
        new_uid = self.foreground_uid()
        if new_uid == self._last_foreground:
            return
        previous = self._last_foreground
        self._last_foreground = new_uid
        now = self._kernel.now
        self.timeline.record(now, new_uid)
        self._display.set_foreground_uid(new_uid)
        self._telemetry.publish(
            ForegroundChangedEvent(
                time=now,
                previous_uid=previous,
                new_uid=new_uid,
                cause=cause,
                initiator_uid=initiator_uid,
            )
        )
        self._ui_invalidate()

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def process_of_uid(self, uid: int) -> Optional["ProcessRecord"]:
        """The app's live process, if running."""
        app = self._pm.app_for_uid(uid)
        if app.process is not None and app.process.alive:
            return app.process
        return None

    def _ensure_process(self, app: App) -> "ProcessRecord":
        if app.process is None or not app.process.alive:
            assert app.uid is not None
            app.process = self._processes.spawn(
                app.uid, app.package, now=self._kernel.now
            )
        return app.process

    # ------------------------------------------------------------------
    # activities
    # ------------------------------------------------------------------
    def start_activity(
        self, caller_uid: int, intent: Intent, user_initiated: bool = False
    ) -> ActivityRecord:
        """Start an activity; returns its record.

        Implicit intents resolve through the (simulated) resolver UI;
        per the paper, observers see a single start event carrying the
        *original* caller and the finally chosen target.
        """
        app, decl = self._resolve_activity(caller_uid, intent)
        resolved_intent = intent
        if not intent.is_explicit:
            resolved_intent = intent.with_component(
                ComponentName(app.package, decl.name)
            )
        assert app.uid is not None
        self._binder.transact(caller_uid, app.uid)
        self._ensure_process(app)

        previous_front = self.supervisor.front_record()

        instance: Activity = app.component_class(decl.name)()
        assert app.system is not None
        instance.context = Context(app.system, app)
        instance.intent = resolved_intent
        record = ActivityRecord(
            instance=instance,
            uid=app.uid,
            package=app.package,
            component_name=decl.name,
            transparent=decl.transparent or instance.transparent,
            launched_by_uid=caller_uid,
            launch_time=self._kernel.now,
        )
        instance.record = record

        task = self.supervisor.get_or_create_task(app.package)
        task.push(record)
        self.supervisor.move_to_front(task)

        # Lifecycle choreography: create/start the incoming activity,
        # pause the outgoing one, resume the incoming, then stop every
        # activity the new (opaque) one fully covers.
        self._transition(record, ActivityState.CREATED)
        self._transition(record, ActivityState.STARTED)
        if previous_front is not None and previous_front.state == ActivityState.RESUMED:
            self._transition(previous_front, ActivityState.PAUSED)
        self._transition(record, ActivityState.RESUMED)
        if not record.transparent:
            self._stop_covered(except_record=record)

        self._telemetry.publish(
            ActivityStartEvent(
                time=self._kernel.now,
                caller_uid=caller_uid,
                target_uid=app.uid,
                record=record,
                intent=resolved_intent,
                user_initiated=user_initiated,
            )
        )
        self._note_foreground("start", None if user_initiated else caller_uid)
        return record

    def move_task_to_front(
        self, caller_uid: int, package: str, user_initiated: bool = False
    ) -> None:
        """Bring an existing task to the front without starting anything.

        "Users or apps equipped with proper permissions could reorder
        the stack" (§IV-A): an app reordering a task that is not its own
        needs REORDER_TASKS (system uids and the user are exempt).
        """
        task = self.supervisor.task_for(package)
        if task is None or task.empty:
            raise ActivityNotFoundError(f"no task for package {package!r}")
        caller_app = None
        if not self._pm.is_system_uid(caller_uid):
            caller_app = self._pm.app_for_uid(caller_uid)
        if (
            not user_initiated
            and caller_app is not None
            and caller_app.package != package
            and not self._pm.check_permission(caller_uid, REORDER_TASKS)
        ):
            raise SecurityException(
                f"uid {caller_uid} lacks {REORDER_TASKS} to reorder {package!r}"
            )
        previous_front = self.supervisor.front_record()
        self.supervisor.move_to_front(task)
        target = task.top
        assert target is not None
        if previous_front is not None and previous_front is not target:
            if previous_front.state == ActivityState.RESUMED:
                self._transition(previous_front, ActivityState.PAUSED)
        self._bring_to_resumed(target)
        if not target.transparent:
            self._stop_covered(except_record=target)
        self._telemetry.publish(
            ActivityMoveToFrontEvent(
                time=self._kernel.now,
                caller_uid=caller_uid,
                target_uid=target.uid,
                user_initiated=user_initiated,
            )
        )
        self._note_foreground(
            "move_front", None if user_initiated else caller_uid
        )

    def finish_activity(self, record: ActivityRecord) -> None:
        """Destroy an activity and promote whatever it uncovered."""
        if record.state == ActivityState.DESTROYED:
            raise BadStateError(f"{record} already destroyed")
        record.finishing = True
        was_foreground = record.is_foreground
        task = self.supervisor.task_for(record.package)
        if task is not None:
            task.remove(record)
            self.supervisor.remove_if_empty(task)
        self._teardown(record)
        self._telemetry.publish(
            ActivityFinishedEvent(time=self._kernel.now, record=record)
        )
        if was_foreground:
            new_front = self.supervisor.front_record()
            if new_front is not None:
                self._bring_to_resumed(new_front)
            self._note_foreground("finish", record.uid)
        else:
            self._ui_invalidate()

    def press_back(self) -> None:
        """User back press: offer it to the activity, else finish it."""
        record = self.supervisor.front_record()
        if record is None:
            return
        handler = getattr(record.instance, "on_back_pressed", None)
        if handler is not None and handler():
            self._ui_invalidate()
            return
        self.finish_activity(record)

    def tap_dialog_ok(self) -> None:
        """User taps OK on the front activity's dialog (if any).

        Delegates to the activity's ``on_dialog_ok`` hook — but if a
        *transparent* activity covers the dialog, the tap lands on the
        cover instead, which is precisely malware #4's hijack.
        """
        record = self.supervisor.front_record()
        if record is None:
            return
        handler = getattr(record.instance, "on_dialog_ok", None)
        if handler is not None:
            handler()

    # ------------------------------------------------------------------
    # services
    # ------------------------------------------------------------------
    def start_service(self, caller_uid: int, intent: Intent) -> ServiceRecord:
        """startService(): create if needed, set the started flag."""
        record, app = self._resolve_or_create_service(caller_uid, intent)
        record.started = True
        record.instance.on_start_command(intent)
        self._telemetry.publish(
            ServiceStartEvent(
                time=self._kernel.now,
                caller_uid=caller_uid,
                target_uid=record.uid,
                record=record,
            )
        )
        return record

    def stop_service(self, caller_uid: int, intent: Intent) -> bool:
        """stopService(): clear the started flag; destroy if unbound."""
        app, decl = self._resolve_service_decl(caller_uid, intent)
        key = (app.package, decl.name)
        record = self._services.get(key)
        if record is None:
            return False
        assert app.uid is not None
        self._binder.transact(caller_uid, app.uid)
        record.started = False
        self._telemetry.publish(
            ServiceStopEvent(
                time=self._kernel.now,
                caller_uid=caller_uid,
                target_uid=record.uid,
                record=record,
            )
        )
        self._maybe_destroy_service(record)
        return True

    def stop_self(self, record: ServiceRecord) -> None:
        """stopSelf() from inside the service."""
        if record.state == ServiceState.DESTROYED:
            raise BadStateError(f"{record} already destroyed")
        record.started = False
        self._telemetry.publish(
            ServiceStopSelfEvent(time=self._kernel.now, record=record)
        )
        self._maybe_destroy_service(record)

    def bind_service(self, caller_uid: int, intent: Intent) -> ServiceConnection:
        """bindService(): the returned connection keeps the service alive."""
        record, app = self._resolve_or_create_service(caller_uid, intent)
        caller_app = self._pm.app_for_uid(caller_uid)
        caller_process = self._ensure_process(caller_app)
        connection = ServiceConnection(
            client_uid=caller_uid, client_pid=caller_process.pid, record=record
        )
        first_binding = not record.connections
        record.add_connection(connection)
        if first_binding:
            record.instance.on_bind(intent)
        # Client death tears the binding down (Binder link-to-death).
        connection.death_token = self._binder.link_to_death(
            caller_process.pid,
            lambda _dead, conn=connection: self._unbind_by_death(conn),
        )
        self._telemetry.publish(
            ServiceBindEvent(
                time=self._kernel.now,
                caller_uid=caller_uid,
                target_uid=record.uid,
                record=record,
            )
        )
        return connection

    def unbind_service(self, connection: ServiceConnection) -> None:
        """unbindService(): drop a connection; destroy if nothing keeps it."""
        if not connection.bound:
            raise BadStateError(f"{connection} is not bound")
        if connection.death_token is not None:
            self._binder.unlink_to_death(connection.death_token)
            connection.death_token = None
        self._finish_unbind(connection)

    def _unbind_by_death(self, connection: ServiceConnection) -> None:
        if connection.bound:
            connection.death_token = None
            self._finish_unbind(connection)

    def _finish_unbind(self, connection: ServiceConnection) -> None:
        connection.bound = False
        record = connection.record
        record.remove_connection(connection)
        if not record.connections:
            record.instance.on_unbind()
        self._telemetry.publish(
            ServiceUnbindEvent(
                time=self._kernel.now,
                caller_uid=connection.client_uid,
                target_uid=record.uid,
                record=record,
            )
        )
        self._maybe_destroy_service(record)

    def service_record(self, package: str, class_name: str) -> Optional[ServiceRecord]:
        """Look up a live service."""
        return self._services.get((package, class_name))

    def running_services(self, uid: Optional[int] = None) -> List[ServiceRecord]:
        """All live services, optionally of one uid."""
        return [
            record
            for record in self._services.values()
            if uid is None or record.uid == uid
        ]

    # ------------------------------------------------------------------
    # broadcasts
    # ------------------------------------------------------------------
    def register_receiver(
        self, uid: int, action: str, callback: Callable[[Intent], None]
    ) -> None:
        """Register a runtime broadcast receiver."""
        self._receivers.setdefault(action, []).append((uid, callback))

    def send_broadcast(self, caller_uid: int, intent: Intent) -> int:
        """Deliver a broadcast; manifest receivers auto-start their app.

        Returns the number of receivers reached.
        """
        if intent.action is None:
            raise ValueError("broadcast intents need an action")
        delivered = 0
        for uid, callback in list(self._receivers.get(intent.action, [])):
            self._binder.transact(caller_uid, uid)
            callback(intent)
            delivered += 1
        for app, decl in self._pm.query_intent_handlers(
            intent, ComponentKind.RECEIVER
        ):
            assert app.uid is not None
            self._binder.transact(caller_uid, app.uid)
            self._ensure_process(app)
            receiver = app.component_class(decl.name)()
            assert app.system is not None
            receiver.context = Context(app.system, app)  # type: ignore[attr-defined]
            receiver.on_receive(intent)
            delivered += 1
        return delivered

    # ------------------------------------------------------------------
    # force stop / death cleanup
    # ------------------------------------------------------------------
    def force_stop(self, package: str) -> None:
        """Settings' Force Stop: kill the app's process and components.

        Killing the process fires binder death links, which release
        wakelocks and unbind the app's outgoing service connections.
        """
        app = self._pm.app_for_package(package)
        assert app.uid is not None
        had_foreground = self.foreground_uid() == app.uid
        # Destroy activities.
        for record in self.supervisor.records_of_uid(app.uid):
            task = self.supervisor.task_for(record.package)
            if task is not None:
                task.remove(record)
                self.supervisor.remove_if_empty(task)
            self._teardown(record)
            self._telemetry.publish(
                ActivityFinishedEvent(time=self._kernel.now, record=record)
            )
        # Destroy this app's services (incoming bindings die with it);
        # observers hear the forced unbinds/stops so trackers stay exact.
        for record in [s for s in self._services.values() if s.uid == app.uid]:
            for connection in list(record.connections):
                if connection.death_token is not None:
                    self._binder.unlink_to_death(connection.death_token)
                    connection.death_token = None
                connection.bound = False
                record.remove_connection(connection)
                self._telemetry.publish(
                    ServiceUnbindEvent(
                        time=self._kernel.now,
                        caller_uid=connection.client_uid,
                        target_uid=record.uid,
                        record=record,
                    )
                )
            if record.started:
                record.started = False
                self._telemetry.publish(
                    ServiceStopEvent(
                        time=self._kernel.now,
                        caller_uid=app.uid,
                        target_uid=record.uid,
                        record=record,
                    )
                )
            self._destroy_service(record)
        # Kill the process: fires link-to-death for wakelocks and for the
        # app's own outgoing bindings to other apps' services.
        if app.process is not None and app.process.alive:
            self._processes.kill(app.process.pid, now=self._kernel.now)
        app.process = None
        # Window brightness is a *window* attribute: it dies with the
        # app's windows, so a relaunch must not silently re-apply it.
        self._display.set_window_brightness(app.uid, None)
        # Package-level death notification: per-component events above
        # can't tell observers "this app is gone"; attack windows whose
        # *target* died must close here or they silently span the app's
        # next (fresh, user-initiated) life.
        self._telemetry.publish(
            PackageStoppedEvent(time=self._kernel.now, uid=app.uid, package=package)
        )
        if had_foreground:
            new_front = self.supervisor.front_record()
            if new_front is not None:
                self._bring_to_resumed(new_front)
            self._note_foreground("finish", app.uid)

    # ------------------------------------------------------------------
    # lifecycle plumbing
    # ------------------------------------------------------------------
    def _stop_covered(self, except_record: ActivityRecord) -> None:
        """Stop every activity no longer visible behind the front task."""
        front_task = self.supervisor.front_task
        visible = set()
        if front_task is not None:
            visible = {r.record_id for r in front_task.visible_records()}
        for record in self.supervisor.all_records():
            if record.record_id in visible or record is except_record:
                continue
            if record.state in (ActivityState.RESUMED, ActivityState.PAUSED):
                if record.state == ActivityState.RESUMED:
                    self._transition(record, ActivityState.PAUSED)
                self._transition(record, ActivityState.STOPPED)

    def _bring_to_resumed(self, record: ActivityRecord) -> None:
        if record.state == ActivityState.RESUMED:
            return
        if record.state == ActivityState.STOPPED:
            record.instance.on_restart()
            self._transition(record, ActivityState.STARTED)
        self._transition(record, ActivityState.RESUMED)

    def _transition(self, record: ActivityRecord, target: ActivityState) -> None:
        record.state = target
        getattr(record.instance, _LIFECYCLE_HOOKS[target])()

    def _teardown(self, record: ActivityRecord) -> None:
        """Run the remaining lifecycle down to DESTROYED."""
        if record.state == ActivityState.RESUMED:
            self._transition(record, ActivityState.PAUSED)
        if record.state == ActivityState.PAUSED:
            self._transition(record, ActivityState.STOPPED)
        if record.state != ActivityState.DESTROYED:
            self._transition(record, ActivityState.DESTROYED)

    # ------------------------------------------------------------------
    # resolution helpers
    # ------------------------------------------------------------------
    def _resolve_activity(self, caller_uid: int, intent: Intent):
        if intent.is_explicit:
            assert intent.component is not None
            return self._pm.resolve_component(
                caller_uid, intent.component, ComponentKind.ACTIVITY
            )
        handlers = self._pm.query_intent_handlers(intent, ComponentKind.ACTIVITY)
        if not handlers:
            raise ActivityNotFoundError(f"no activity handles {intent!r}")
        if len(handlers) == 1:
            return handlers[0]
        # Several candidates: the resolver UI appears; apply the policy
        # standing in for the user's choice.
        handlers.sort(key=lambda pair: pair[0].package)
        if self._resolver_policy is not None:
            return self._resolver_policy(intent, handlers)
        return handlers[0]

    def _resolve_service_decl(self, caller_uid: int, intent: Intent):
        if intent.is_explicit:
            assert intent.component is not None
            return self._pm.resolve_component(
                caller_uid, intent.component, ComponentKind.SERVICE
            )
        handlers = self._pm.query_intent_handlers(intent, ComponentKind.SERVICE)
        if not handlers:
            raise ActivityNotFoundError(f"no service handles {intent!r}")
        handlers.sort(key=lambda pair: pair[0].package)
        return handlers[0]

    def _resolve_or_create_service(self, caller_uid: int, intent: Intent):
        app, decl = self._resolve_service_decl(caller_uid, intent)
        assert app.uid is not None
        self._binder.transact(caller_uid, app.uid)
        self._ensure_process(app)
        key = (app.package, decl.name)
        record = self._services.get(key)
        if record is None:
            instance: Service = app.component_class(decl.name)()
            assert app.system is not None
            instance.context = Context(app.system, app)
            record = ServiceRecord(
                instance=instance,
                uid=app.uid,
                package=app.package,
                component_name=decl.name,
                create_time=self._kernel.now,
            )
            instance.record = record
            record.state = ServiceState.RUNNING
            self._services[key] = record
            instance.on_create()
        return record, app

    def _maybe_destroy_service(self, record: ServiceRecord) -> None:
        if not record.should_stay_alive and record.state != ServiceState.DESTROYED:
            self._destroy_service(record)

    def _destroy_service(self, record: ServiceRecord) -> None:
        record.state = ServiceState.DESTROYED
        record.instance.on_destroy()
        self._services.pop((record.package, record.component_name), None)
