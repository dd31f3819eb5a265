"""Typed telemetry events — the vocabulary of the telemetry spine.

E-Android's framework extension "record[s] all events that potentially
invoke collateral energy bugs" (§IV).  Historically this reproduction
scattered that recording across four unrelated mechanisms (a
stringly-typed observer fan-out, the core event journal, raw meter
listeners, and the exec manifest); every layer now speaks one language:
frozen dataclass events sharing a common envelope —

* ``time`` — virtual seconds on the device's kernel clock;
* ``category`` — the coarse stream the event belongs to (class-level);
* ``driving_uid`` / ``driven_uid`` — who caused / who was affected
  (``None`` when not applicable, e.g. user input or hardware events);
* ``payload()`` — the event-specific details as JSON-ready data.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from typing import Any, ClassVar, Dict, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..android.activity import ActivityRecord
    from ..android.intent import Intent
    from ..android.service import ServiceRecord


class Category(Enum):
    """Coarse event streams; subscriptions filter on these."""

    ACTIVITY = "activity"    # activity lifecycle + foreground changes
    SERVICE = "service"      # service lifecycle (start/stop/bind/unbind)
    WAKELOCK = "wakelock"    # wakelock acquire/release
    SCREEN = "screen"        # brightness, mode, panel state
    POWER = "power"          # hardware meter draw changes
    SIM = "sim"              # kernel dispatch / timer spans
    ATTACK = "attack"        # collateral attack-window begin/end
    PHASE = "phase"          # experiment / scenario phase marks
    SERVE = "serve"          # query service: ingests, serves, sheds
    STORE = "store"          # artifact store / cache health
    FAULT = "fault"          # chaos plane: injections + retry attempts
    AGGREGATE = "aggregate"  # fleet aggregation: scatter + gather


@dataclass(frozen=True)
class TelemetryEvent:
    """Shared envelope every telemetry event carries."""

    time: float

    category: ClassVar[Category]
    name: ClassVar[str] = "event"

    @property
    def driving_uid(self) -> Optional[int]:
        """The uid that caused the event (None for user/hardware)."""
        return None

    @property
    def driven_uid(self) -> Optional[int]:
        """The uid affected by the event (None when not applicable)."""
        return None

    def payload(self) -> Dict[str, Any]:
        """Event-specific details as JSON-ready data."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name != "time"
        }

    def to_dict(self) -> Dict[str, Any]:
        """The full envelope + payload as one JSON-ready mapping."""
        return {
            "t": self.time,
            "category": self.category.value,
            "name": self.name,
            "driving_uid": self.driving_uid,
            "driven_uid": self.driven_uid,
            "payload": self.payload(),
        }


# ----------------------------------------------------------------------
# activities / foreground
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ActivityStartEvent(TelemetryEvent):
    """An activity was started (explicit or resolved implicit intent)."""

    caller_uid: int
    target_uid: int
    record: "ActivityRecord"
    intent: "Intent"
    user_initiated: bool

    category: ClassVar[Category] = Category.ACTIVITY
    name: ClassVar[str] = "activity_start"

    @property
    def driving_uid(self) -> Optional[int]:
        return self.caller_uid

    @property
    def driven_uid(self) -> Optional[int]:
        return self.target_uid

    def payload(self) -> Dict[str, Any]:
        return {
            "component": self.record.component_name,
            "package": self.record.package,
            "user_initiated": self.user_initiated,
        }


@dataclass(frozen=True)
class ActivityMoveToFrontEvent(TelemetryEvent):
    """An existing task was reordered to the front without a start."""

    caller_uid: int
    target_uid: int
    user_initiated: bool

    category: ClassVar[Category] = Category.ACTIVITY
    name: ClassVar[str] = "activity_move_to_front"

    @property
    def driving_uid(self) -> Optional[int]:
        return self.caller_uid

    @property
    def driven_uid(self) -> Optional[int]:
        return self.target_uid

    def payload(self) -> Dict[str, Any]:
        return {"user_initiated": self.user_initiated}


@dataclass(frozen=True)
class ActivityFinishedEvent(TelemetryEvent):
    """An activity was destroyed."""

    record: "ActivityRecord"

    category: ClassVar[Category] = Category.ACTIVITY
    name: ClassVar[str] = "activity_finished"

    @property
    def driven_uid(self) -> Optional[int]:
        return self.record.uid

    def payload(self) -> Dict[str, Any]:
        return {
            "component": self.record.component_name,
            "package": self.record.package,
        }


@dataclass(frozen=True)
class PackageStoppedEvent(TelemetryEvent):
    """A package's process and components were force-stopped.

    Published once per ``ActivityManager.force_stop`` after every
    component of the app has been torn down — the package-level death
    notification that per-component events (activity finished, service
    stop) cannot convey on their own.
    """

    uid: int
    package: str

    category: ClassVar[Category] = Category.ACTIVITY
    name: ClassVar[str] = "package_stopped"

    @property
    def driven_uid(self) -> Optional[int]:
        return self.uid


@dataclass(frozen=True)
class ForegroundChangedEvent(TelemetryEvent):
    """The foreground app changed.

    ``cause`` is one of ``start``, ``finish``, ``home``, ``back``,
    ``move_front``, ``screen_off``; ``initiator_uid`` is who drove the
    change (None for direct user input).
    """

    previous_uid: Optional[int]
    new_uid: Optional[int]
    cause: str
    initiator_uid: Optional[int]

    category: ClassVar[Category] = Category.ACTIVITY
    name: ClassVar[str] = "foreground_changed"

    @property
    def driving_uid(self) -> Optional[int]:
        return self.initiator_uid

    @property
    def driven_uid(self) -> Optional[int]:
        return self.new_uid


# ----------------------------------------------------------------------
# services
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ServiceEvent(TelemetryEvent):
    """Common shape of the caller->target service events."""

    caller_uid: int
    target_uid: int
    record: "ServiceRecord"

    category: ClassVar[Category] = Category.SERVICE

    @property
    def driving_uid(self) -> Optional[int]:
        return self.caller_uid

    @property
    def driven_uid(self) -> Optional[int]:
        return self.target_uid

    def payload(self) -> Dict[str, Any]:
        return {
            "component": self.record.component_name,
            "package": self.record.package,
        }


@dataclass(frozen=True)
class ServiceStartEvent(_ServiceEvent):
    """startService() reached a service."""

    name: ClassVar[str] = "service_start"


@dataclass(frozen=True)
class ServiceStopEvent(_ServiceEvent):
    """stopService() was called."""

    name: ClassVar[str] = "service_stop"


@dataclass(frozen=True)
class ServiceBindEvent(_ServiceEvent):
    """bindService() created a connection."""

    name: ClassVar[str] = "service_bind"


@dataclass(frozen=True)
class ServiceUnbindEvent(_ServiceEvent):
    """A connection was unbound (explicitly or by client death)."""

    name: ClassVar[str] = "service_unbind"


@dataclass(frozen=True)
class ServiceStopSelfEvent(TelemetryEvent):
    """The service stopped itself."""

    record: "ServiceRecord"

    category: ClassVar[Category] = Category.SERVICE
    name: ClassVar[str] = "service_stop_self"

    @property
    def driving_uid(self) -> Optional[int]:
        return self.record.uid

    @property
    def driven_uid(self) -> Optional[int]:
        return self.record.uid

    def payload(self) -> Dict[str, Any]:
        return {
            "component": self.record.component_name,
            "package": self.record.package,
        }


# ----------------------------------------------------------------------
# wakelocks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WakelockAcquireEvent(TelemetryEvent):
    """A wakelock was acquired."""

    uid: int
    lock_type: str
    tag: str

    category: ClassVar[Category] = Category.WAKELOCK
    name: ClassVar[str] = "wakelock_acquire"

    @property
    def driving_uid(self) -> Optional[int]:
        return self.uid


@dataclass(frozen=True)
class WakelockReleaseEvent(TelemetryEvent):
    """A wakelock was released (possibly by link-to-death)."""

    uid: int
    lock_type: str
    tag: str
    by_death: bool

    category: ClassVar[Category] = Category.WAKELOCK
    name: ClassVar[str] = "wakelock_release"

    @property
    def driving_uid(self) -> Optional[int]:
        return self.uid


# ----------------------------------------------------------------------
# screen
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BrightnessChangeEvent(TelemetryEvent):
    """Effective brightness changed. ``via``: settings/systemui/window/auto."""

    caller_uid: Optional[int]
    old_level: int
    new_level: int
    via: str

    category: ClassVar[Category] = Category.SCREEN
    name: ClassVar[str] = "brightness_change"

    @property
    def driving_uid(self) -> Optional[int]:
        return self.caller_uid


@dataclass(frozen=True)
class BrightnessModeChangeEvent(TelemetryEvent):
    """Auto/manual brightness mode toggled."""

    caller_uid: Optional[int]
    manual: bool
    via: str

    category: ClassVar[Category] = Category.SCREEN
    name: ClassVar[str] = "brightness_mode_change"

    @property
    def driving_uid(self) -> Optional[int]:
        return self.caller_uid


@dataclass(frozen=True)
class ScreenStateEvent(TelemetryEvent):
    """The panel turned on or off."""

    is_on: bool

    category: ClassVar[Category] = Category.SCREEN
    name: ClassVar[str] = "screen_state"


# ----------------------------------------------------------------------
# power (hardware meter)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DrawChangeEvent(TelemetryEvent):
    """One channel's instantaneous draw changed (meter breakpoint)."""

    owner: int
    component: str
    power_mw: float

    category: ClassVar[Category] = Category.POWER
    name: ClassVar[str] = "draw_change"

    @property
    def driving_uid(self) -> Optional[int]:
        return self.owner if self.owner >= 0 else None


# ----------------------------------------------------------------------
# sim kernel
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelDispatchEvent(TelemetryEvent):
    """One kernel event callback ran (a dispatch span).

    ``wall_us`` is the host wall-clock cost of the callback; ``time`` is
    the virtual instant it fired at.  Only published while something is
    subscribed to :data:`Category.SIM` (hot path, gated by
    ``TelemetryBus.wants``).
    """

    event_name: str
    seq: int
    wall_us: float

    category: ClassVar[Category] = Category.SIM
    name: ClassVar[str] = "kernel_dispatch"


@dataclass(frozen=True)
class TimerFiredEvent(TelemetryEvent):
    """A repeating timer fired."""

    timer_name: str
    fire_count: int
    interval_s: float

    category: ClassVar[Category] = Category.SIM
    name: ClassVar[str] = "timer_fired"


# ----------------------------------------------------------------------
# attack windows (E-Android accounting)
# ----------------------------------------------------------------------
SCREEN_TARGET = -100
"""Pseudo-target of screen-directed attack links (same id as the meter's
SCREEN_OWNER, so energy lookups are uniform).  Defined here, below every
layer that reads link targets, so all of them import this one value."""


@dataclass(frozen=True)
class AttackWindowBeginEvent(TelemetryEvent):
    """An attack link opened (collateral window begins)."""

    kind: str
    attacker_uid: int
    target: int
    link_id: int
    detail: str = ""

    category: ClassVar[Category] = Category.ATTACK
    name: ClassVar[str] = "attack_window_begin"

    @property
    def driving_uid(self) -> Optional[int]:
        return self.attacker_uid

    @property
    def driven_uid(self) -> Optional[int]:
        return self.target if self.target >= 0 else None


@dataclass(frozen=True)
class AttackWindowEndEvent(TelemetryEvent):
    """An attack link closed (collateral window ends)."""

    kind: str
    attacker_uid: int
    target: int
    link_id: int
    duration_s: float = 0.0

    category: ClassVar[Category] = Category.ATTACK
    name: ClassVar[str] = "attack_window_end"

    @property
    def driving_uid(self) -> Optional[int]:
        return self.attacker_uid

    @property
    def driven_uid(self) -> Optional[int]:
        return self.target if self.target >= 0 else None


# ----------------------------------------------------------------------
# query service (repro.serve)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SessionIngestedEvent(TelemetryEvent):
    """A trace became a queryable session in the profiling service.

    ``time`` is the trace's ``captured_at`` (the service has no device
    clock of its own); ``source`` records where the trace came from
    (file path, stream name, or ``corpus``).
    """

    session: str
    source: str
    channels: int
    links: int

    category: ClassVar[Category] = Category.SERVE
    name: ClassVar[str] = "session_ingested"


@dataclass(frozen=True)
class QueryServedEvent(TelemetryEvent):
    """One report query was answered (from cache or computed)."""

    session: str
    backend: str
    status: str
    cached: bool
    latency_us: float

    category: ClassVar[Category] = Category.SERVE
    name: ClassVar[str] = "query_served"


@dataclass(frozen=True)
class QueryShedEvent(TelemetryEvent):
    """One query was refused by admission control (queue full)."""

    session: str
    backend: str
    queue_depth: int

    category: ClassVar[Category] = Category.SERVE
    name: ClassVar[str] = "query_shed"


@dataclass(frozen=True)
class ConnectionOpenedEvent(TelemetryEvent):
    """A TCP client connected to the network front-end.

    ``time`` is always 0.0 — the transport has no device clock;
    ``open_connections`` is the count *after* admitting this one.
    """

    peer: str
    open_connections: int

    category: ClassVar[Category] = Category.SERVE
    name: ClassVar[str] = "connection_opened"


@dataclass(frozen=True)
class ConnectionClosedEvent(TelemetryEvent):
    """A TCP connection finished (EOF, disconnect, or shutdown).

    ``lines`` / ``responses`` are that connection's lifetime counts —
    per-connection accounting for the transport-level invariants.
    """

    peer: str
    lines: int
    responses: int

    category: ClassVar[Category] = Category.SERVE
    name: ClassVar[str] = "connection_closed"


@dataclass(frozen=True)
class QueryDeadlineExceededEvent(TelemetryEvent):
    """A network query missed its deadline and was answered ``error``."""

    session: str
    backend: str
    deadline_s: float

    category: ClassVar[Category] = Category.SERVE
    name: ClassVar[str] = "query_deadline_exceeded"


# ----------------------------------------------------------------------
# fleet aggregation (repro.aggregate)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AggregateIssuedEvent(TelemetryEvent):
    """A fleet aggregate started its scatter phase.

    ``time`` is always 0.0 — the aggregation layer has no device clock;
    ``sessions`` is how many sessions the request's selector matched.
    """

    backend: str
    op: str
    group_by: str
    sessions: int

    category: ClassVar[Category] = Category.AGGREGATE
    name: ClassVar[str] = "aggregate_issued"


@dataclass(frozen=True)
class AggregatePartialEvent(TelemetryEvent):
    """One session's partial became available to the gather step.

    ``memoized`` distinguishes a store memo hit from a fresh compute —
    the signal the re-aggregation-only-recomputes-dirty-sessions
    contract is monitored by.
    """

    session: str
    memoized: bool

    category: ClassVar[Category] = Category.AGGREGATE
    name: ClassVar[str] = "aggregate_partial"


@dataclass(frozen=True)
class AggregateMergedEvent(TelemetryEvent):
    """The gather step finished reducing one aggregate.

    A ``partial=True`` merge means ``missing`` sessions dropped out of
    the answer (the graceful-degradation path) — never silently.
    """

    op: str
    merged: int
    missing: int
    partial: bool

    category: ClassVar[Category] = Category.AGGREGATE
    name: ClassVar[str] = "aggregate_merged"


# ----------------------------------------------------------------------
# artifact store / cache health (repro.store, repro.exec.cache)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ArtifactStoredEvent(TelemetryEvent):
    """An artifact entered the store (new blob or idempotent re-put).

    ``time`` is always 0.0 — the store has no device clock; host
    timestamps live in the artifact manifest's ``created_at``.
    """

    digest: str
    kind: str
    codec: str
    size: int

    category: ClassVar[Category] = Category.STORE
    name: ClassVar[str] = "artifact_stored"


@dataclass(frozen=True)
class CacheCorruptionEvent(TelemetryEvent):
    """A cache/store entry existed but could not be read back.

    Published when a lookup finds an entry on disk that is truncated,
    garbled, or fails its digest check.  The entry degrades to a miss
    (the result is recomputed), but the bad path is named so operators
    see the corruption instead of a silent cache-hit-rate drop.
    """

    path: str
    reason: str

    category: ClassVar[Category] = Category.STORE
    name: ClassVar[str] = "cache_corruption"


# ----------------------------------------------------------------------
# chaos plane (repro.faults)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultInjectedEvent(TelemetryEvent):
    """The armed fault plane fired one fault at an injection site.

    ``time`` is always 0.0 — the plane has no device clock; ``count``
    is the running total of this ``site:kind`` pair within the plane,
    so a recorder can reconstruct the full injection sequence.
    """

    site: str
    kind: str
    count: int

    category: ClassVar[Category] = Category.FAULT
    name: ClassVar[str] = "fault_injected"


@dataclass(frozen=True)
class RetryAttemptEvent(TelemetryEvent):
    """A retry policy is about to back off and try a site again.

    Published once per *retry* (never for a first-attempt success), so
    a quiet system emits nothing.
    """

    site: str
    attempt: int
    delay_s: float
    error: str

    category: ClassVar[Category] = Category.FAULT
    name: ClassVar[str] = "retry_attempt"


# ----------------------------------------------------------------------
# experiment phases
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhaseBeginEvent(TelemetryEvent):
    """An experiment/scenario phase opened (e.g. a measurement window)."""

    phase: str

    category: ClassVar[Category] = Category.PHASE
    name: ClassVar[str] = "phase_begin"


@dataclass(frozen=True)
class PhaseEndEvent(TelemetryEvent):
    """An experiment/scenario phase closed."""

    phase: str

    category: ClassVar[Category] = Category.PHASE
    name: ClassVar[str] = "phase_end"
