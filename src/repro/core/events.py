"""Collateral-event taxonomy and the E-Android event log.

E-Android's framework extension "record[s] all events that potentially
invoke collateral energy bugs" (§IV).  Every framework notification the
monitor receives is journaled as a :class:`CollateralEvent` — including
same-app and system-app events, which are excluded from attack tracking
but "still logged ... as a vital factor to correctly calculate
collateral energy consumption" (§IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple


class CollateralEventType(Enum):
    """Every event class the E-Android framework extension records."""

    ACTIVITY_START = "activity_start"
    ACTIVITY_MOVE_TO_FRONT = "activity_move_to_front"
    ACTIVITY_FINISHED = "activity_finished"
    PACKAGE_STOPPED = "package_stopped"
    FOREGROUND_CHANGED = "foreground_changed"
    SERVICE_START = "service_start"
    SERVICE_STOP = "service_stop"
    SERVICE_STOP_SELF = "service_stop_self"
    SERVICE_BIND = "service_bind"
    SERVICE_UNBIND = "service_unbind"
    WAKELOCK_ACQUIRE = "wakelock_acquire"
    WAKELOCK_RELEASE = "wakelock_release"
    BRIGHTNESS_CHANGE = "brightness_change"
    BRIGHTNESS_MODE_CHANGE = "brightness_mode_change"
    SCREEN_STATE = "screen_state"


@dataclass(frozen=True)
class CollateralEvent:
    """One journaled framework event."""

    time: float
    event_type: CollateralEventType
    driving_uid: Optional[int] = None
    driven_uid: Optional[int] = None
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_cross_app(self) -> bool:
        """Whether driving and driven apps differ."""
        return (
            self.driving_uid is not None
            and self.driven_uid is not None
            and self.driving_uid != self.driven_uid
        )


class EventLog:
    """Append-only journal of collateral events.

    Each entry is the ``(time, event_type, driving_uid, driven_uid,
    details)`` tuple of one event, so journaling builds no dataclass;
    events come back as :class:`CollateralEvent` instances on read.
    """

    def __init__(self) -> None:
        self._events: List[Tuple[Any, ...]] = []
        #: Append one event given as its field tuple (the monitor's
        #: per-event path; ``details`` must be a dict).
        self.record_fields: Callable[[Tuple[Any, ...]], None] = self._events.append

    def record(self, event: CollateralEvent) -> None:
        """Append one event."""
        self._events.append(
            (event.time, event.event_type, event.driving_uid, event.driven_uid, event.details)
        )

    def all(self) -> List[CollateralEvent]:
        """Every event, in journal order."""
        return [CollateralEvent(*fields) for fields in self._events]

    def of_type(self, event_type: CollateralEventType) -> List[CollateralEvent]:
        """Events of one type, in journal order."""
        return [
            CollateralEvent(*fields) for fields in self._events if fields[1] is event_type
        ]

    def __len__(self) -> int:
        return len(self._events)
