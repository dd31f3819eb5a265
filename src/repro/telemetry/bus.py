"""The typed telemetry bus — single publication path for every layer.

A :class:`TelemetryBus` fans typed :class:`~repro.telemetry.events.
TelemetryEvent` instances out to subscribers.  Design points:

* **Error isolation** — one raising subscriber never prevents delivery
  to the others.  The failure is surfaced exactly once per subscriber
  (a :class:`TelemetrySubscriberWarning` naming the offender) and kept
  in :attr:`TelemetryBus.errors` for inspection.
* **Category subscriptions with typed filters** — subscribe to one
  :class:`~repro.telemetry.events.Category`, optionally narrowed to a
  single event class, or to everything (``category=None``).
* **Cheap default-on counters** — every publication updates per-category
  count/first/last statistics whether or not anyone is subscribed, so
  run summaries are free.  Hot-path producers (the sim kernel, the
  energy meter) gate full event construction on :meth:`TelemetryBus.
  wants` and fall back to :meth:`TelemetryBus.tick` so an unobserved
  device pays only a counter increment.
* **Process-wide capture** — :func:`capture` installs a bus-creation
  hook so telemetry from devices built *inside* a scenario runner can
  be recorded without threading a bus through every constructor.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Type

from .events import Category, TelemetryEvent

Subscriber = Callable[[TelemetryEvent], None]


class TelemetrySubscriberWarning(UserWarning):
    """A telemetry subscriber raised during fan-out."""


@dataclass
class CategoryStats:
    """Running per-category counters (always on)."""

    count: int = 0
    first_time: Optional[float] = None
    last_time: Optional[float] = None

    def note(self, time: float) -> None:
        """Fold one event at virtual ``time`` into the stats."""
        self.count += 1
        if self.first_time is None:
            self.first_time = time
        self.last_time = time

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "count": self.count,
            "first_time": self.first_time,
            "last_time": self.last_time,
        }


@dataclass
class SubscriberError:
    """One recorded fan-out failure."""

    subscriber: str
    event_name: str
    error: str


@dataclass
class Subscription:
    """Handle returned by :meth:`TelemetryBus.subscribe`."""

    callback: Subscriber
    category: Optional[Category]
    event_type: Optional[Type[TelemetryEvent]]
    name: str
    active: bool = True

    @property
    def label(self) -> str:
        """Human-readable subscriber name for error surfacing."""
        return self.name or getattr(
            self.callback, "__qualname__", repr(self.callback)
        )


# Hooks applied to every newly created bus (used by capture()).
_bus_hooks: List[Callable[["TelemetryBus"], None]] = []


class TelemetryBus:
    """Typed event fan-out with per-category stats and error isolation."""

    def __init__(self) -> None:
        self._by_category: Dict[Category, List[Subscription]] = {}
        self._wildcard: List[Subscription] = []
        self._stats: Dict[Category, CategoryStats] = {}
        # event class -> (its category's stats, the subscriptions that
        # receive it, in delivery order); rebuilt lazily after any
        # subscribe/unsubscribe, so publishing is one lookup by class.
        self._routes: Dict[type, Tuple[CategoryStats, Tuple[Subscription, ...]]] = {}
        self.errors: List[SubscriberError] = []
        self._warned: set = set()
        for hook in list(_bus_hooks):
            hook(self)

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------
    def subscribe(
        self,
        callback: Subscriber,
        category: Optional[Category] = None,
        event_type: Optional[Type[TelemetryEvent]] = None,
        name: str = "",
    ) -> Subscription:
        """Attach ``callback``; returns the handle for :meth:`unsubscribe`.

        ``category=None`` receives every event; ``event_type`` narrows
        further to one event class (isinstance check, so base classes
        match their subclasses).
        """
        if category is None and event_type is not None:
            category = event_type.category
        subscription = Subscription(callback, category, event_type, name)
        if category is None:
            self._wildcard.append(subscription)
        else:
            self._by_category.setdefault(category, []).append(subscription)
        self._routes.clear()
        return subscription

    def unsubscribe(self, subscription: Subscription) -> bool:
        """Detach a subscription; returns whether it was attached."""
        pools = (
            [self._wildcard]
            if subscription.category is None
            else [self._by_category.get(subscription.category, [])]
        )
        for pool in pools:
            if subscription in pool:
                pool.remove(subscription)
                subscription.active = False
                self._routes.clear()
                return True
        return False

    def wants(self, category: Category) -> bool:
        """Whether any subscriber would receive events of ``category``.

        Hot-path producers use this to skip event construction entirely
        (calling :meth:`tick` instead), keeping default-on telemetry at
        counter-increment cost.
        """
        return bool(self._wildcard) or bool(self._by_category.get(category))

    def subscriber_count(self) -> int:
        """Total attached subscriptions."""
        return len(self._wildcard) + sum(
            len(pool) for pool in self._by_category.values()
        )

    # ------------------------------------------------------------------
    # publication
    # ------------------------------------------------------------------
    def publish(self, event: TelemetryEvent) -> None:
        """Deliver ``event`` to every matching subscriber, error-isolated.

        Category subscribers come first, then wildcard ones, each group
        in subscription order.
        """
        route = self._routes.get(type(event))
        if route is None:
            route = self._route(type(event))
        stats, subscribers = route
        stats.note(event.time)
        for subscription in subscribers:
            try:
                subscription.callback(event)
            except Exception as exc:  # noqa: BLE001 - isolation by design
                self.report_subscriber_error(subscription.label, event.name, exc)

    def tick(self, category: Category, time: float) -> None:
        """Counter-only fast path for gated hot-path producers."""
        stats = self._stats.get(category)
        if stats is None:
            stats = self._stats[category] = CategoryStats()
        stats.note(time)

    def _route(
        self, event_class: Type[TelemetryEvent]
    ) -> Tuple[CategoryStats, Tuple[Subscription, ...]]:
        """Build (and cache) the delivery route for one event class."""
        category = event_class.category
        candidates = (*self._by_category.get(category, ()), *self._wildcard)
        route = (
            self._stats.setdefault(category, CategoryStats()),
            tuple(
                subscription
                for subscription in candidates
                if subscription.event_type is None
                or issubclass(event_class, subscription.event_type)
            ),
        )
        self._routes[event_class] = route
        return route

    def report_subscriber_error(
        self, subscriber: str, event_name: str, exc: Exception
    ) -> None:
        """Record a fan-out failure; warn once per subscriber."""
        self.errors.append(
            SubscriberError(subscriber=subscriber, event_name=event_name, error=repr(exc))
        )
        if subscriber not in self._warned:
            self._warned.add(subscriber)
            warnings.warn(
                f"telemetry subscriber {subscriber!r} raised "
                f"{exc!r} on {event_name!r}; delivery to other "
                "subscribers continued",
                TelemetrySubscriberWarning,
                stacklevel=3,
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def counters(self) -> Dict[Category, CategoryStats]:
        """A copy of the per-category statistics."""
        return {
            category: CategoryStats(s.count, s.first_time, s.last_time)
            for category, s in self._stats.items()
        }

    def total_events(self) -> int:
        """Total events published (including counter-only ticks)."""
        return sum(s.count for s in self._stats.values())

    def stats_dict(self) -> Dict[str, Any]:
        """JSON-ready summary of the bus's lifetime activity."""
        return {
            "total_events": self.total_events(),
            "by_category": {
                category.value: stats.as_dict()
                for category, stats in sorted(
                    self._stats.items(), key=lambda kv: kv[0].value
                )
            },
            "subscriber_errors": len(self.errors),
        }


# ----------------------------------------------------------------------
# process-wide capture
# ----------------------------------------------------------------------
class TelemetryRecorder:
    """Records events (and tracks buses) for later export.

    Attach to a single bus with :meth:`attach`, or use :func:`capture`
    to hook every bus created while the context is open (scenario
    runners build their devices internally).
    """

    def __init__(self, record_events: bool = True) -> None:
        self.record_events = record_events
        self.events: List[TelemetryEvent] = []
        self.buses: List[TelemetryBus] = []
        self._subscriptions: List[tuple] = []

    def attach(
        self, bus: TelemetryBus, categories: Optional[List[Category]] = None
    ) -> None:
        """Subscribe to ``bus`` (all categories unless narrowed)."""
        self.buses.append(bus)
        if not self.record_events:
            return
        if categories is None:
            sub = bus.subscribe(self.events.append, name="telemetry-recorder")
            self._subscriptions.append((bus, sub))
        else:
            for category in categories:
                sub = bus.subscribe(
                    self.events.append, category=category, name="telemetry-recorder"
                )
                self._subscriptions.append((bus, sub))

    def detach(self) -> None:
        """Unsubscribe from every attached bus."""
        for bus, sub in self._subscriptions:
            bus.unsubscribe(sub)
        self._subscriptions.clear()

    def stats(self) -> Dict[str, Any]:
        """Aggregate counter summary across every tracked bus."""
        total = 0
        by_category: Dict[str, int] = {}
        errors = 0
        for bus in self.buses:
            for category, stats in bus.counters().items():
                by_category[category.value] = (
                    by_category.get(category.value, 0) + stats.count
                )
                total += stats.count
            errors += len(bus.errors)
        return {
            "total_events": total,
            "by_category": dict(sorted(by_category.items())),
            "subscriber_errors": errors,
            "buses": len(self.buses),
            "recorded_events": len(self.events),
        }


@contextmanager
def capture(
    categories: Optional[List[Category]] = None, record_events: bool = True
) -> Iterator[TelemetryRecorder]:
    """Record telemetry from every bus created inside the context.

    ``record_events=False`` only tracks buses for :meth:`TelemetryRecorder.
    stats` (used by the exec engine, where retaining every event across a
    whole evaluation would be wasteful).
    """
    recorder = TelemetryRecorder(record_events=record_events)

    def hook(bus: TelemetryBus) -> None:
        recorder.attach(bus, categories)

    _bus_hooks.append(hook)
    try:
        yield recorder
    finally:
        _bus_hooks.remove(hook)
        recorder.detach()
