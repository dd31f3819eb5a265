"""Services and their lifecycle.

Services implement the paper's attack #3 substrate: a *started* service
must be stopped with ``stopService``/``stopSelf``; a *bound* service
lives until **all** connections unbind — even if ``stopService`` has
already been called.  A malware binding a victim's exported service
therefore keeps it (and its workload) alive indefinitely while the
victim believes it stopped the service.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import TYPE_CHECKING, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .app import Context
    from .binder import DeathToken
    from .intent import Intent


class ServiceState(Enum):
    """Coarse service lifecycle states."""

    CREATED = "created"
    RUNNING = "running"
    DESTROYED = "destroyed"


class Service:
    """Base class for app-defined services.

    ``on_start_command`` runs on every ``startService``; ``on_bind`` /
    ``on_unbind`` bracket connections; ``on_destroy`` runs when the
    framework tears the service down (no started flag, no bindings).
    """

    def __init__(self) -> None:
        self.context: Optional["Context"] = None
        self.record: Optional["ServiceRecord"] = None

    def on_create(self) -> None:
        """Called once when the service instance comes up."""

    def on_start_command(self, intent: "Intent") -> None:
        """Called for each startService() delivery."""

    def on_bind(self, intent: "Intent") -> None:
        """Called when the first client binds."""

    def on_unbind(self) -> None:
        """Called when the last client unbinds."""

    def on_destroy(self) -> None:
        """Called before the instance is discarded."""

    def stop_self(self) -> None:
        """The service asks to stop itself (clears the started flag)."""
        if self.record is None or self.context is None:
            raise RuntimeError("service is not attached to the framework")
        self.context.stop_self(self.record)

    @property
    def class_name(self) -> str:
        """The component class name used in intents/manifests."""
        return type(self).__name__


class ServiceConnection:
    """A client's live binding to a service (the bindService token)."""

    _ids = itertools.count(1)

    def __init__(self, client_uid: int, client_pid: int, record: "ServiceRecord") -> None:
        self.connection_id = next(self._ids)
        self.client_uid = client_uid
        self.client_pid = client_pid
        self.record = record
        self.bound = True
        self.death_token: Optional["DeathToken"] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ServiceConnection(#{self.connection_id}, client_uid={self.client_uid}, "
            f"service={self.record.component_name}, bound={self.bound})"
        )


class ServiceRecord:
    """Framework-side bookkeeping for one live service instance."""

    _ids = itertools.count(1)

    def __init__(
        self,
        instance: Service,
        uid: int,
        package: str,
        component_name: str,
        create_time: float,
    ) -> None:
        self.record_id = next(self._ids)
        self.instance = instance
        self.uid = uid
        self.package = package
        self.component_name = component_name
        self.create_time = create_time
        self.state = ServiceState.CREATED
        self.started = False
        # Ordered by binding (a dict used as an ordered set): force-stop
        # publishes one unbind per connection in this order, and a set of
        # identity-hashed connections would order them by memory address.
        self.connections: Dict[ServiceConnection, None] = {}
        # uid -> number of live connections from that uid, for quick
        # "who keeps this alive" queries in the battery interface.
        self.client_counts: Dict[int, int] = {}

    @property
    def should_stay_alive(self) -> bool:
        """Android's rule: alive while started OR any binding remains."""
        return self.started or bool(self.connections)

    def add_connection(self, connection: ServiceConnection) -> None:
        """Track a new binding."""
        self.connections[connection] = None
        self.client_counts[connection.client_uid] = (
            self.client_counts.get(connection.client_uid, 0) + 1
        )

    def remove_connection(self, connection: ServiceConnection) -> None:
        """Drop a binding."""
        self.connections.pop(connection, None)
        count = self.client_counts.get(connection.client_uid, 0)
        if count <= 1:
            self.client_counts.pop(connection.client_uid, None)
        else:
            self.client_counts[connection.client_uid] = count - 1

    def bound_by(self, uid: int) -> bool:
        """Whether ``uid`` currently holds a binding."""
        return uid in self.client_counts

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ServiceRecord({self.package}/{self.component_name}, uid={self.uid}, "
            f"started={self.started}, bindings={len(self.connections)})"
        )
