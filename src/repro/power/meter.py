"""Hardware ground-truth energy meter.

The :class:`EnergyMeter` plays the role of the external power monitor
(the Monsoon-style instrumentation energy papers calibrate against): it
sees the *true* draw of every hardware channel and never lies.  The
profilers under study (BatteryStats, PowerTutor, E-Android) are given
only this meter plus the framework's event stream, and each applies its
own attribution policy — the point of the paper is precisely that the
baselines mis-attribute perfectly measured energy.

Channels are keyed by ``(owner, component)``:

* ``owner`` is a uid for draws hardware can attribute to an app (CPU
  cycles, radio packets, camera sessions), or one of the pseudo-owners
  below for shared draws.
* ``component`` is the hardware component name, e.g. ``"cpu"``.

Pseudo-owners:

* :data:`SCREEN_OWNER` — panel draw; hardware cannot know which app
  "caused" the screen, so policy is left to profilers.
* :data:`SYSTEM_OWNER` — platform base / idle draw.

Query fast paths
----------------

Every mutation bumps an **append epoch** (global and per-owner), which
keys the meter's memoization:

* an owner -> channels index makes owner-filtered queries skip
  unrelated channels entirely;
* :meth:`energy_by_owner` keeps a small per-window cache and only
  re-integrates owners whose traces changed since the cached epoch;
* :meth:`total_power_breakpoints` is memoized on the append epoch.

``naive_*`` twins preserve the original full-rescan implementations;
the conformance oracles and the benchmark registry pin the two code
paths to identical joules.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..sim.kernel import Kernel
from ..telemetry import Category, DrawChangeEvent, TelemetryBus
from .trace import PowerTrace

SCREEN_OWNER = -100
"""Pseudo-owner for the display panel's draw."""

SYSTEM_OWNER = -1
"""Pseudo-owner for unattributable platform base draw."""

ChannelKey = Tuple[int, str]
DrawListener = Callable[[float, int, str, float], None]

#: Windows kept in each memoized query cache before LRU eviction.
_QUERY_CACHE_WINDOWS = 8


class EnergyMeter:
    """Records every channel's power history and integrates energy."""

    def __init__(self, kernel: Kernel, telemetry: Optional[TelemetryBus] = None) -> None:
        self._kernel = kernel
        self._telemetry = telemetry
        self._traces: Dict[ChannelKey, PowerTrace] = {}
        self._listeners: List[DrawListener] = []
        # Append-epoch invalidation: bumped on every trace mutation.
        self._epoch = 0
        self._owner_epochs: Dict[int, int] = {}
        self._owner_channels: Dict[int, List[ChannelKey]] = {}
        # (start, end) -> {"epoch", "owner_epochs", "energies"} (LRU).
        self._by_owner_cache: "OrderedDict[Tuple[float, float], Dict]" = OrderedDict()
        self._breakpoints_cache: Optional[Tuple[int, List[Tuple[float, float]]]] = None
        self.query_cache_stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "owner_recomputes": 0,
        }

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def set_draw(self, owner: int, component: str, power_mw: float) -> None:
        """Set the instantaneous draw of channel ``(owner, component)``."""
        key = (owner, component)
        trace = self._traces.get(key)
        if trace is None:
            if power_mw == 0.0:
                return  # don't materialise channels that never drew power
            trace = PowerTrace()
            self._traces[key] = trace
            self._owner_channels.setdefault(owner, []).append(key)
        now = self._kernel.now
        if trace.append(now, power_mw):
            self._epoch += 1
            self._owner_epochs[owner] = self._epoch
        bus = self._telemetry
        if bus is not None:
            # Draw changes are hot: only build the event when observed.
            if bus.wants(Category.POWER):
                bus.publish(
                    DrawChangeEvent(
                        time=now, owner=owner, component=component, power_mw=power_mw
                    )
                )
            else:
                bus.tick(Category.POWER, now)
        for listener in self._listeners:
            listener(now, owner, component, power_mw)

    def add_listener(self, listener: DrawListener) -> None:
        """Subscribe to draw changes (time, owner, component, power_mw)."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # epochs (cache keys for the memos above the meter)
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Monotonic append counter; changes iff any trace changed."""
        return self._epoch

    def owner_epoch(self, owner: int) -> int:
        """Epoch of the owner's last trace change (0 if never drew)."""
        return self._owner_epochs.get(owner, 0)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def channels(self) -> List[ChannelKey]:
        """All channels that ever drew power."""
        return list(self._traces)

    def channels_of(self, owner: int) -> List[ChannelKey]:
        """The channels one owner ever drew on (index lookup)."""
        return list(self._owner_channels.get(owner, ()))

    def trace(self, owner: int, component: str) -> Optional[PowerTrace]:
        """The raw trace for one channel, if it exists."""
        return self._traces.get((owner, component))

    def current_power_mw(self, owner: Optional[int] = None) -> float:
        """Total instantaneous draw (optionally for a single owner)."""
        if owner is not None:
            return sum(
                self._traces[key].last_power
                for key in self._owner_channels.get(owner, ())
            )
        return sum(trace.last_power for trace in self._traces.values())

    def _window(self, start: float, end: Optional[float]) -> Tuple[float, float]:
        """Resolve (and validate) a query window; ``end`` defaults to now."""
        window_end = self._kernel.now if end is None else end
        if window_end < start:
            raise ValueError(f"window end {window_end!r} before start {start!r}")
        return start, window_end

    def energy_j(
        self,
        owner: Optional[int] = None,
        component: Optional[str] = None,
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> float:
        """Energy drawn over ``[start, end)``, filtered by owner/component.

        ``end`` defaults to the current virtual time.  Raises
        ``ValueError`` when the window is reversed (``end < start``).
        """
        start, window_end = self._window(start, end)
        if owner is None and component is None:
            return sum(self._by_owner(start, window_end).values())
        if owner is not None:
            keys: Iterable[ChannelKey] = self._owner_channels.get(owner, ())
            if component is not None:
                keys = [key for key in keys if key[1] == component]
        else:
            keys = [key for key in self._traces if key[1] == component]
        return sum(self._traces[key].energy_j(start, window_end) for key in keys)

    def _by_owner(self, start: float, end: float) -> Dict[int, float]:
        """Per-owner energies over a resolved window, memoized.

        A cached window only re-integrates the owners whose traces
        changed since it was stored (append-epoch comparison); every
        other owner's joules are reused as-is.
        """
        window = (start, end)
        entry = self._by_owner_cache.get(window)
        if entry is not None and entry["epoch"] == self._epoch:
            self._by_owner_cache.move_to_end(window)
            self.query_cache_stats["hits"] += 1
            return entry["energies"]
        if entry is None:
            self.query_cache_stats["misses"] += 1
            entry = {"epoch": -1, "owner_epochs": {}, "energies": {}}
            self._by_owner_cache[window] = entry
            if len(self._by_owner_cache) > _QUERY_CACHE_WINDOWS:
                self._by_owner_cache.popitem(last=False)
        else:
            self._by_owner_cache.move_to_end(window)
        cached_epochs = entry["owner_epochs"]
        energies = entry["energies"]
        for owner, keys in self._owner_channels.items():
            owner_epoch = self._owner_epochs.get(owner, 0)
            if cached_epochs.get(owner) == owner_epoch:
                continue
            self.query_cache_stats["owner_recomputes"] += 1
            energies[owner] = sum(
                self._traces[key].energy_j(start, end) for key in keys
            )
            cached_epochs[owner] = owner_epoch
        entry["epoch"] = self._epoch
        return energies

    def energy_by_owner(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> Dict[int, float]:
        """Map of owner -> energy (J) over the window (zero rows omitted)."""
        start, window_end = self._window(start, end)
        return {
            owner: energy
            for owner, energy in self._by_owner(start, window_end).items()
            if energy
        }

    def energy_by_component(
        self, owner: int, start: float = 0.0, end: Optional[float] = None
    ) -> Dict[str, float]:
        """Per-component energy breakdown for one owner."""
        start, window_end = self._window(start, end)
        result: Dict[str, float] = {}
        for key in self._owner_channels.get(owner, ()):
            energy = self._traces[key].energy_j(start, window_end)
            if energy:
                result[key[1]] = result.get(key[1], 0.0) + energy
        return result

    def app_energy_j(
        self, uid: int, start: float = 0.0, end: Optional[float] = None
    ) -> float:
        """Energy directly attributable to an app uid (excludes screen/system)."""
        return self.energy_j(owner=uid, start=start, end=end)

    def screen_energy_j(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Panel energy over the window."""
        return self.energy_j(owner=SCREEN_OWNER, start=start, end=end)

    def total_energy_j(self, start: float = 0.0, end: Optional[float] = None) -> float:
        """Whole-device energy over the window."""
        return self.energy_j(start=start, end=end)

    # ------------------------------------------------------------------
    # naive twins (oracle + benchmark baselines for the fast paths)
    # ------------------------------------------------------------------
    def naive_energy_j(
        self,
        owner: Optional[int] = None,
        component: Optional[str] = None,
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> float:
        """The pre-cache full rescan of :meth:`energy_j` (O(channels x B))."""
        start, window_end = self._window(start, end)
        total = 0.0
        for (channel_owner, channel_component), trace in self._traces.items():
            if owner is not None and channel_owner != owner:
                continue
            if component is not None and channel_component != component:
                continue
            total += trace.naive_energy_j(start, window_end)
        return total

    def naive_energy_by_owner(
        self, start: float = 0.0, end: Optional[float] = None
    ) -> Dict[int, float]:
        """The pre-cache full rescan of :meth:`energy_by_owner`."""
        start, window_end = self._window(start, end)
        result: Dict[int, float] = {}
        for (channel_owner, _), trace in self._traces.items():
            energy = trace.naive_energy_j(start, window_end)
            if energy:
                result[channel_owner] = result.get(channel_owner, 0.0) + energy
        return result

    # ------------------------------------------------------------------
    # whole-device curve
    # ------------------------------------------------------------------
    def total_power_breakpoints(self) -> List[Tuple[float, float]]:
        """Whole-device piecewise-constant power curve.

        Merges every channel's breakpoints; used by the battery model to
        compute charge level over time without sampling.

        Single delta-merge sweep: each channel contributes its power
        *changes* keyed by time, and one running sum over the sorted
        times rebuilds the total curve.  O(B log B) in the total number
        of breakpoints B; the result is memoized on the append epoch so
        repeated battery queries between draw changes are O(B) copies.
        """
        cached = self._breakpoints_cache
        if cached is not None and cached[0] == self._epoch:
            return list(cached[1])
        deltas: Dict[float, float] = {}
        for trace in self._traces.values():
            previous = 0.0
            for t, power in trace.breakpoints():
                deltas[t] = deltas.get(t, 0.0) + (power - previous)
                previous = power
        curve: List[Tuple[float, float]] = []
        running = 0.0
        for t in sorted(deltas):
            running += deltas[t]
            curve.append((t, running))
        self._breakpoints_cache = (self._epoch, curve)
        return list(curve)

    def owners(self) -> Iterable[int]:
        """Distinct owners seen on any channel."""
        return set(self._owner_channels)
