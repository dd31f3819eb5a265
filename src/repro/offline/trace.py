"""Device trace capture — everything attribution needs, as plain data.

A :class:`DeviceTrace` is the complete observable record of one run:
every power-channel breakpoint, the foreground timeline, the installed-
app table, and E-Android's attack-link history.  It is what a real
deployment would log to flash; the :mod:`repro.offline.analyzer` then
reconstructs any profiler's view *from the trace alone* — no live
device required.  (The reproduction-feasibility note for this paper was
"only offline analysis possible" — this module is that workflow, made
first-class.)

Traces serialise to a single JSON document, or — via
:meth:`DeviceTrace.to_bytes`/:meth:`DeviceTrace.save` — to the compact
columnar binary format from :mod:`repro.store.binfmt`; :meth:`load` and
:meth:`from_bytes` auto-detect which of the two they were given.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..android.framework import AndroidSystem
    from ..core.eandroid import EAndroid

TRACE_FORMAT_VERSION = 1


class TraceFormatError(ValueError):
    """A trace document is malformed, truncated, or wrongly versioned.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    call sites (and the historical version-check contract) keep working.
    """


def check_foreground(foreground: List[Tuple[float, Optional[int]]]) -> None:
    """Refuse a foreground change list whose times go backwards.

    Attribution walks the list as consecutive spans, so a step back in
    time would charge overlapping spans twice.  Equal times are allowed.
    """
    for (before, _), (after, _) in zip(foreground, foreground[1:]):
        if after < before:
            raise TraceFormatError(
                f"foreground changes go back in time ({after!r} after {before!r})"
            )


@dataclass
class ChannelTrace:
    """One (owner, component) power channel's breakpoints."""

    owner: int
    component: str
    breakpoints: List[Tuple[float, float]] = field(default_factory=list)


@dataclass
class LinkRecord:
    """One attack link, as pure data."""

    kind: str
    driving_uid: int
    target: int
    begin_time: float
    end_time: Optional[float]


@dataclass
class DeviceTrace:
    """The full offline record of one simulated (or real) run."""

    captured_at: float
    channels: List[ChannelTrace] = field(default_factory=list)
    foreground: List[Tuple[float, Optional[int]]] = field(default_factory=list)
    apps: Dict[int, str] = field(default_factory=dict)  # uid -> label
    system_uids: List[int] = field(default_factory=list)
    links: List[LinkRecord] = field(default_factory=list)
    battery_capacity_j: float = 0.0

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialise the trace to JSON text."""
        return json.dumps(
            {
                "format_version": TRACE_FORMAT_VERSION,
                "captured_at": self.captured_at,
                "battery_capacity_j": self.battery_capacity_j,
                "apps": {str(uid): label for uid, label in self.apps.items()},
                "system_uids": self.system_uids,
                "foreground": self.foreground,
                "channels": [
                    {
                        "owner": ch.owner,
                        "component": ch.component,
                        "breakpoints": ch.breakpoints,
                    }
                    for ch in self.channels
                ],
                "links": [
                    {
                        "kind": link.kind,
                        "driving_uid": link.driving_uid,
                        "target": link.target,
                        "begin_time": link.begin_time,
                        "end_time": link.end_time,
                    }
                    for link in self.links
                ],
            },
            indent=indent,
        )

    @staticmethod
    def from_json(text: str) -> "DeviceTrace":
        """Parse a trace serialised by :meth:`to_json`.

        Malformed input — invalid JSON, a non-object document, a wrong
        format version, or missing/mistyped fields — raises
        :class:`TraceFormatError` rather than leaking the parser's raw
        ``KeyError``/``TypeError``.
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"trace is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise TraceFormatError(
                f"trace document must be a JSON object, got {type(data).__name__}"
            )
        version = data.get("format_version")
        if version != TRACE_FORMAT_VERSION:
            raise TraceFormatError(
                f"unsupported trace format version {version!r} "
                f"(expected {TRACE_FORMAT_VERSION})"
            )
        try:
            trace = DeviceTrace(
                captured_at=float(data["captured_at"]),
                battery_capacity_j=float(data.get("battery_capacity_j", 0.0)),
                apps={int(uid): label for uid, label in data.get("apps", {}).items()},
                system_uids=list(data.get("system_uids", [])),
                foreground=[
                    (float(t), None if uid is None else int(uid))
                    for t, uid in data.get("foreground", [])
                ],
                channels=[
                    ChannelTrace(
                        owner=int(ch["owner"]),
                        component=ch["component"],
                        breakpoints=[
                            (float(t), float(p)) for t, p in ch["breakpoints"]
                        ],
                    )
                    for ch in data.get("channels", [])
                ],
                links=[
                    LinkRecord(
                        kind=link["kind"],
                        driving_uid=int(link["driving_uid"]),
                        target=int(link["target"]),
                        begin_time=float(link["begin_time"]),
                        end_time=(
                            None
                            if link["end_time"] is None
                            else float(link["end_time"])
                        ),
                    )
                    for link in data.get("links", [])
                ],
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            if isinstance(exc, TraceFormatError):  # pragma: no cover
                raise
            raise TraceFormatError(
                f"trace document is truncated or malformed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        check_foreground(trace.foreground)
        return trace

    def to_bytes(self, binary: bool = True) -> bytes:
        """Serialise to bytes: the columnar binary format, or JSON utf-8."""
        if binary:
            from ..store.binfmt import encode_trace

            return encode_trace(self)
        return self.to_json().encode("utf-8")

    @staticmethod
    def from_bytes(data: bytes) -> "DeviceTrace":
        """Parse either serialisation, auto-detected by the binary magic."""
        from ..store.binfmt import decode_trace, is_binary_trace

        if is_binary_trace(data):
            return decode_trace(data)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                f"trace is neither binary (bad magic) nor valid UTF-8 JSON: {exc}"
            ) from exc
        return DeviceTrace.from_json(text)

    def save(self, path: Union[str, Path], binary: Optional[bool] = None) -> Path:
        """Write the trace to ``path``; format defaults from the suffix.

        ``.bin`` / ``.rtb`` suffixes pick the binary format, anything
        else picks JSON; pass ``binary`` explicitly to override.
        """
        path = Path(path)
        if binary is None:
            binary = path.suffix.lower() in (".bin", ".rtb")
        path.write_bytes(self.to_bytes(binary=binary))
        return path

    @staticmethod
    def load(path: Union[str, Path]) -> "DeviceTrace":
        """Read a trace file in either format (auto-detected)."""
        return DeviceTrace.from_bytes(Path(path).read_bytes())


def capture_trace(
    system: "AndroidSystem", eandroid: Optional["EAndroid"] = None
) -> DeviceTrace:
    """Snapshot a live device (and optionally its E-Android state)."""
    meter = system.hardware.meter
    trace = DeviceTrace(
        captured_at=system.now,
        battery_capacity_j=system.battery.capacity_j,
    )
    for owner, component in meter.channels():
        channel = meter.trace(owner, component)
        assert channel is not None
        trace.channels.append(
            ChannelTrace(
                owner=owner,
                component=component,
                breakpoints=channel.breakpoints(),
            )
        )
    trace.foreground = system.am.timeline.changes()
    for app in system.package_manager.installed_apps():
        if app.uid is not None:
            trace.apps[app.uid] = app.label
            if system.package_manager.is_system_uid(app.uid):
                trace.system_uids.append(app.uid)
    if eandroid is not None:
        for link in eandroid.accounting.attack_log():
            trace.links.append(
                LinkRecord(
                    kind=link.kind.value,
                    driving_uid=link.driving_uid,
                    target=link.target,
                    begin_time=link.begin_time,
                    end_time=link.end_time,
                )
            )
    return trace
