"""Telemetry exporters: Chrome trace-event JSON, JSONL, metrics summary.

The Chrome trace export loads directly in Perfetto / ``chrome://tracing``:

* every telemetry event appears as an **instant** event (``ph: "i"``) on
  a per-uid track;
* collateral **attack windows** become duration events (``ph: "X"``) on
  a dedicated per-(uid, kind) track, so overlapping attacks from one
  malware (Fig. 6) render side by side instead of partially nested;
* experiment **phases** (measurement windows) become balanced ``B``/``E``
  duration events on the device timeline track.

Timestamps are virtual seconds converted to trace microseconds.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .bus import TelemetryBus, TelemetryRecorder
from .events import (
    AttackWindowBeginEvent,
    AttackWindowEndEvent,
    PhaseBeginEvent,
    PhaseEndEvent,
    SCREEN_TARGET,
    TelemetryEvent,
)

PathLike = Union[str, Path]

DEVICE_PID = 1
TIMELINE_TRACK = "timeline"


def _us(seconds: float) -> int:
    """Virtual seconds -> integer trace microseconds."""
    return int(round(seconds * 1_000_000))


def _target_label(target: int, labels: Dict[int, str]) -> str:
    if target == SCREEN_TARGET:
        return "screen"
    return labels.get(target, f"uid {target}")


class _TidAllocator:
    """Stable small-int thread ids keyed by logical track."""

    def __init__(self) -> None:
        self._tids: Dict[Any, int] = {}
        self._names: Dict[int, str] = {}

    def tid(self, key: Any, name: str) -> int:
        tid = self._tids.get(key)
        if tid is None:
            tid = len(self._tids)
            self._tids[key] = tid
            self._names[tid] = name
        return tid

    def thread_metadata(self, pid: int) -> List[Dict[str, Any]]:
        return [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
            for tid, name in sorted(self._names.items())
        ]


def to_chrome_trace(
    events: Sequence[TelemetryEvent],
    labels: Optional[Dict[int, str]] = None,
    end_time: Optional[float] = None,
    pid: int = DEVICE_PID,
    process_name: str = "device",
) -> Dict[str, Any]:
    """Build a Chrome trace-event document from recorded events.

    Args:
        events: the recorded stream (any order; sorted internally).
        labels: uid -> display label, used for track names.
        end_time: clamp for still-open attack windows / phases
            (defaults to the latest event time).
        pid: the process id to file every track under.
        process_name: the ``process_name`` metadata for ``pid``.
    """
    labels = labels or {}
    ordered = sorted(events, key=lambda e: e.time)
    if end_time is None:
        end_time = ordered[-1].time if ordered else 0.0

    tids = _TidAllocator()
    timeline_tid = tids.tid(TIMELINE_TRACK, "device timeline")
    trace_events: List[Dict[str, Any]] = []

    open_attacks: Dict[int, AttackWindowBeginEvent] = {}
    open_phases: List[Tuple[str, float]] = []

    def uid_track(uid: Optional[int]) -> int:
        if uid is None:
            return timeline_tid
        return tids.tid(("uid", uid), labels.get(uid, f"uid {uid}"))

    def attack_track(uid: int, kind: str) -> int:
        base = labels.get(uid, f"uid {uid}")
        return tids.tid(("attack", uid, kind), f"{base} · {kind} attacks")

    def emit_attack_span(begin: AttackWindowBeginEvent, end_s: float) -> None:
        trace_events.append(
            {
                "name": f"attack:{begin.kind}",
                "cat": "attack",
                "ph": "X",
                "ts": _us(begin.time),
                "dur": max(0, _us(end_s) - _us(begin.time)),
                "pid": pid,
                "tid": attack_track(begin.attacker_uid, begin.kind),
                "args": {
                    "link_id": begin.link_id,
                    "attacker": _target_label(begin.attacker_uid, labels),
                    "target": _target_label(begin.target, labels),
                    "detail": begin.detail,
                },
            }
        )

    for event in ordered:
        if isinstance(event, AttackWindowBeginEvent):
            open_attacks[event.link_id] = event
            continue
        if isinstance(event, AttackWindowEndEvent):
            begin = open_attacks.pop(event.link_id, None)
            if begin is not None:
                emit_attack_span(begin, event.time)
            continue
        if isinstance(event, PhaseBeginEvent):
            open_phases.append((event.phase, event.time))
            trace_events.append(
                {
                    "name": event.phase,
                    "cat": "phase",
                    "ph": "B",
                    "ts": _us(event.time),
                    "pid": pid,
                    "tid": timeline_tid,
                }
            )
            continue
        if isinstance(event, PhaseEndEvent):
            # Close the innermost matching open phase (LIFO discipline
            # keeps B/E nesting monotonic even with repeated names).
            for index in range(len(open_phases) - 1, -1, -1):
                if open_phases[index][0] == event.phase:
                    del open_phases[index]
                    break
            trace_events.append(
                {
                    "name": event.phase,
                    "cat": "phase",
                    "ph": "E",
                    "ts": _us(event.time),
                    "pid": pid,
                    "tid": timeline_tid,
                }
            )
            continue
        trace_events.append(
            {
                "name": event.name,
                "cat": event.category.value,
                "ph": "i",
                "s": "t",
                "ts": _us(event.time),
                "pid": pid,
                "tid": uid_track(event.driving_uid),
                "args": _json_safe(event.payload()),
            }
        )

    # Still-open windows/phases clamp to the capture end.
    for begin in open_attacks.values():
        emit_attack_span(begin, max(end_time, begin.time))
    for phase, _opened in reversed(open_phases):
        trace_events.append(
            {
                "name": phase,
                "cat": "phase",
                "ph": "E",
                "ts": _us(end_time),
                "pid": pid,
                "tid": timeline_tid,
            }
        )

    metadata: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": process_name},
        }
    ]
    metadata.extend(tids.thread_metadata(pid))
    # Stable ordering: metadata first, then by timestamp (ties keep
    # B-before-E emission order because sort is stable).
    trace_events.sort(key=lambda e: e.get("ts", -1))
    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.telemetry", "event_count": len(ordered)},
    }


def chrome_trace_json(
    events: Sequence[TelemetryEvent],
    labels: Optional[Dict[int, str]] = None,
    end_time: Optional[float] = None,
    indent: Optional[int] = None,
) -> str:
    """The Chrome trace document as JSON text."""
    return json.dumps(
        to_chrome_trace(events, labels=labels, end_time=end_time), indent=indent
    )


def write_chrome_trace(
    path: PathLike,
    events: Sequence[TelemetryEvent],
    labels: Optional[Dict[int, str]] = None,
    end_time: Optional[float] = None,
) -> Path:
    """Write a Chrome trace JSON file; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        chrome_trace_json(events, labels=labels, end_time=end_time, indent=None),
        encoding="utf-8",
    )
    return target


# ----------------------------------------------------------------------
# JSONL stream
# ----------------------------------------------------------------------
def events_to_jsonl(events: Iterable[TelemetryEvent]) -> str:
    """One JSON object per line, in event order."""
    return "\n".join(json.dumps(_json_safe(e.to_dict())) for e in events)


def write_jsonl(path: PathLike, events: Iterable[TelemetryEvent]) -> Path:
    """Write the JSONL stream to a file; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    text = events_to_jsonl(events)
    target.write_text(text + ("\n" if text else ""), encoding="utf-8")
    return target


# ----------------------------------------------------------------------
# metrics summary
# ----------------------------------------------------------------------
def metrics_summary(source: Union[TelemetryBus, TelemetryRecorder]) -> Dict[str, Any]:
    """A JSON-ready counters/timings summary for a bus or recorder."""
    if isinstance(source, TelemetryRecorder):
        return source.stats()
    return source.stats_dict()


def render_metrics_text(summary: Dict[str, Any]) -> str:
    """The metrics summary as human-readable text."""
    lines = [f"telemetry: {summary.get('total_events', 0)} event(s)"]
    by_category = summary.get("by_category", {})
    for category, stats in by_category.items():
        count = stats["count"] if isinstance(stats, dict) else stats
        lines.append(f"  {category:<10} {count}")
    errors = summary.get("subscriber_errors", 0)
    if errors:
        lines.append(f"  subscriber errors: {errors}")
    return "\n".join(lines)


def _json_safe(value: Any) -> Any:
    """Best-effort conversion of payload values to JSON-ready data."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
