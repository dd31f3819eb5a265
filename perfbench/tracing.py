"""In-memory spans around the calls the benchmark makes into each layer.

A span has a name, a start, an end, a parent and the id of the op it
belongs to.  Spans are scaled by their slice's yardstick factor when the
slice closes, so per-layer times are at reference speed like the
end-to-end ones.  At the end they are written as Chrome-trace JSON
(``chrome://tracing`` or https://ui.perfetto.dev opens it), with each
span's normalised duration and self time (duration minus its
children's) in its ``args``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "tid", "norm_s", "args")

    def __init__(self, sid: int, name: str, start: float, parent: Optional[int], op: int, tid: int) -> None:
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.tid = tid
        self.norm_s = 0.0
        self.args: Dict[str, object] = {}

    @property
    def raw_s(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``enabled=False`` makes :meth:`span` a no-op."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._open: List[Span] = []
        self._pending = 0  # index of the first span not yet scaled
        self.op = 0

    @contextmanager
    def span(self, name: str, tid: int = 0) -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        parent = self._open[-1].id if self._open else None
        record = Span(len(self.spans), name, time.perf_counter(), parent, self.op, tid)
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float, tid: int = 0, **args: object) -> Span:
        """Record a span measured elsewhere (e.g. one pipelined request)."""
        record = Span(len(self.spans), name, start, None, self.op, tid)
        record.end = end
        record.args.update(args)
        self.spans.append(record)
        return record

    def scale_pending(self, factor: float) -> None:
        """Apply a closed slice's factor to the spans recorded in it."""
        for record in self.spans[self._pending:]:
            record.norm_s = record.raw_s * factor
        self._pending = len(self.spans)

    def durations_ms(self, name: str) -> List[float]:
        """Normalised durations of every span called ``name``."""
        return [s.norm_s * 1e3 for s in self.spans if s.name == name]

    def mean_ms(self, name: str) -> float:
        """Mean normalised duration of the spans called ``name`` (0: none)."""
        durations = self.durations_ms(name)
        return sum(durations) / len(durations) if durations else 0.0

    def self_times_s(self) -> Dict[int, float]:
        """Each span's normalised duration minus its children's."""
        own = {s.id: s.norm_s for s in self.spans}
        for record in self.spans:
            if record.parent is not None:
                own[record.parent] -= record.norm_s
        return own

    def write_chrome(self, path: Path, meta: Dict[str, object]) -> None:
        """Chrome-trace JSON ("X" complete events, microseconds)."""
        origin = min((s.start for s in self.spans), default=0.0)
        own = self.self_times_s()
        events = []
        for record in self.spans:
            args = {
                "op": record.op,
                "parent": record.parent,
                "norm_us": round(record.norm_s * 1e6, 3),
                "self_norm_us": round(own[record.id] * 1e6, 3),
            }
            args.update(record.args)
            events.append(
                {
                    "name": record.name,
                    "cat": record.name.split(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": record.tid,
                    "ts": round((record.start - origin) * 1e6, 3),
                    "dur": round(record.raw_s * 1e6, 3),
                    "args": args,
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}),
            encoding="utf-8",
        )
