"""Drift-normalised timing: the yardstick, slice scaling and percentiles.

The machines this benchmark runs on change speed by a factor of up to
two from one tenth of a second to the next (shared cores).  Raw
wall-clock time therefore cannot repeat within the benchmark's bounds,
so every timed slice of about 50 ms is bracketed by a *yardstick*: a
fixed pure-Python routine of a few milliseconds that imports nothing
from ``repro``.  The
slice's durations are scaled by ``Y_REF_MS / mean(y_before, y_after)``,
which expresses them at the speed the machine had when ``Y_REF_MS`` was
measured.  Metrics keep their units; the raw values are kept beside
them as ``wall.*`` diagnostics.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import time
from typing import Callable, Dict, List, Sequence

#: The yardstick's duration at reference speed, in milliseconds.  A
#: constant of the benchmark: every normalised time is expressed at the
#: machine speed this figure was measured at (the median reading on a
#: 2-vCPU Xeon VM, CPython 3.11).  Changing it rescales every
#: normalised metric.
Y_REF_MS = 5.0

#: Slice length.  The machine's speed changes within a few hundred ms,
#: so slices of 300 ms bracketed by a 15 ms yardstick left about twice
#: the residual drift of 50 ms slices bracketed by a 4 ms one (see
#: README.md); the yardstick costs about 9% of the measuring time.
SLICE_S = 0.05

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

_YARD_ITEMS = 3_000
_YARD_DOCS = 75


class TooFewSamples(ValueError):
    """A percentile was asked of a sample without enough tail beyond it."""


class _Item:
    __slots__ = ("key", "a", "b", "tag")

    def __init__(self, key: str, a: int, b: float, tag: int) -> None:
        self.key = key
        self.a = a
        self.b = b
        self.tag = tag


def _yard_work() -> int:
    items = {}
    for i in range(_YARD_ITEMS):
        items[i] = _Item("k%06d" % ((i * 7919) % _YARD_ITEMS), i, i * 0.5, i & 7)
    acc = 0.0
    for item in items.values():
        acc += item.a * item.b + item.tag
    ordered = sorted(items.values(), key=lambda item: item.key)
    size = 0
    for item in ordered[:_YARD_DOCS]:
        size += len(json.dumps({"k": item.key, "a": item.a, "b": item.b, "t": acc > 0}))
    return size


def yardstick() -> float:
    """Run the fixed routine once; its duration in milliseconds.

    Allocation-heavy on purpose (objects, a dict, a sort, JSON), like
    the code it normalises.  GC is paused so the caller's heap cannot
    move the reading.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _yard_work()
        return (time.perf_counter() - started) * 1e3
    finally:
        if enabled:
            gc.enable()


def scale_factor(y_ref: float, y_before: float, y_after: float) -> float:
    """How much to multiply a slice's raw durations by.

    ``y_before`` / ``y_after`` are the yardstick readings that bracket
    the slice; a machine running slow reads a larger yardstick and the
    factor shrinks the slice's durations back to reference speed.
    """
    if y_ref <= 0 or y_before <= 0 or y_after <= 0:
        raise ValueError("yardstick readings must be positive")
    return y_ref / ((y_before + y_after) / 2.0)


class Clock:
    """Runs the yardstick between slices and hands out each slice's factor."""

    def __init__(
        self, yard: Callable[[], float] = yardstick, y_ref: float = Y_REF_MS
    ) -> None:
        self.yard = yard
        self.y_ref = y_ref
        self.readings: List[float] = []
        self._last = self._read()

    def _read(self) -> float:
        reading = self.yard()
        self.readings.append(reading)
        return reading

    def restart(self) -> None:
        """Re-read the yardstick after untimed work (checks, set-up)."""
        self._last = self._read()

    def close(self) -> float:
        """End the current slice: read the yardstick, return the factor."""
        reading = self._read()
        factor = scale_factor(self.y_ref, self._last, reading)
        self._last = reading
        return factor


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100), linear between order statistics.

    Raises :class:`TooFewSamples` unless at least :data:`MIN_BEYOND`
    samples lie beyond it, so a reported tail always rests on a real tail.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q!r}")
    n = len(values)
    beyond = n - math.ceil(n * q / 100.0)
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it; need {MIN_BEYOND}"
        )
    ordered = sorted(values)
    rank = (n - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return statistics.median(values)


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (the acceptance rule)."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid


class Samples:
    """Per-op latencies and busy time, raw and normalised, over all slices.

    With ``window_ops`` the slices are also grouped into windows of
    consecutive slices holding at least that many ops, and the
    end-to-end metrics are medians over the windows: a window the
    machine disturbed beyond what the yardstick caught then moves the
    median by one rank instead of moving every pooled figure.  A last
    window short of ``window_ops`` is dropped.  Without it the run is
    one window and the metrics are pooled over every op.
    """

    def __init__(self, window_ops: int = 0) -> None:
        self.window_ops = window_ops
        self.latency_ms: List[float] = []
        self.raw_latency_ms: List[float] = []
        self.busy_s = 0.0
        self.raw_busy_s = 0.0
        #: Each window's first op, normalised and raw busy seconds.
        self.window_starts: List[int] = []
        self.window_busy_s: List[float] = []
        self.window_raw_busy_s: List[float] = []

    def add_slice(
        self, latencies_ms: Sequence[float], busy_s: float, factor: float
    ) -> None:
        starts = self.window_starts
        if not starts or (self.window_ops and self.ops - starts[-1] >= self.window_ops):
            starts.append(self.ops)
            self.window_busy_s.append(0.0)
            self.window_raw_busy_s.append(0.0)
        self.window_busy_s[-1] += busy_s * factor
        self.window_raw_busy_s[-1] += busy_s
        self.raw_latency_ms.extend(latencies_ms)
        self.latency_ms.extend(lat * factor for lat in latencies_ms)
        self.raw_busy_s += busy_s
        self.busy_s += busy_s * factor

    @property
    def ops(self) -> int:
        return len(self.latency_ms)

    def _medians(self, latencies: List[float], busy_s: List[float]) -> Dict[str, float]:
        """Throughput, p50 and p90 of each full window; their medians."""
        ends = self.window_starts[1:] + [self.ops]
        full = [
            (start, end, busy) for start, end, busy in zip(self.window_starts, ends, busy_s)
            if end - start >= self.window_ops
        ]
        if not full:
            raise TooFewSamples(f"{self.ops} ops do not fill one window of {self.window_ops}")
        return {
            "throughput_ops_s": median([(end - start) / b for start, end, b in full]),
            "p50_ms": median([median(latencies[start:end]) for start, end, _ in full]),
            "p90_ms": median([percentile(latencies[start:end], 90) for start, end, _ in full]),
        }

    def end_to_end(self, setups_s: Sequence[float], raw_setups_s: Sequence[float]) -> Dict[str, float]:
        """The four end-to-end metrics, plus their raw ``wall.*`` twins."""
        metrics = self._medians(self.latency_ms, self.window_busy_s)
        metrics["setup_s"] = median(setups_s)
        for name, value in self._medians(self.raw_latency_ms, self.window_raw_busy_s).items():
            metrics["wall." + name] = value
        metrics["wall.setup_s"] = median(raw_setups_s)
        return metrics


def timed_setups(workload, count: int, clock: Clock):
    """Build ``workload`` ``count`` times; normalised and raw seconds of each.

    ``workload.build()`` is a generator that yields between steps of a
    few tens of milliseconds; each step is scaled by the yardstick
    readings that bracket it, like a timed slice.  Every build but the
    last is closed (``workload.close()``) before the next one starts.
    """
    normalised: List[float] = []
    raw: List[float] = []
    for attempt in range(count):
        if attempt:
            workload.close()
        clock.restart()
        total = elapsed = 0.0
        started = time.perf_counter()
        for _ in workload.build():
            step = time.perf_counter() - started
            total += step * clock.close()
            elapsed += step
            started = time.perf_counter()
        step = time.perf_counter() - started
        total += step * clock.close()
        elapsed += step
        normalised.append(total)
        raw.append(elapsed)
    return normalised, raw
