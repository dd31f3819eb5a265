"""The compact columnar binary trace format (``trace-bin``, version 1).

A :class:`~repro.offline.trace.DeviceTrace` is dominated by its power
channels — tens of thousands of ``(time, power)`` breakpoints that JSON
spells out as decimal text (~35 bytes each).  This format packs them as
raw little-endian doubles (16 bytes per breakpoint, bit-exact), keeps
the small irregular parts (app table, foreground timeline, attack
links, channel directory) as one JSON header, and seals the whole
document with a CRC32 footer so truncation and bit-rot are detected
instead of silently mis-decoded.

Layout::

    offset 0   magic      8s   b"REPROTRC"
    offset 8   version    u16  format version (currently 1)
    offset 10  flags      u16  reserved, must be 0
    offset 12  header_len u32  byte length of the JSON header
    offset 16  header     JSON (utf-8): captured_at, battery_capacity_j,
                          apps, system_uids, foreground, links, and the
                          channel directory [{owner, component, count}]
    ...        payload    per channel, in directory order:
                          count doubles of times, count doubles of powers
    trailer    crc32      u32  zlib.crc32 of every preceding byte

All integers and doubles are little-endian.  Because the directory
carries per-channel counts, a reader can locate any channel's columns
by offset arithmetic alone — :class:`LazyBinaryTrace` decodes only the
channels (and only the time window) a query touches.

Every malformed input raises
:class:`~repro.offline.trace.TraceFormatError`; decoding never lets a
raw ``struct.error`` / ``KeyError`` / ``UnicodeDecodeError`` escape.
"""

from __future__ import annotations

import bisect
import json
import struct
import sys
import zlib
from array import array
from typing import Any, Dict, List, Optional, Tuple

from ..offline.trace import (
    ChannelTrace,
    DeviceTrace,
    LinkRecord,
    TraceFormatError,
    check_foreground,
)

MAGIC = b"REPROTRC"
BINARY_FORMAT_VERSION = 1

_PREAMBLE = struct.Struct("<8sHHI")  # magic, version, flags, header_len
_FOOTER = struct.Struct("<I")  # crc32
_DOUBLE_SIZE = 8


def is_binary_trace(data: bytes) -> bool:
    """Whether ``data`` starts with the binary trace magic."""
    return bytes(data[: len(MAGIC)]) == MAGIC


def _pack_doubles(values: List[float]) -> bytes:
    arr = array("d", values)
    if sys.byteorder == "big":  # pragma: no cover - big-endian hosts only
        arr.byteswap()
    return arr.tobytes()


def _unpack_doubles(data: bytes) -> List[float]:
    arr = array("d")
    arr.frombytes(data)
    if sys.byteorder == "big":  # pragma: no cover - big-endian hosts only
        arr.byteswap()
    return arr.tolist()


def encode_trace(trace: DeviceTrace) -> bytes:
    """Serialise a :class:`DeviceTrace` to the binary format."""
    header: Dict[str, Any] = {
        "captured_at": trace.captured_at,
        "battery_capacity_j": trace.battery_capacity_j,
        "apps": {str(uid): label for uid, label in trace.apps.items()},
        "system_uids": list(trace.system_uids),
        "foreground": [[t, uid] for t, uid in trace.foreground],
        "links": [
            {
                "kind": link.kind,
                "driving_uid": link.driving_uid,
                "target": link.target,
                "begin_time": link.begin_time,
                "end_time": link.end_time,
            }
            for link in trace.links
        ],
        "channels": [
            {
                "owner": ch.owner,
                "component": ch.component,
                "count": len(ch.breakpoints),
            }
            for ch in trace.channels
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    parts = [
        _PREAMBLE.pack(MAGIC, BINARY_FORMAT_VERSION, 0, len(header_bytes)),
        header_bytes,
    ]
    for channel in trace.channels:
        times = [t for t, _ in channel.breakpoints]
        powers = [p for _, p in channel.breakpoints]
        parts.append(_pack_doubles(times))
        parts.append(_pack_doubles(powers))
    body = b"".join(parts)
    return body + _FOOTER.pack(zlib.crc32(body) & 0xFFFFFFFF)


class LazyBinaryTrace:
    """A binary trace document opened for selective decoding.

    Construction validates the framing (magic, version, CRC32, channel
    directory vs payload length) and parses only the JSON header; the
    packed breakpoint columns stay as bytes until a channel is asked
    for.  :meth:`breakpoints` additionally takes a ``[start, end)``
    window and returns only the breakpoints that window needs — the one
    active at ``start`` plus every change strictly before ``end``.
    """

    def __init__(self, data: bytes) -> None:
        data = bytes(data)
        if len(data) < _PREAMBLE.size + _FOOTER.size:
            raise TraceFormatError(
                f"binary trace truncated: {len(data)} byte(s) is smaller "
                f"than the fixed framing"
            )
        magic, version, flags, header_len = _PREAMBLE.unpack_from(data, 0)
        if magic != MAGIC:
            raise TraceFormatError(
                f"not a binary trace: bad magic {magic!r} (expected {MAGIC!r})"
            )
        if version != BINARY_FORMAT_VERSION:
            raise TraceFormatError(
                f"unsupported binary trace version {version} "
                f"(expected {BINARY_FORMAT_VERSION})"
            )
        if flags != 0:
            raise TraceFormatError(f"unsupported binary trace flags {flags:#x}")
        body, footer = data[: -_FOOTER.size], data[-_FOOTER.size :]
        (crc,) = _FOOTER.unpack(footer)
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            raise TraceFormatError(
                "binary trace failed its CRC32 check (truncated or corrupted)"
            )
        header_end = _PREAMBLE.size + header_len
        if header_end > len(body):
            raise TraceFormatError(
                f"binary trace header length {header_len} overruns the document"
            )
        try:
            header = json.loads(body[_PREAMBLE.size : header_end].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise TraceFormatError(
                f"binary trace header is not valid JSON: {exc}"
            ) from exc
        if not isinstance(header, dict):
            raise TraceFormatError("binary trace header must be a JSON object")
        self._payload = body[header_end:]
        try:
            self.captured_at = float(header["captured_at"])
            self.battery_capacity_j = float(header.get("battery_capacity_j", 0.0))
            self.apps = {
                int(uid): label for uid, label in header.get("apps", {}).items()
            }
            self.system_uids = [int(uid) for uid in header.get("system_uids", [])]
            self.foreground = [
                (float(t), None if uid is None else int(uid))
                for t, uid in header.get("foreground", [])
            ]
            self.links = [
                LinkRecord(
                    kind=link["kind"],
                    driving_uid=int(link["driving_uid"]),
                    target=int(link["target"]),
                    begin_time=float(link["begin_time"]),
                    end_time=(
                        None if link["end_time"] is None else float(link["end_time"])
                    ),
                )
                for link in header.get("links", [])
            ]
            directory = [
                (int(ch["owner"]), str(ch["component"]), int(ch["count"]))
                for ch in header.get("channels", [])
            ]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise TraceFormatError(
                f"binary trace header is truncated or malformed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        check_foreground(self.foreground)
        self._directory: List[Tuple[int, str, int]] = []
        self._offsets: Dict[Tuple[int, str], Tuple[int, int]] = {}
        offset = 0
        for owner, component, count in directory:
            if count < 0:
                raise TraceFormatError(
                    f"channel ({owner}, {component!r}) has negative count {count}"
                )
            self._directory.append((owner, component, count))
            self._offsets[(owner, component)] = (offset, count)
            offset += 2 * count * _DOUBLE_SIZE
        if offset != len(self._payload):
            raise TraceFormatError(
                f"binary trace payload is {len(self._payload)} byte(s) but the "
                f"channel directory describes {offset}"
            )

    # ------------------------------------------------------------------
    # selective decode
    # ------------------------------------------------------------------
    def channels(self) -> List[Tuple[int, str, int]]:
        """The channel directory: ``(owner, component, count)`` triples."""
        return list(self._directory)

    def columns(self, owner: int, component: str) -> Tuple[List[float], List[float]]:
        """One channel's ``(times, powers)`` columns, fully decoded."""
        try:
            offset, count = self._offsets[(owner, component)]
        except KeyError as exc:
            raise TraceFormatError(
                f"no channel ({owner}, {component!r}) in this trace"
            ) from exc
        span = count * _DOUBLE_SIZE
        times = _unpack_doubles(self._payload[offset : offset + span])
        powers = _unpack_doubles(self._payload[offset + span : offset + 2 * span])
        return times, powers

    def breakpoints(
        self,
        owner: int,
        component: str,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[Tuple[float, float]]:
        """One channel's breakpoints, optionally windowed to ``[start, end)``.

        The windowed form keeps the breakpoint *active* at ``start`` (the
        last one at or before it) so piecewise-constant energy queries
        over the window see the correct initial draw.
        """
        times, powers = self.columns(owner, component)
        lo, hi = 0, len(times)
        if start is not None:
            lo = max(0, bisect.bisect_right(times, start) - 1)
        if end is not None:
            hi = bisect.bisect_left(times, end)
        return list(zip(times[lo:hi], powers[lo:hi]))

    def to_trace(self) -> DeviceTrace:
        """Decode the full document into a :class:`DeviceTrace`."""
        trace = DeviceTrace(
            captured_at=self.captured_at,
            battery_capacity_j=self.battery_capacity_j,
            apps=dict(self.apps),
            system_uids=list(self.system_uids),
            foreground=list(self.foreground),
            links=list(self.links),
        )
        for owner, component, _count in self._directory:
            times, powers = self.columns(owner, component)
            trace.channels.append(
                ChannelTrace(
                    owner=owner,
                    component=component,
                    breakpoints=list(zip(times, powers)),
                )
            )
        return trace


def decode_trace(data: bytes) -> DeviceTrace:
    """Parse a binary trace document into a :class:`DeviceTrace`."""
    return LazyBinaryTrace(data).to_trace()
