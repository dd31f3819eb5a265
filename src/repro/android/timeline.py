"""Foreground timeline.

Both PowerTutor (screen energy goes to the foreground app) and
E-Android's wakelock/interrupt trackers need to know which uid held the
foreground over any time window.  The ActivityManager appends to one
:class:`ForegroundTimeline`; consumers walk its :meth:`changes` with
:func:`repro.accounting.attribution.foreground_spans`.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Tuple


class ForegroundTimeline:
    """Append-only record of (time, foreground uid) changes."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._uids: List[Optional[int]] = []

    def record(self, time: float, uid: Optional[int]) -> None:
        """Append a foreground change at ``time``."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"timeline appends must be ordered: {time!r} after {self._times[-1]!r}"
            )
        if self._times and self._times[-1] == time:
            self._uids[-1] = uid
            return
        if self._uids and self._uids[-1] == uid:
            return
        self._times.append(time)
        self._uids.append(uid)

    def uid_at(self, time: float) -> Optional[int]:
        """The foreground uid at an instant (None before first record)."""
        index = bisect.bisect_right(self._times, time) - 1
        if index < 0:
            return None
        return self._uids[index]

    @property
    def current_uid(self) -> Optional[int]:
        """The most recently recorded foreground uid."""
        return self._uids[-1] if self._uids else None

    def changes(self) -> List[Tuple[float, Optional[int]]]:
        """The raw change list (copy)."""
        return list(zip(self._times, self._uids))
