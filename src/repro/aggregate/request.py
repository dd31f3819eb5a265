"""Typed fleet-aggregation requests — one query shape, many sessions.

An :class:`AggregateRequest` is the cross-session counterpart of
:class:`~repro.reports.ReportRequest`: instead of "render backend X's
report for *one* session", it asks "fold backend X's view of *every
matching session* into one number per group".  It names:

* a *backend* — which attribution policy values the rows
  (:data:`~repro.reports.request.BACKENDS`);
* an *op* — how per-group values reduce (:data:`OPS`:
  ``sum`` / ``mean`` / ``topk`` / ``histogram``);
* a *group-by* — what a "group" is (:data:`GROUP_BYS`: per app
  ``owner``, per Play-Store-style ``category``, or per collateral
  attack ``mechanism``);
* a *session selector* — one or more ``fnmatch`` patterns over session
  names, with ``"*"`` (the default) meaning the whole fleet;
* the usual time *window* (``start`` / ``end``).

Requests are frozen, hashable, and round-trip through flat JSON — the
wire shape the serve daemon accepts (any JSONL line carrying an ``op``
field parses as an aggregate, everything else stays a per-session
query).  :meth:`AggregateRequest.cache_token` is the stable identity
that keys memoized per-session partials in the artifact store.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..accounting.attribution import (
    POWERTUTOR_SYSTEM_LABEL,
    SCREEN_LABEL,
    SYSTEM_LABEL,
    UNATTRIBUTED_SCREEN_LABEL,
)
from ..reports.request import BACKENDS, UnknownBackendError

#: Version tag stamped into every aggregate payload.
AGGREGATE_SCHEMA = "repro.aggregate/1"

#: The supported reduction operators.
OPS: Tuple[str, ...] = ("sum", "mean", "topk", "histogram")

#: The supported grouping dimensions.
#:
#: * ``owner`` — one group per report row label (apps keep their label,
#:   the Screen / Android OS aggregates keep theirs);
#: * ``category`` — rows folded onto Play-Store-style app categories
#:   (see :func:`category_of`), the Fig. 2 census axis;
#: * ``mechanism`` — collateral energy grouped by the attack-link kind
#:   that drove it (the Fig. 5 lifecycle machines), read from the link
#:   log and ground-truth channels.
GROUP_BYS: Tuple[str, ...] = ("owner", "category", "mechanism")

#: Labels the framework owns; they bypass the category hash.
_SPECIAL_CATEGORIES = {
    SCREEN_LABEL: "system_screen",
    UNATTRIBUTED_SCREEN_LABEL: "system_screen",
    SYSTEM_LABEL: "system_os",
    POWERTUTOR_SYSTEM_LABEL: "system_os",
}


class AggregateRequestError(ValueError):
    """An aggregate request document is malformed."""


def category_of(label: str) -> str:
    """The deterministic app category for a report-row label.

    Corpus apps named ``com.play.<category>.appNNNN`` (the Fig. 2
    synthetic fleet) carry their category in the package id; framework
    aggregates map to ``system_*`` buckets; every other label hashes
    stably (crc32) onto the paper's 28 category profiles — the
    simulation's stand-in for a Play-Store category lookup.
    """
    special = _SPECIAL_CATEGORIES.get(label)
    if special is not None:
        return special
    if label.startswith("com.play."):
        parts = label.split(".")
        if len(parts) >= 4 and parts[2]:
            return parts[2]
    from ..apps import CATEGORY_PROFILES

    index = zlib.crc32(label.encode("utf-8")) % len(CATEGORY_PROFILES)
    return CATEGORY_PROFILES[index][0]


@dataclass(frozen=True)
class AggregateRequest:
    """One fleet aggregation: backend + op + group-by + session selector.

    ``k`` applies to ``topk`` (how many groups to keep); ``bins`` and
    ``bin_width`` apply to ``histogram`` (fixed bins ``[i*w, (i+1)*w)``
    with the last bin absorbing overflow).  ``end=None`` means "to each
    session's natural end" (its ``captured_at``).
    """

    backend: str
    op: str = "sum"
    group_by: str = "owner"
    sessions: Tuple[str, ...] = ("*",)
    start: float = 0.0
    end: Optional[float] = None
    k: int = 10
    bins: int = 16
    bin_width: float = 1.0

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise UnknownBackendError(self.backend)
        if self.op not in OPS:
            raise AggregateRequestError(
                f"unknown aggregate op {self.op!r} "
                f"(expected one of: {', '.join(OPS)})"
            )
        if self.group_by not in GROUP_BYS:
            raise AggregateRequestError(
                f"unknown group-by {self.group_by!r} "
                f"(expected one of: {', '.join(GROUP_BYS)})"
            )
        patterns = tuple(str(p) for p in self.sessions)
        if not patterns or any(not p for p in patterns):
            raise AggregateRequestError(
                "session selector needs at least one non-empty pattern"
            )
        # Selector identity is a *set* of patterns: order and duplicates
        # must not change the cache token.
        object.__setattr__(self, "sessions", tuple(sorted(set(patterns))))
        if self.start < 0.0:
            raise AggregateRequestError(
                f"window start must be >= 0, got {self.start!r}"
            )
        if self.end is not None and self.end < self.start:
            raise AggregateRequestError(
                f"window end {self.end!r} precedes start {self.start!r}"
            )
        if self.op == "topk" and self.k < 1:
            raise AggregateRequestError(f"topk needs k >= 1, got {self.k!r}")
        if self.op == "histogram":
            if self.bins < 1:
                raise AggregateRequestError(
                    f"histogram needs bins >= 1, got {self.bins!r}"
                )
            if self.bin_width <= 0.0:
                raise AggregateRequestError(
                    f"histogram needs bin_width > 0, got {self.bin_width!r}"
                )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def key(self) -> Tuple[Any, ...]:
        """Hashable identity (everything that changes the answer)."""
        return (
            self.backend,
            self.op,
            self.group_by,
            self.sessions,
            self.start,
            self.end,
            self.k if self.op == "topk" else None,
            (self.bins, self.bin_width) if self.op == "histogram" else None,
        )

    def partial_key(self) -> Tuple[Any, ...]:
        """The identity of one session's *partial* under this request.

        Narrower than :meth:`key`: the session selector and ``k`` do
        not change what a single session contributes, so partials are
        shared across requests that differ only in those.
        """
        return (
            self.backend,
            self.op if self.op == "histogram" else "grouped",
            self.group_by,
            self.start,
            self.end,
            (self.bins, self.bin_width) if self.op == "histogram" else None,
        )

    def cache_token(self) -> str:
        """Stable hex token for store refs (hash of :meth:`partial_key`)."""
        canonical = json.dumps(self.partial_key(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def matches(self, session: str) -> bool:
        """Whether a session name is selected by this request."""
        return any(fnmatchcase(session, pattern) for pattern in self.sessions)

    def select(self, names: Iterable[str]) -> List[str]:
        """The sorted subset of ``names`` this request selects."""
        return sorted(name for name in names if self.matches(name))

    def window(self, end_default: float) -> Tuple[float, float]:
        """The concrete (start, end) given one session's natural end."""
        return (self.start, end_default if self.end is None else self.end)

    # ------------------------------------------------------------------
    # wire form
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready form (one JSONL line)."""
        data: Dict[str, Any] = {
            "backend": self.backend,
            "op": self.op,
            "group_by": self.group_by,
            "sessions": list(self.sessions),
            "start": self.start,
            "end": self.end,
        }
        if self.op == "topk":
            data["k"] = self.k
        if self.op == "histogram":
            data["bins"] = self.bins
            data["bin_width"] = self.bin_width
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AggregateRequest":
        """Parse the :meth:`to_dict` shape (validating as it builds)."""
        if "backend" not in data:
            raise AggregateRequestError(
                "aggregate is missing required field 'backend'"
            )
        sessions = data.get("sessions", "*")
        if isinstance(sessions, str):
            sessions = (sessions,)
        try:
            return cls(
                backend=str(data["backend"]),
                op=str(data.get("op", "sum")),
                group_by=str(data.get("group_by", "owner")),
                sessions=tuple(str(p) for p in sessions),
                start=float(data.get("start", 0.0)),
                end=None if data.get("end") is None else float(data["end"]),
                k=int(data.get("k", 10)),
                bins=int(data.get("bins", 16)),
                bin_width=float(data.get("bin_width", 1.0)),
            )
        except (TypeError,) as exc:
            raise AggregateRequestError(f"malformed aggregate request: {exc}") from exc


def is_aggregate_document(data: Mapping[str, Any]) -> bool:
    """Whether a parsed JSONL line is an aggregate (vs per-session) query.

    The discriminator is the ``op`` field: per-session
    :class:`~repro.serve.protocol.QueryRequest` documents never carry
    one.
    """
    return isinstance(data, Mapping) and "op" in data
