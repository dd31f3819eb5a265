"""The query service's request/response wire protocol.

One :class:`QueryRequest` names a *session* (an ingested trace) plus a
:class:`~repro.reports.ReportRequest`; one :class:`QueryResponse`
carries the answered :class:`~repro.reports.ReportView` wire form (its
``to_dict()``), or an explicit refusal.  Both round-trip through flat
JSON objects, one per JSONL line — which is also the daemon's stdin /
stdout framing.

Response statuses:

* ``ok``    — the report payload is attached;
* ``shed``  — admission control refused the query (queue full); the
  caller should back off and resubmit;
* ``error`` — the query itself was bad (unknown session/backend,
  malformed window); resubmitting the same query cannot succeed.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from math import isfinite
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..reports.request import ReportRequest

STATUS_OK = "ok"
STATUS_SHED = "shed"
STATUS_ERROR = "error"

#: Session name that expands to *every* ingested session (see
#: :func:`expand_sessions`).
ALL_SESSIONS = "*"

#: The largest request line (newline excluded) any serving front-end
#: accepts: a longer line is the same typed ``error`` on every transport
#: (see :mod:`repro.serve.core`).
MAX_LINE_BYTES = 1 << 20


class ProtocolError(ValueError):
    """A wire document could not be parsed as a query."""


class CachedReport:
    """One answered report payload plus a slot for its JSON text.

    The service's result LRU holds one per key, and every response it
    answers from that key points at the same instance.  The slot is
    filled by the first transport that encodes such a response (see
    :func:`encode_response_line`), never by the service itself, so an
    in-process caller that never encodes pays nothing for it.
    """

    __slots__ = ("payload", "text")

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.payload = payload
        self.text: Optional[str] = None


@dataclass(frozen=True)
class QueryRequest:
    """One query: which session, which report.

    ``id`` is caller-chosen and echoed back verbatim so responses can be
    matched to request lines.
    """

    id: int
    session: str
    report: ReportRequest

    def key(self):
        """The result-cache identity: (session, backend, window, owners)."""
        return (self.session,) + self.report.key()

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready form (one JSONL line)."""
        data: Dict[str, Any] = {"id": self.id, "session": self.session}
        data.update(self.report.to_dict())
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], default_id: int = 0) -> "QueryRequest":
        """Parse the :meth:`to_dict` shape (validating as it builds)."""
        try:
            session = str(data["session"])
        except KeyError as exc:
            raise ProtocolError("query is missing required field 'session'") from exc
        if "backend" not in data:
            raise ProtocolError("query is missing required field 'backend'")
        report = ReportRequest.from_dict(data)
        return cls(id=int(data.get("id", default_id)), session=session, report=report)


def expand_sessions(
    query: QueryRequest, sessions: Iterable[str]
) -> List[QueryRequest]:
    """``query`` once per session for the ``"*"`` wildcard, else alone.

    Each expanded query keeps the line's own ``id``, on every transport:
    one request line is one id, however many sessions it fans out to.
    A wildcard over no sessions stays as it is, so the service answers
    it with a typed error instead of nothing.
    """
    if query.session != ALL_SESSIONS:
        return [query]
    return [replace(query, session=name) for name in sessions] or [query]


@dataclass
class QueryResponse:
    """One answered (or refused) query."""

    id: int
    session: str
    status: str
    report: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    cached: bool = False
    latency_us: float = 0.0
    extras: Dict[str, Any] = field(default_factory=dict)
    #: The LRU entry ``report`` came from (its encoded text is reused).
    cached_report: Optional[CachedReport] = field(
        default=None, repr=False, compare=False
    )

    @property
    def ok(self) -> bool:
        """Whether the query was answered."""
        return self.status == STATUS_OK

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready form (one JSONL line)."""
        data: Dict[str, Any] = {
            "id": self.id,
            "session": self.session,
            "status": self.status,
            "cached": self.cached,
            "latency_us": self.latency_us,
        }
        if self.report is not None:
            data["report"] = self.report
        if self.error is not None:
            data["error"] = self.error
        data.update(self.extras)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueryResponse":
        """Rebuild from :meth:`to_dict` data."""
        known = {"id", "session", "status", "cached", "latency_us", "report", "error"}
        return cls(
            id=int(data.get("id", 0)),
            session=str(data.get("session", "")),
            status=str(data["status"]),
            report=data.get("report"),
            error=data.get("error"),
            cached=bool(data.get("cached", False)),
            latency_us=float(data.get("latency_us", 0.0)),
            extras={k: v for k, v in data.items() if k not in known},
        )


#: An LRU response's line, report text last (see encode_response_line).
_HEAD = (
    '{"id": %d, "session": %s, "status": %s, "cached": %s, '
    '"latency_us": %r, "report": %s}\n'
)


def encode_response_line(response: QueryResponse) -> str:
    """One response as a wire line: ``json.dumps(to_dict()) + "\\n"``.

    Byte for byte the same text, but a report that came from the result
    LRU is encoded once per cache entry: its JSON text is kept in the
    entry's slot, and the response's plain head is formatted around it
    (an entry's response never has an ``error`` or ``extras``, and the
    type checks keep ``%d``/``%r`` to what ``json.dumps`` would write).
    """
    entry = response.cached_report
    latency = response.latency_us
    if (
        entry is None
        or entry.payload is not response.report
        or response.error is not None
        or response.extras
        or type(response.id) is not int
        or type(response.cached) is not bool
        or type(latency) is not float
        or not isfinite(latency)
    ):
        return json.dumps(response.to_dict()) + "\n"
    if entry.text is None:
        entry.text = json.dumps(entry.payload)
    return _HEAD % (
        response.id,
        json.dumps(response.session),
        json.dumps(response.status),
        "true" if response.cached else "false",
        latency,
        entry.text,
    )


def responses_to_jsonl(responses: Iterable[QueryResponse]) -> str:
    """Serialise responses as JSONL text (one response per line)."""
    return "".join(encode_response_line(r) for r in responses)


@dataclass(frozen=True)
class DecodedLine:
    """What one wire line decoded to — a query, an aggregate, or a typed
    refusal.  Exactly one of ``query`` / ``aggregate`` / ``error`` is
    set, matching ``kind``.
    """

    kind: str  # "query" | "aggregate" | "error"
    id: int
    query: Optional[QueryRequest] = None
    aggregate: Optional[Any] = None
    error: Optional[str] = None


#: A line's leading ``{"id": <JSON integer>, `` (no leading zeros, at
#: most 18 digits); the hot-line table keys on the text after it.
_ID_PREFIX = re.compile(r'\{"id": (-?(?:0|[1-9][0-9]{0,17})), ')

#: How many distinct hot lines the table holds before it starts over.
HOT_LINES = 1024

#: Line text after its id prefix -> (session, report) it decoded to.
#: Shared by every caller in the process: an entry holds the full
#: decoder's answer for its text, so what one caller records changes
#: only the cost of another's decode, never its result.
_hot_lines: Dict[str, Tuple[str, ReportRequest]] = {}


def decode_request_line(text: str, default_id: int = 0) -> DecodedLine:
    """Decode one JSONL wire line; **never raises**.

    The request core (:mod:`repro.serve.core`) parses every line here:
    any garbage, truncated, non-object, or otherwise malformed line
    comes back as a typed ``kind="error"`` result the caller turns into
    a ``status: error`` response — a broken line must never take down a
    connection handler, and must never be silently dropped.  A line
    carrying an ``op`` field is routed to the fleet-aggregation request
    parser, everything else to :meth:`QueryRequest.from_dict`.

    Clients repeat the same query under new ids, so a query line that
    starts ``{"id": <integer>, `` is decoded once: the text after that
    prefix keys a bounded table of what it decoded to.  Only a remainder
    with no ``"id"`` text (no second id key) and no backslash (no escaped
    one) is recorded, so the id always comes from the prefix and the
    table's answer is the full decoder's.
    """
    match = _ID_PREFIX.match(text)
    if match is None:
        return _decode_document(text, default_id)
    rest = text[match.end() :]
    hot = _hot_lines.get(rest)
    if hot is not None:
        qid = int(match.group(1))
        return DecodedLine(
            kind="query", id=qid, query=QueryRequest(qid, hot[0], hot[1])
        )
    decoded = _decode_document(text, default_id)
    if decoded.kind == "query" and '"id"' not in rest and "\\" not in rest:
        if len(_hot_lines) >= HOT_LINES:
            _hot_lines.clear()
        _hot_lines[rest] = (decoded.query.session, decoded.query.report)
    return decoded


def _decode_document(text: str, default_id: int) -> DecodedLine:
    """The full decoder: ``json.loads`` and validation, never raising."""
    from ..aggregate import AggregateRequestError, is_aggregate_document

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        return DecodedLine(kind="error", id=default_id, error=f"not valid JSON: {exc}")
    except (RecursionError, ValueError) as exc:  # pathological nesting etc.
        return DecodedLine(
            kind="error", id=default_id, error=f"unparseable line: {exc}"
        )
    if not isinstance(data, dict):
        return DecodedLine(
            kind="error",
            id=default_id,
            error=f"query must be a JSON object, got {type(data).__name__}",
        )
    try:
        qid = int(data.get("id", default_id))
    except (TypeError, ValueError, OverflowError):
        return DecodedLine(
            kind="error",
            id=default_id,
            error=f"query id must be an integer, got {data.get('id')!r}",
        )
    try:
        if is_aggregate_document(data):
            from ..aggregate import AggregateRequest

            return DecodedLine(
                kind="aggregate", id=qid, aggregate=AggregateRequest.from_dict(data)
            )
        return DecodedLine(
            kind="query",
            id=qid,
            query=QueryRequest.from_dict(data, default_id=default_id),
        )
    except (
        ProtocolError,
        AggregateRequestError,
        KeyError,
        TypeError,
        ValueError,
        OverflowError,
    ) as exc:
        return DecodedLine(kind="error", id=qid, error=str(exc))
    except Exception as exc:  # the never-raise contract is load-bearing:
        # an exception escaping here would kill a connection handler.
        return DecodedLine(
            kind="error", id=qid, error=f"{type(exc).__name__}: {exc}"
        )
