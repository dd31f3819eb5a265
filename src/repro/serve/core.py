"""The request core: one JSONL request line to its replies, on any transport.

The stdin daemon, the TCP server and the ``--queries`` batch path keep
only their own framing and policy; every rule about what a line means
lives here, so the same bytes get the same answers on every transport:

* a line longer than ``max_line_bytes`` (newline excluded) is a typed
  ``error``, checked before anything else — an over-long ``#`` comment
  included;
* the rest decodes as UTF-8 with ``errors="replace"``; blank and ``#``
  lines are then skipped, and every other line takes the next default
  id of its stream;
* :func:`~repro.serve.protocol.decode_request_line` parses it, and
  :func:`work_items` expands a ``"*"`` query over the sessions;
* :func:`answer` runs one work item and never raises.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from .protocol import (
    MAX_LINE_BYTES,
    STATUS_ERROR,
    DecodedLine,
    QueryRequest,
    QueryResponse,
    decode_request_line,
    encode_response_line,
    expand_sessions,
)

#: The session an aggregate's error replies name.
AGGREGATE_SESSION = "(aggregate)"

#: One unit of service work: a (possibly expanded) query, or a decoded
#: aggregate or error line.
WorkItem = Union[QueryRequest, DecodedLine]

#: What :func:`answer` returns: a query response, or a JSON-ready dict.
Reply = Union[QueryResponse, Dict[str, Any]]


class RequestStream:
    """One stream's line rules and default-id numbering."""

    __slots__ = ("max_line_bytes", "seq")

    def __init__(self, max_line_bytes: int = MAX_LINE_BYTES) -> None:
        self.max_line_bytes = int(max_line_bytes)
        self.seq = 0  # request lines so far (the default id of the last)

    def decode(self, raw: bytes) -> Optional[DecodedLine]:
        """One line (newline excluded), or None for a blank or ``#`` line."""
        if len(raw) > self.max_line_bytes:
            return self.oversized()
        text = raw.decode("utf-8", errors="replace").strip()
        if not text or text.startswith("#"):
            return None
        self.seq += 1
        return decode_request_line(text, default_id=self.seq)

    def oversized(self) -> DecodedLine:
        """The typed error for a line the framing found over-long."""
        self.seq += 1
        return DecodedLine(
            kind="error",
            id=self.seq,
            error=f"line exceeds the maximum line size ({self.max_line_bytes} bytes)",
        )


def work_items(decoded: DecodedLine, sessions: Iterable[str]) -> List[WorkItem]:
    """A query once per session for ``"*"``, else the decoded line alone."""
    if decoded.kind == "query":
        return expand_sessions(decoded.query, sessions)
    return [decoded]


def error_line(qid: int, error: str, session: Optional[str] = None) -> Dict[str, Any]:
    """The one shape of every typed error reply a transport builds."""
    reply: Dict[str, Any] = {"id": qid}
    if session is not None:
        reply["session"] = session
    reply["status"] = STATUS_ERROR
    reply["error"] = error
    return reply


def label(item: WorkItem) -> Tuple[int, str]:
    """The id and session an error reply about ``item`` names."""
    if isinstance(item, QueryRequest):
        return item.id, item.session
    return item.id, AGGREGATE_SESSION


def failure(item: WorkItem, exc: BaseException) -> Dict[str, Any]:
    """``exc``, raised while answering ``item``, as a typed error."""
    qid, session = label(item)
    return error_line(qid, f"{type(exc).__name__}: {exc}", session)


def answer(service, item: WorkItem) -> Reply:
    """Run one work item against ``service``; **never raises**."""
    try:
        if isinstance(item, QueryRequest):
            return service.submit(item)
        if item.kind == "error":
            return error_line(item.id, item.error)
        reply: Dict[str, Any] = {"id": item.id}
        reply.update(service.aggregate(item.aggregate).to_dict())
        return reply
    except Exception as exc:
        return failure(item, exc)


def reply_line(reply: Reply) -> str:
    """One reply as its wire line."""
    if isinstance(reply, QueryResponse):
        return encode_response_line(reply)
    return json.dumps(reply) + "\n"
