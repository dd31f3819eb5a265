"""ServiceClient — the ergonomic front door to a ProfilingService.

The service itself speaks only the wire protocol (QueryRequest in,
QueryResponse out).  The client adds what callers actually want:

* keyword-style queries (``client.query("phone-a", "eandroid")``);
* the ``"*"`` session wildcard, expanded over every ingested session;
* batch submission, one query at a time, answered in query order;
* typed errors instead of status-code checking.

The client talks to an in-process service object, which answers each
query on demand and so never sheds: only a front-end whose arrivals
overlap (the TCP server, see :class:`~repro.serve.net.AsyncServiceClient`)
sheds and resubmits.  The daemon mode of ``python -m repro serve`` wraps
the same protocol over stdin/stdout for out-of-process callers.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

from ..reports.request import ReportRequest
from .protocol import (
    ALL_SESSIONS,
    QueryRequest,
    QueryResponse,
    expand_sessions,
)
from .service import ProfilingService


class QueryFailedError(RuntimeError):
    """A query came back with ``status: error``."""

    def __init__(self, response: QueryResponse) -> None:
        super().__init__(
            f"query {response.id} on session {response.session!r} failed: "
            f"{response.error}"
        )
        self.response = response


def build_query(
    qid: int,
    session: str,
    backend: str,
    start: float = 0.0,
    end: Optional[float] = None,
    owners: Optional[Sequence[int]] = None,
) -> QueryRequest:
    """One keyword-style query as a :class:`QueryRequest`."""
    report = ReportRequest(
        backend=backend,
        start=start,
        end=end,
        owners=None if owners is None else tuple(owners),
    )
    return QueryRequest(id=qid, session=session, report=report)


class ServiceClient:
    """Keyword-friendly querying over one in-process service."""

    def __init__(self, service: ProfilingService) -> None:
        self.service = service
        self._next_id = 1

    # ------------------------------------------------------------------
    # building queries
    # ------------------------------------------------------------------
    def _take_id(self) -> int:
        qid = self._next_id
        self._next_id += 1
        return qid

    def build(
        self,
        session: str,
        backend: str,
        start: float = 0.0,
        end: Optional[float] = None,
        owners: Optional[Sequence[int]] = None,
    ) -> List[QueryRequest]:
        """One query — or one per session for the ``"*"`` wildcard."""
        query = build_query(0, session, backend, start, end, owners)
        sessions = (
            self.service.session_names() if session == ALL_SESSIONS else [session]
        )
        return [replace(query, id=self._take_id(), session=name) for name in sessions]

    def expand(self, queries: Sequence[QueryRequest]) -> List[QueryRequest]:
        """Expand ``"*"`` sessions in an already-built query list.

        Each expanded query keeps its line's ``id``
        (:func:`~repro.serve.protocol.expand_sessions`).
        """
        return [
            expanded
            for query in queries
            for expanded in expand_sessions(query, self.service.sessions)
        ]

    # ------------------------------------------------------------------
    # issuing queries
    # ------------------------------------------------------------------
    def query(
        self,
        session: str,
        backend: str,
        start: float = 0.0,
        end: Optional[float] = None,
        owners: Optional[Sequence[int]] = None,
    ) -> Dict[str, Any]:
        """One report payload (the ReportView wire form); raises on error.

        With ``session="*"`` returns a ``{session: payload}`` mapping
        instead.
        """
        queries = self.build(session, backend, start, end, owners)
        responses = self.submit_all(queries)
        if session == ALL_SESSIONS:
            return {r.session: r.report for r in responses}
        return responses[0].report

    def total_j(
        self,
        session: str,
        backend: str,
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> float:
        """Convenience: just the report's total joules."""
        return float(self.query(session, backend, start, end)["total_j"])

    def submit_all(self, queries: Sequence[QueryRequest]) -> List[QueryResponse]:
        """Answer each (expanded) query in order; raises
        :class:`QueryFailedError` on the first error.

        ``responses[i]`` answers the ``i``-th expanded query, so ids may
        repeat freely.
        """
        responses = []
        for query in self.expand(queries):
            response = self.service.submit(query)
            if not response.ok:
                raise QueryFailedError(response)
            responses.append(response)
        return responses
