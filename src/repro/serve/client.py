"""ServiceClient — the ergonomic front door to a ProfilingService.

The service itself speaks only the wire protocol (QueryRequest in,
QueryResponse out).  The client adds what callers actually want:

* keyword-style queries (``client.query("phone-a", "eandroid")``);
* the ``"*"`` session wildcard, expanded over every ingested session;
* batch submission under the service's admission control, with
  automatic resubmission of shed responses (bounded retries);
* typed errors instead of status-code checking.

The client talks to an in-process service object; the daemon mode of
``python -m repro serve`` wraps the same protocol over stdin/stdout for
out-of-process callers.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

from ..reports.request import ReportRequest
from .protocol import (
    ALL_SESSIONS,
    STATUS_SHED,
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


def still_shed(response: QueryResponse, resubmits: int) -> QueryResponse:
    """A response still shed after ``resubmits`` tries, naming the query.

    A bare "shed" tells the caller nothing about *what* to retry.
    """
    return replace(
        response,
        error=(
            f"query {response.id} on session {response.session!r} "
            f"still shed after {resubmits} resubmit(s): "
            f"{response.error or 'queue full'}"
        ),
    )


class ServiceClient:
    """Keyword-friendly querying over one in-process service."""

    def __init__(self, service: ProfilingService, max_resubmits: int = 3) -> None:
        self.service = service
        self.max_resubmits = max_resubmits
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

    def submit_all(
        self, queries: Sequence[QueryRequest], burst: Optional[int] = None
    ) -> List[QueryResponse]:
        """Serve a batch, resubmitting shed queries a bounded number of
        times; raises :class:`QueryFailedError` on the first hard error.

        Returns one response per (expanded) query, in query order.
        """
        arrival = self.expand(queries)
        answered: List[Optional[QueryResponse]] = [None] * len(arrival)
        pending = list(range(len(arrival)))
        for _ in range(self.max_resubmits + 1):
            if not pending:
                break
            responses = self.service.serve_batch(
                [arrival[i] for i in pending], burst=burst
            )
            shed: List[int] = []
            # serve_batch answers by position, so ids may repeat freely.
            for index, response in zip(pending, responses):
                if response.status == STATUS_SHED:
                    shed.append(index)  # kept below if retries run out
                elif not response.ok:
                    raise QueryFailedError(response)
                answered[index] = response
            pending = shed
        for index in pending:
            answered[index] = still_shed(answered[index], self.max_resubmits)
        return answered
