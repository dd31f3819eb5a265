"""Per-session partial computation — the scatter step's inner loop.

Given one session's :class:`~repro.offline.analyzer.OfflineAnalyzer`
and an :class:`~repro.aggregate.request.AggregateRequest`, produce the
session's mergeable partial:

* ``owner`` / ``category`` group-bys render the requested backend's
  report through the unified Report API
  (:meth:`OfflineAnalyzer.describe`) and fold row energies onto group
  labels — so an ``eandroid`` aggregate sees collateral superimposed
  exactly as a per-session query would;
* ``mechanism`` reads the trace's attack-link log directly: each link
  overlapping the window charges its driven target's ground-truth
  energy (over the clipped interval) to the link's
  :class:`~repro.core.links.AttackKind` value.  This is the fleet form
  of the Fig. 5 per-lifecycle breakdown and is backend-independent by
  construction.

The computation is pure and deterministic for a given (trace, request)
— the property the store memoization and the byte-identity CI diffs
rely on.
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from ..power.meter import SCREEN_OWNER
from ..reports.request import ReportRequest
from ..telemetry.events import SCREEN_TARGET
from .partial import GroupedPartial, HistogramPartial
from .request import AggregateRequest, category_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..offline.analyzer import OfflineAnalyzer


def session_values(
    analyzer: "OfflineAnalyzer", request: AggregateRequest
) -> Dict[str, float]:
    """One session's group -> value map under ``request``."""
    if request.group_by == "mechanism":
        return _mechanism_values(analyzer, request)
    report_request = ReportRequest(
        backend=request.backend, start=request.start, end=request.end
    )
    view = analyzer.describe(report_request)
    values: Dict[str, float] = {}
    for entry in view.rows():
        group = (
            category_of(entry.label)
            if request.group_by == "category"
            else entry.label
        )
        values[group] = values.get(group, 0.0) + entry.energy_j
    return values


def _mechanism_values(
    analyzer: "OfflineAnalyzer", request: AggregateRequest
) -> Dict[str, float]:
    """Collateral joules per attack-link kind, from the link log."""
    trace = analyzer.trace
    start, end = request.window(trace.captured_at)
    values: Dict[str, float] = {}
    for link in trace.links:
        link_end = trace.captured_at if link.end_time is None else link.end_time
        seg_start = max(link.begin_time, start)
        seg_end = min(link_end, end)
        if seg_end <= seg_start:
            continue
        owner = SCREEN_OWNER if link.target == SCREEN_TARGET else link.target
        joules = analyzer.energy_j(owner=owner, start=seg_start, end=seg_end)
        if joules > 0:
            values[link.kind] = values.get(link.kind, 0.0) + joules
    return values


def session_partial(
    session: str, analyzer: "OfflineAnalyzer", request: AggregateRequest
):
    """One session's mergeable partial under ``request``."""
    values = session_values(analyzer, request)
    if request.op == "histogram":
        return HistogramPartial.for_session(
            session, values, bins=request.bins, bin_width=request.bin_width
        )
    return GroupedPartial.for_session(session, values)
