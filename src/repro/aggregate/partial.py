"""Mergeable per-session summaries — the scatter-gather currency.

Each selected session contributes one *partial*; the gather step folds
partials into the final ``repro.aggregate/1`` payload.  The contract
that makes the gather safe to reorder, memoize, and retry:

* ``merge(a, b)`` is **pure** (returns a new partial, inputs untouched),
  **commutative**, and **associative** — the property suite proves that
  shuffled partial orders produce *byte-identical* payloads;
* merging rejects overlapping sessions (:class:`PartialMergeError`), so
  a retried dispatch can never double-count a session silently;
* every partial round-trips through flat JSON
  (:data:`PARTIAL_SCHEMA`), the artifact-store memo format.

Float associativity is handled structurally rather than numerically:
:class:`GroupedPartial` keeps *per-session* values (group -> session ->
joules) and only folds them into totals at :meth:`finalize` time, in
canonical sorted-session order.  Merge itself is a disjoint dict union
— exactly associative — so the reduction order of the gather tree can
never leak into the payload bytes.  :class:`HistogramPartial` counts
are integers, where addition is associative already.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .request import AggregateRequest

#: Version tag of the partial wire/memo format.
PARTIAL_SCHEMA = "repro.aggregate-partial/1"


class PartialFormatError(ValueError):
    """A partial document is malformed or wrongly versioned."""


class PartialMergeError(ValueError):
    """Two partials could not merge (shape mismatch or session overlap)."""


@dataclass(frozen=True)
class GroupedPartial:
    """Per-session group values; serves the sum / mean / topk ops.

    ``groups`` maps group label -> session name -> value.  ``sessions``
    is the set of sessions this partial covers — including sessions
    that contributed *no* groups (an empty report still counts toward
    ``mean`` denominators being well-defined and toward coverage
    accounting).
    """

    groups: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    sessions: frozenset = frozenset()

    kind = "grouped"

    @classmethod
    def for_session(
        cls, session: str, values: Mapping[str, float]
    ) -> "GroupedPartial":
        """One session's contribution: its per-group values."""
        return cls(
            groups={group: {session: float(value)} for group, value in values.items()},
            sessions=frozenset([session]),
        )

    def rebind(self, session: str) -> "GroupedPartial":
        """This one-session partial, charged to ``session`` instead.

        A session's values depend only on its content, so the memoized
        partial of one session answers for another with equal content.
        """
        (old,) = _single_session(self)
        return GroupedPartial(
            groups={
                group: {session: per_session[old]}
                for group, per_session in self.groups.items()
            },
            sessions=frozenset([session]),
        )

    def merge(self, other: "GroupedPartial") -> "GroupedPartial":
        """Disjoint union (pure; associative and commutative)."""
        if not isinstance(other, GroupedPartial):
            raise PartialMergeError(
                f"cannot merge grouped partial with {type(other).__name__}"
            )
        overlap = self.sessions & other.sessions
        if overlap:
            raise PartialMergeError(
                f"session(s) present on both sides: {', '.join(sorted(overlap))}"
            )
        merged: Dict[str, Dict[str, float]] = {
            group: dict(per_session) for group, per_session in self.groups.items()
        }
        for group, per_session in other.groups.items():
            merged.setdefault(group, {}).update(per_session)
        return GroupedPartial(
            groups=merged, sessions=self.sessions | other.sessions
        )

    # ------------------------------------------------------------------
    # finalisation
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, float]:
        """group -> sum over sessions, folded in canonical order."""
        return {
            group: sum(
                per_session[session] for session in sorted(per_session)
            )
            for group, per_session in sorted(self.groups.items())
        }

    def finalize(self, request: "AggregateRequest") -> Dict[str, Any]:
        """The op-specific ``result`` section of the payload."""
        totals = self.totals()
        if request.op == "sum":
            return {"groups": totals, "group_count": len(totals)}
        if request.op == "mean":
            return {
                "groups": {
                    group: {
                        "mean": total / len(self.groups[group]),
                        "count": len(self.groups[group]),
                        "total": total,
                    }
                    for group, total in totals.items()
                },
                "group_count": len(totals),
            }
        if request.op == "topk":
            # Selection happens here, once, over exact totals — a
            # bounded heap at merge time would make the answer depend
            # on merge order.  Ties break on the group label so the
            # payload stays deterministic.
            top = heapq.nsmallest(
                request.k, totals.items(), key=lambda item: (-item[1], item[0])
            )
            return {
                "top": [{"group": group, "total": total} for group, total in top],
                "k": request.k,
                "group_count": len(totals),
            }
        raise PartialFormatError(
            f"grouped partial cannot finalize op {request.op!r}"
        )

    # ------------------------------------------------------------------
    # wire form
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the store memo), canonically sorted."""
        return {
            "schema": PARTIAL_SCHEMA,
            "kind": self.kind,
            "sessions": sorted(self.sessions),
            "groups": {
                group: {
                    session: per_session[session]
                    for session in sorted(per_session)
                }
                for group, per_session in sorted(self.groups.items())
            },
        }


@dataclass(frozen=True)
class HistogramPartial:
    """Fixed-bin counts of per-(session, group) values.

    Bin ``i`` counts values in ``[i*bin_width, (i+1)*bin_width)``; the
    last bin absorbs everything beyond the range, so the vector length
    is fixed and merge is plain element-wise integer addition.
    """

    counts: tuple = ()
    bin_width: float = 1.0
    sessions: frozenset = frozenset()
    samples: int = 0

    kind = "histogram"

    @classmethod
    def for_session(
        cls,
        session: str,
        values: Mapping[str, float],
        bins: int,
        bin_width: float,
    ) -> "HistogramPartial":
        """One session's contribution: its group values, binned."""
        counts = [0] * bins
        for value in values.values():
            index = int(value / bin_width) if value > 0 else 0
            counts[min(index, bins - 1)] += 1
        return cls(
            counts=tuple(counts),
            bin_width=float(bin_width),
            sessions=frozenset([session]),
            samples=len(values),
        )

    def rebind(self, session: str) -> "HistogramPartial":
        """This one-session partial, charged to ``session`` instead."""
        _single_session(self)
        return replace(self, sessions=frozenset([session]))

    def merge(self, other: "HistogramPartial") -> "HistogramPartial":
        """Element-wise addition (pure; associative and commutative)."""
        if not isinstance(other, HistogramPartial):
            raise PartialMergeError(
                f"cannot merge histogram partial with {type(other).__name__}"
            )
        if not self.sessions:
            return other
        if not other.sessions:
            return self
        if len(self.counts) != len(other.counts) or self.bin_width != other.bin_width:
            raise PartialMergeError(
                f"histogram shapes differ: {len(self.counts)}x{self.bin_width} "
                f"vs {len(other.counts)}x{other.bin_width}"
            )
        overlap = self.sessions & other.sessions
        if overlap:
            raise PartialMergeError(
                f"session(s) present on both sides: {', '.join(sorted(overlap))}"
            )
        return HistogramPartial(
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            bin_width=self.bin_width,
            sessions=self.sessions | other.sessions,
            samples=self.samples + other.samples,
        )

    def finalize(self, request: "AggregateRequest") -> Dict[str, Any]:
        """The ``result`` section: the counts plus their bin geometry."""
        counts = list(self.counts) if self.counts else [0] * request.bins
        return {
            "bins": counts,
            "bin_width": request.bin_width,
            "samples": self.samples,
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the store memo)."""
        return {
            "schema": PARTIAL_SCHEMA,
            "kind": self.kind,
            "sessions": sorted(self.sessions),
            "counts": list(self.counts),
            "bin_width": self.bin_width,
            "samples": self.samples,
        }


def _single_session(partial) -> frozenset:
    if len(partial.sessions) != 1:
        raise PartialMergeError(
            f"only a one-session partial can be rebound, not one of "
            f"{len(partial.sessions)} session(s)"
        )
    return partial.sessions


def empty_partial(request: "AggregateRequest"):
    """The merge identity for a request's op."""
    if request.op == "histogram":
        return HistogramPartial(
            counts=tuple([0] * request.bins), bin_width=request.bin_width
        )
    return GroupedPartial()


def partial_from_dict(data: Mapping[str, Any]):
    """Rebuild a partial from its :meth:`to_dict` form (validating)."""
    if not isinstance(data, Mapping):
        raise PartialFormatError(
            f"partial must be a JSON object, got {type(data).__name__}"
        )
    if data.get("schema") != PARTIAL_SCHEMA:
        raise PartialFormatError(
            f"unknown partial schema {data.get('schema')!r} "
            f"(this build reads {PARTIAL_SCHEMA})"
        )
    kind = data.get("kind")
    try:
        if kind == "grouped":
            return GroupedPartial(
                groups={
                    str(group): {
                        str(session): float(value)
                        for session, value in per_session.items()
                    }
                    for group, per_session in dict(data["groups"]).items()
                },
                sessions=frozenset(str(s) for s in data["sessions"]),
            )
        if kind == "histogram":
            return HistogramPartial(
                counts=tuple(int(c) for c in data["counts"]),
                bin_width=float(data["bin_width"]),
                sessions=frozenset(str(s) for s in data["sessions"]),
                samples=int(data["samples"]),
            )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise PartialFormatError(f"malformed {kind!r} partial: {exc}") from exc
    raise PartialFormatError(f"unknown partial kind {kind!r}")


def merge_partials(partials: List[Any], request: "AggregateRequest"):
    """Fold a list of partials left-to-right from the identity.

    The result is independent of the list's order (the property the
    test suite pins); callers that need per-partial failure isolation
    merge incrementally instead.
    """
    merged = empty_partial(request)
    for partial in partials:
        merged = merged.merge(partial)
    return merged
