"""Edge cases of one collateral map element's charge windows.

A (host, target) element's windows are the runs a
:class:`repro.core.links.LinkIndex` sweeps from the host's links to the
target, clipped to a report window.  That arithmetic underlies every
collateral joule E-Android reports (and the conformance harness's
independent recomputation), so the degenerate shapes — zero-length
links, links ending at their opening instant, clipping through an open
window — are pinned here.
"""

import pytest

from repro.core import AttackKind, LinkGraph, LinkIndex

HOST, TARGET = 10000, 10001


class Element:
    """The (HOST, TARGET) element, driven through a link log."""

    def __init__(self) -> None:
        self.graph = LinkGraph()

    def open(self, time: float):
        return self.graph.begin(AttackKind.SERVICE_BIND, HOST, TARGET, time)

    def close(self, link, time: float) -> None:
        self.graph.end(link, time)

    def index(self) -> LinkIndex:
        return LinkIndex(self.graph.links)

    def clip(self, start: float, end: float):
        """The element's windows over ``[start, end]``."""
        return self.index().clip(HOST, start, end).get(TARGET, [])


@pytest.fixture()
def window():
    return Element()


class TestOpenClose:
    def test_close_at_open_time_records_nothing(self, window):
        window.close(window.open(5.0), 5.0)
        assert window.clip(0.0, 10.0) == []
        assert window.index().runs[HOST] == []

    def test_close_before_open_time_records_nothing(self, window):
        window.close(window.open(5.0), 4.0)
        assert window.clip(0.0, 10.0) == []

    def test_reopen_while_open_is_noop(self, window):
        # a second live link to the same target opens no second window
        window.open(1.0)
        window.open(9.0)
        assert window.clip(0.0, 20.0) == [(1.0, 20.0)]

    def test_close_when_never_opened_is_noop(self, window):
        other = window.graph.begin(AttackKind.ACTIVITY, HOST, 42, 1.0)
        window.close(other, 3.0)
        assert window.clip(0.0, 10.0) == []

    def test_normal_cycle(self, window):
        window.close(window.open(1.0), 4.0)
        window.close(window.open(6.0), 9.0)
        assert window.clip(0.0, 20.0) == [(1.0, 4.0), (6.0, 9.0)]


class TestIntervals:
    def test_open_window_truncated_at_until(self, window):
        window.open(2.0)
        assert window.clip(0.0, 5.0) == [(2.0, 5.0)]

    def test_until_at_open_instant_excludes_open_window(self, window):
        window.open(2.0)
        assert window.clip(0.0, 2.0) == []

    def test_until_before_open_instant_excludes_open_window(self, window):
        window.open(8.0)
        assert window.clip(0.0, 3.0) == []

    def test_until_inside_open_window(self, window):
        window.close(window.open(1.0), 4.0)
        window.open(6.0)
        spans = window.clip(0.0, 7.5)
        assert spans == [(1.0, 4.0), (6.0, 7.5)]
        assert sum(b - a for a, b in spans) == pytest.approx(4.5)

    def test_closed_windows_past_until_are_not_truncated(self, window):
        # The index keeps each run whole; only a clip truncates it.
        window.close(window.open(1.0), 4.0)
        assert window.index().runs[HOST] == [[1.0, 4.0, TARGET]]
        assert window.clip(0.0, 2.0) == [(1.0, 2.0)]


class TestClippedIntervals:
    def test_clip_spanning_open_window(self, window):
        window.close(window.open(1.0), 4.0)
        window.open(6.0)
        assert window.clip(2.0, 8.0) == [(2.0, 4.0), (6.0, 8.0)]

    def test_clip_to_empty_range(self, window):
        window.close(window.open(1.0), 4.0)
        assert window.clip(4.0, 4.0) == []
        assert window.clip(9.0, 12.0) == []

    def test_clip_excludes_zero_length_overlap(self, window):
        window.close(window.open(1.0), 4.0)
        # [4, 8) touches the window only at the boundary point.
        assert window.clip(4.0, 8.0) == []

    def test_clip_interior(self, window):
        window.close(window.open(0.0), 10.0)
        assert window.clip(2.5, 7.5) == [(2.5, 7.5)]

    def test_total_duration_matches_clip_over_full_range(self, window):
        links = [window.open(1.0)]
        window.close(links[0], 4.0)
        links.append(window.open(6.0))
        until = 9.0
        clipped = window.clip(0.0, until)
        assert sum(b - a for a, b in clipped) == pytest.approx(
            sum(link.duration(until) for link in links)
        )
