"""Tests for activity lifecycle, task stacks, and foreground tracking."""

import pytest

from repro.accounting.attribution import foreground_spans
from repro.android import (
    ActivityNotFoundError,
    ActivityState,
    BadStateError,
    LAUNCHER_PACKAGE,
    NotExportedError,
    explicit,
)

from helpers import booted_system, make_app


@pytest.fixture
def system():
    return booted_system(make_app("com.alpha"), make_app("com.beta"))


def front(system):
    return system.am.foreground_record()


class TestActivityStart:
    def test_launch_brings_to_foreground(self, system):
        record = system.launch_app("com.alpha")
        assert record.is_foreground
        assert system.foreground_package() == "com.alpha"
        assert record.instance.events == ["create", "start", "resume"]

    def test_launcher_stopped_when_covered(self, system):
        launcher_record = front(system)
        system.launch_app("com.alpha")
        assert launcher_record.state == ActivityState.STOPPED

    def test_transparent_cover_only_pauses(self, system):
        alpha = system.launch_app("com.alpha")
        uid = system.uid_of("com.beta")
        cover = system.am.start_activity(
            uid, explicit("com.beta", "TransparentActivity")
        )
        assert cover.is_foreground
        assert alpha.state == ActivityState.PAUSED
        assert "pause" in alpha.instance.events
        assert "stop" not in alpha.instance.events

    def test_opaque_cover_stops(self, system):
        alpha = system.launch_app("com.alpha")
        system.launch_app("com.beta")
        assert alpha.state == ActivityState.STOPPED
        assert alpha.instance.events[-2:] == ["pause", "stop"]

    def test_cross_app_start_records_caller(self, system):
        system.launch_app("com.alpha")
        uid_alpha = system.uid_of("com.alpha")
        record = system.am.start_activity(
            uid_alpha, explicit("com.beta", "PlainActivity")
        )
        assert record.launched_by_uid == uid_alpha
        assert record.uid == system.uid_of("com.beta")

    def test_non_exported_cross_app_denied(self, system):
        uid_beta = system.uid_of("com.beta")
        with pytest.raises(NotExportedError):
            system.am.start_activity(
                uid_beta, explicit("com.alpha", "PrivateActivity")
            )

    def test_process_spawned_on_first_start(self, system):
        app = system.package_manager.app_for_package("com.alpha")
        assert app.process is None
        system.launch_app("com.alpha")
        assert app.process is not None and app.process.alive

    def test_start_reuses_process(self, system):
        system.launch_app("com.alpha")
        app = system.package_manager.app_for_package("com.alpha")
        pid = app.process.pid
        uid = system.uid_of("com.alpha")
        system.am.start_activity(uid, explicit("com.alpha", "TransparentActivity"))
        assert app.process.pid == pid


class TestHomeAndBack:
    def test_home_stops_foreground_app(self, system):
        alpha = system.launch_app("com.alpha")
        system.press_home()
        assert system.foreground_package() == LAUNCHER_PACKAGE
        assert alpha.state == ActivityState.STOPPED

    def test_home_then_relaunch_restarts(self, system):
        alpha = system.launch_app("com.alpha")
        system.press_home()
        system.am.move_task_to_front(
            system.package_manager.system_uid, "com.alpha", user_initiated=True
        )
        assert alpha.state == ActivityState.RESUMED
        assert "restart" in alpha.instance.events

    def test_back_finishes_top_activity(self, system):
        alpha = system.launch_app("com.alpha")
        system.press_back()
        assert alpha.state == ActivityState.DESTROYED
        assert alpha.instance.events[-1] == "destroy"
        assert system.foreground_package() == LAUNCHER_PACKAGE

    def test_back_uncovers_paused_activity(self, system):
        alpha = system.launch_app("com.alpha")
        uid = system.uid_of("com.beta")
        system.am.start_activity(uid, explicit("com.beta", "TransparentActivity"))
        system.press_back()
        assert alpha.is_foreground

    def test_move_unknown_task_rejected(self, system):
        with pytest.raises(ActivityNotFoundError):
            system.am.move_task_to_front(1000, "com.never.started")


class TestFinish:
    def test_finish_from_activity_code(self, system):
        record = system.launch_app("com.alpha")
        record.instance.finish()
        assert record.state == ActivityState.DESTROYED

    def test_double_finish_rejected(self, system):
        record = system.launch_app("com.alpha")
        system.am.finish_activity(record)
        with pytest.raises(BadStateError):
            system.am.finish_activity(record)

    def test_finish_background_activity(self, system):
        alpha = system.launch_app("com.alpha")
        system.launch_app("com.beta")
        system.am.finish_activity(alpha)
        assert alpha.state == ActivityState.DESTROYED
        assert system.foreground_package() == "com.beta"

    def test_task_removed_when_empty(self, system):
        system.launch_app("com.alpha")
        record = front(system)
        system.am.finish_activity(record)
        assert system.am.supervisor.task_for("com.alpha") is None


class TestTaskStacks:
    def test_same_app_activities_share_task(self, system):
        system.launch_app("com.alpha")
        uid = system.uid_of("com.alpha")
        system.am.start_activity(uid, explicit("com.alpha", "TransparentActivity"))
        task = system.am.supervisor.task_for("com.alpha")
        assert len(task.activities) == 2

    def test_visible_records_through_transparency(self, system):
        system.launch_app("com.alpha")
        uid = system.uid_of("com.alpha")
        system.am.start_activity(uid, explicit("com.alpha", "TransparentActivity"))
        task = system.am.supervisor.task_for("com.alpha")
        visible = task.visible_records()
        assert len(visible) == 2

    def test_records_of_uid(self, system):
        system.launch_app("com.alpha")
        uid = system.uid_of("com.alpha")
        assert len(system.am.supervisor.records_of_uid(uid)) == 1


class TestForegroundTimeline:
    def test_timeline_tracks_changes(self, system):
        system.run_for(5.0)
        system.launch_app("com.alpha")
        system.run_for(5.0)
        system.launch_app("com.beta")
        timeline = system.am.timeline
        assert timeline.current_uid == system.uid_of("com.beta")
        assert timeline.uid_at(6.0) == system.uid_of("com.alpha")

    def test_intervals(self, system):
        system.run_for(10.0)
        system.launch_app("com.alpha")
        system.run_for(10.0)
        system.press_home()
        system.run_for(10.0)
        uid = system.uid_of("com.alpha")
        spans = foreground_spans(system.am.timeline.changes(), 0.0, 30.0)
        assert [(s, e) for s, e, owner in spans if owner == uid] == [(10.0, 20.0)]

    def test_foreground_observer_cause(self, system):
        from repro.telemetry import ForegroundChangedEvent

        causes = []
        system.telemetry.subscribe(
            lambda event: causes.append((event.cause, event.initiator_uid)),
            event_type=ForegroundChangedEvent,
        )
        system.launch_app("com.alpha")
        uid_alpha = system.uid_of("com.alpha")
        system.am.start_activity(uid_alpha, explicit("com.beta", "PlainActivity"))
        assert causes[0] == ("start", None)  # user launch
        assert causes[1] == ("start", uid_alpha)  # malware-style launch
