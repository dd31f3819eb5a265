"""Tests for the service lifecycle — including attack #3's liveness rule."""

import pytest

from repro.android import BadStateError, ServiceState, explicit

from helpers import booted_system, make_app


@pytest.fixture
def system():
    return booted_system(make_app("com.alpha"), make_app("com.victim"))


def svc_intent(package="com.victim"):
    return explicit(package, "PlainService")


class TestStartStop:
    def test_start_creates_and_flags(self, system):
        uid = system.uid_of("com.alpha")
        record = system.am.start_service(uid, svc_intent())
        assert record.started
        assert record.state == ServiceState.RUNNING
        assert record.instance.events == ["create", "start_command"]

    def test_start_twice_single_instance(self, system):
        uid = system.uid_of("com.alpha")
        first = system.am.start_service(uid, svc_intent())
        second = system.am.start_service(uid, svc_intent())
        assert first is second
        assert second.instance.events.count("create") == 1
        assert second.instance.events.count("start_command") == 2

    def test_stop_destroys_unbound(self, system):
        uid = system.uid_of("com.alpha")
        record = system.am.start_service(uid, svc_intent())
        assert system.am.stop_service(uid, svc_intent()) is True
        assert record.state == ServiceState.DESTROYED
        assert record.instance.events[-1] == "destroy"
        assert system.am.service_record("com.victim", "PlainService") is None

    def test_stop_unstarted_returns_false(self, system):
        uid = system.uid_of("com.alpha")
        assert system.am.stop_service(uid, svc_intent()) is False

    def test_stop_self(self, system):
        uid = system.uid_of("com.victim")
        record = system.am.start_service(uid, svc_intent())
        record.instance.stop_self()
        assert record.state == ServiceState.DESTROYED

    def test_stop_self_after_destroy_rejected(self, system):
        uid = system.uid_of("com.victim")
        record = system.am.start_service(uid, svc_intent())
        record.instance.stop_self()
        with pytest.raises(BadStateError):
            system.am.stop_self(record)


class TestBindUnbind:
    def test_bind_creates_service(self, system):
        uid = system.uid_of("com.alpha")
        connection = system.am.bind_service(uid, svc_intent())
        record = connection.record
        assert record.state == ServiceState.RUNNING
        assert not record.started
        assert record.bound_by(uid)
        assert record.instance.events == ["create", "bind"]

    def test_unbind_destroys_unstarted(self, system):
        uid = system.uid_of("com.alpha")
        connection = system.am.bind_service(uid, svc_intent())
        system.am.unbind_service(connection)
        assert connection.record.state == ServiceState.DESTROYED
        assert connection.record.instance.events[-2:] == ["unbind", "destroy"]

    def test_double_unbind_rejected(self, system):
        uid = system.uid_of("com.alpha")
        connection = system.am.bind_service(uid, svc_intent())
        system.am.unbind_service(connection)
        with pytest.raises(BadStateError):
            system.am.unbind_service(connection)

    def test_attack3_liveness_rule(self, system):
        """stopService() does NOT kill a service while a binding remains."""
        victim_uid = system.uid_of("com.victim")
        malware_uid = system.uid_of("com.alpha")
        record = system.am.start_service(victim_uid, svc_intent())
        connection = system.am.bind_service(malware_uid, svc_intent())
        # Victim tries to stop its own service — malware's bind keeps it.
        system.am.stop_service(victim_uid, svc_intent())
        assert record.state == ServiceState.RUNNING
        assert not record.started
        # Only after the malware unbinds does the service die.
        system.am.unbind_service(connection)
        assert record.state == ServiceState.DESTROYED

    def test_multiple_bindings_all_must_unbind(self, system):
        uid_a = system.uid_of("com.alpha")
        uid_v = system.uid_of("com.victim")
        conn_a = system.am.bind_service(uid_a, svc_intent())
        conn_v = system.am.bind_service(uid_v, svc_intent())
        record = conn_a.record
        system.am.unbind_service(conn_a)
        assert record.state == ServiceState.RUNNING
        system.am.unbind_service(conn_v)
        assert record.state == ServiceState.DESTROYED

    def test_on_unbind_fires_only_on_last(self, system):
        uid_a = system.uid_of("com.alpha")
        uid_v = system.uid_of("com.victim")
        conn_a = system.am.bind_service(uid_a, svc_intent())
        conn_v = system.am.bind_service(uid_v, svc_intent())
        system.am.unbind_service(conn_a)
        assert "unbind" not in conn_a.record.instance.events
        system.am.unbind_service(conn_v)
        assert "unbind" in conn_v.record.instance.events

    def test_client_death_unbinds(self, system):
        malware_uid = system.uid_of("com.alpha")
        system.launch_app("com.alpha")  # give malware a process
        connection = system.am.bind_service(malware_uid, svc_intent())
        record = connection.record
        system.am.force_stop("com.alpha")
        assert not connection.bound
        assert record.state == ServiceState.DESTROYED

    def test_running_services_query(self, system):
        uid = system.uid_of("com.alpha")
        system.am.start_service(uid, svc_intent())
        assert len(system.am.running_services()) == 1
        assert len(system.am.running_services(system.uid_of("com.victim"))) == 1
        assert system.am.running_services(uid) == []


class TestForceStop:
    def test_force_stop_kills_everything(self, system):
        system.launch_app("com.victim")
        uid = system.uid_of("com.victim")
        system.am.start_service(uid, svc_intent())
        system.am.force_stop("com.victim")
        app = system.package_manager.app_for_package("com.victim")
        assert app.process is None
        assert system.am.running_services(uid) == []
        assert system.am.supervisor.records_of_uid(uid) == []

    def test_force_stop_foreground_promotes_next(self, system):
        system.launch_app("com.alpha")
        system.launch_app("com.victim")
        system.am.force_stop("com.victim")
        assert system.foreground_package() == "com.alpha"

    def test_force_stop_drops_incoming_bindings(self, system):
        malware_uid = system.uid_of("com.alpha")
        connection = system.am.bind_service(malware_uid, svc_intent())
        system.am.force_stop("com.victim")
        assert not connection.bound

    def test_force_stop_unbinds_in_binding_order(self, system):
        """One unbind event per incoming connection, oldest binding first."""
        from repro.telemetry import ServiceUnbindEvent

        clients = [system.uid_of(p) for p in ("com.alpha", "com.victim")] * 8
        connections = [system.am.bind_service(uid, svc_intent()) for uid in clients]
        unbinds = []
        system.telemetry.subscribe(
            lambda event: unbinds.append(event.caller_uid),
            event_type=ServiceUnbindEvent,
        )
        record = connections[0].record
        expected = [c.client_uid for c in record.connections]
        assert [c.connection_id for c in record.connections] == sorted(
            c.connection_id for c in connections
        )
        system.am.force_stop("com.victim")
        assert unbinds[: len(expected)] == expected
