"""TraceFormatError: every malformed-trace path raises the typed error."""

import json

import pytest

from repro.offline import DeviceTrace, TraceFormatError, capture_trace
from repro.offline.trace import TRACE_FORMAT_VERSION
from repro.workloads import run_scene1


@pytest.fixture(scope="module")
def trace_doc():
    run = run_scene1()
    trace = capture_trace(run.system, run.eandroid)
    return json.loads(trace.to_json())


def test_is_value_error():
    assert issubclass(TraceFormatError, ValueError)


def test_invalid_json():
    with pytest.raises(TraceFormatError, match="not valid JSON"):
        DeviceTrace.from_json("{broken")


def test_non_object_document():
    with pytest.raises(TraceFormatError, match="JSON object"):
        DeviceTrace.from_json("[1, 2, 3]")


def test_wrong_version(trace_doc):
    doc = dict(trace_doc)
    doc["format_version"] = TRACE_FORMAT_VERSION + 1
    with pytest.raises(TraceFormatError, match="format version"):
        DeviceTrace.from_json(json.dumps(doc))


def test_missing_version():
    with pytest.raises(TraceFormatError, match="format version"):
        DeviceTrace.from_json("{}")


def test_missing_field(trace_doc):
    doc = dict(trace_doc)
    del doc["captured_at"]
    with pytest.raises(TraceFormatError, match="truncated or malformed"):
        DeviceTrace.from_json(json.dumps(doc))


def test_mistyped_channel(trace_doc):
    doc = json.loads(json.dumps(trace_doc))
    doc["channels"] = [{"owner": "not-a-number-at-all"}]
    with pytest.raises(TraceFormatError, match="truncated or malformed"):
        DeviceTrace.from_json(json.dumps(doc))


def test_backward_foreground_changes(trace_doc):
    doc = json.loads(json.dumps(trace_doc))
    doc["foreground"] = [[0.0, 10000], [5.0, 10001], [4.0, 10000]]
    with pytest.raises(TraceFormatError, match="go back in time"):
        DeviceTrace.from_json(json.dumps(doc))


def test_equal_foreground_times_are_allowed(trace_doc):
    doc = json.loads(json.dumps(trace_doc))
    doc["foreground"] = [[0.0, 10000], [5.0, 10001], [5.0, None]]
    trace = DeviceTrace.from_json(json.dumps(doc))
    assert trace.foreground == [(0.0, 10000), (5.0, 10001), (5.0, None)]


def test_round_trip_still_works(trace_doc):
    restored = DeviceTrace.from_json(json.dumps(trace_doc))
    assert json.loads(restored.to_json()) == trace_doc
