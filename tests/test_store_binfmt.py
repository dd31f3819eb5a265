"""Property tests for the columnar binary trace format (``trace-bin``).

Three families of invariants:

* encode -> decode is the identity on every DeviceTrace field (floats
  bit-exact, since columns are raw little-endian doubles);
* the binary codec and the JSON codec describe the *same* trace;
* no malformed input — truncated, bit-flipped, or arbitrary bytes —
  ever escapes as anything but :class:`TraceFormatError`.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.offline.trace import (
    ChannelTrace,
    DeviceTrace,
    LinkRecord,
    TraceFormatError,
)
from repro.store import (
    LazyBinaryTrace,
    decode_trace,
    encode_trace,
    get_codec,
    is_binary_trace,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
uids = st.integers(min_value=0, max_value=2**31 - 1)
components = st.sampled_from(["cpu", "radio", "gps", "screen", "camera"])


@st.composite
def channel_lists(draw):
    keys = draw(
        st.lists(st.tuples(uids, components), max_size=4, unique=True)
    )
    channels = []
    for owner, component in keys:
        times = sorted(
            draw(st.lists(finite, min_size=0, max_size=12, unique=True))
        )
        powers = draw(
            st.lists(finite, min_size=len(times), max_size=len(times))
        )
        channels.append(
            ChannelTrace(
                owner=owner,
                component=component,
                breakpoints=list(zip(times, powers)),
            )
        )
    return channels


@st.composite
def device_traces(draw):
    trace = DeviceTrace(
        captured_at=draw(finite),
        battery_capacity_j=draw(finite),
        apps=draw(st.dictionaries(uids, st.text(max_size=8), max_size=4)),
        system_uids=draw(st.lists(uids, max_size=3)),
        # Foreground changes are in time order (equal times allowed); a
        # list that goes backwards is malformed (see TestMalformedInput).
        foreground=sorted(
            draw(
                st.lists(
                    st.tuples(finite, st.one_of(st.none(), uids)), max_size=4
                )
            ),
            key=lambda change: change[0],
        ),
        links=draw(
            st.lists(
                st.builds(
                    LinkRecord,
                    kind=st.sampled_from(["service", "broadcast", "provider"]),
                    driving_uid=uids,
                    target=uids,
                    begin_time=finite,
                    end_time=st.one_of(st.none(), finite),
                ),
                max_size=3,
            )
        ),
    )
    trace.channels.extend(draw(channel_lists()))
    return trace


def assert_traces_equal(left: DeviceTrace, right: DeviceTrace) -> None:
    assert left.captured_at == right.captured_at
    assert left.battery_capacity_j == right.battery_capacity_j
    assert dict(left.apps) == dict(right.apps)
    assert list(left.system_uids) == list(right.system_uids)
    assert [tuple(fg) for fg in left.foreground] == [
        tuple(fg) for fg in right.foreground
    ]
    assert [
        (l.kind, l.driving_uid, l.target, l.begin_time, l.end_time)
        for l in left.links
    ] == [
        (l.kind, l.driving_uid, l.target, l.begin_time, l.end_time)
        for l in right.links
    ]
    assert {
        (ch.owner, ch.component): list(ch.breakpoints) for ch in left.channels
    } == {
        (ch.owner, ch.component): list(ch.breakpoints) for ch in right.channels
    }


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(device_traces())
    def test_encode_decode_is_identity(self, trace):
        blob = encode_trace(trace)
        assert is_binary_trace(blob)
        assert_traces_equal(decode_trace(blob), trace)

    @settings(max_examples=40, deadline=None)
    @given(device_traces())
    def test_binary_equals_json_codec(self, trace):
        via_bin = get_codec("trace-bin").decode(get_codec("trace-bin").encode(trace))
        via_json = get_codec("trace-json").decode(
            get_codec("trace-json").encode(trace)
        )
        assert_traces_equal(via_bin, via_json)

    @settings(max_examples=40, deadline=None)
    @given(device_traces())
    def test_from_bytes_auto_detects_format(self, trace):
        assert_traces_equal(DeviceTrace.from_bytes(encode_trace(trace)), trace)
        assert_traces_equal(
            DeviceTrace.from_bytes(trace.to_json().encode("utf-8")), trace
        )


# A fixed non-trivial document for the corruption properties.
def _sample_blob() -> bytes:
    trace = DeviceTrace(
        captured_at=12.5,
        battery_capacity_j=1000.0,
        apps={10000: "app"},
        system_uids=[1000],
        foreground=[(0.0, 10000)],
    )
    trace.channels.append(
        ChannelTrace(
            owner=10000,
            component="cpu",
            breakpoints=[(float(i), float(i % 7) / 3.0) for i in range(50)],
        )
    )
    return encode_trace(trace)


SAMPLE_BLOB = _sample_blob()


class TestMalformedInput:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=len(SAMPLE_BLOB) - 1))
    def test_any_truncation_raises_trace_format_error(self, cut):
        with pytest.raises(TraceFormatError):
            decode_trace(SAMPLE_BLOB[:cut])

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=0, max_value=len(SAMPLE_BLOB) - 1),
        st.integers(min_value=1, max_value=255),
    )
    def test_any_bit_flip_raises_trace_format_error(self, index, mask):
        garbled = bytearray(SAMPLE_BLOB)
        garbled[index] ^= mask
        with pytest.raises(TraceFormatError):
            decode_trace(bytes(garbled))

    @settings(max_examples=80, deadline=None)
    @given(st.binary(max_size=256))
    def test_arbitrary_bytes_raise_trace_format_error(self, data):
        with pytest.raises(TraceFormatError):
            decode_trace(data)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(finite, min_size=2, max_size=6))
    def test_foreground_must_not_go_back_in_time(self, times):
        trace = DeviceTrace(
            captured_at=1.0, foreground=[(t, 10000) for t in times]
        )
        blob = encode_trace(trace)
        if times == sorted(times):
            assert decode_trace(blob).foreground == trace.foreground
        else:
            with pytest.raises(TraceFormatError, match="go back in time"):
                decode_trace(blob)
            with pytest.raises(TraceFormatError, match="go back in time"):
                LazyBinaryTrace(blob)

    def test_header_json_must_be_an_object(self):
        # A structurally valid frame whose header decodes to a non-dict.
        import struct
        import zlib

        header = b"[1,2]"
        body = struct.pack("<8sHHI", b"REPROTRC", 1, 0, len(header)) + header
        blob = body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        with pytest.raises(TraceFormatError, match="JSON object"):
            decode_trace(blob)


class TestLazyWindows:
    @settings(max_examples=40, deadline=None)
    @given(device_traces(), finite, finite)
    def test_windowed_breakpoints_match_full_decode(self, trace, a, b):
        start, end = min(a, b), max(a, b)
        lazy = LazyBinaryTrace(encode_trace(trace))
        for channel in trace.channels:
            full = list(channel.breakpoints)
            window = lazy.breakpoints(
                channel.owner, channel.component, start=start, end=end
            )
            # Every windowed breakpoint exists in the full column, in order.
            assert window == [
                bp
                for bp in full
                if bp in window  # noqa: PLR1733 - membership is the point
            ]
            # The window covers [start, end): every change inside it, plus
            # the one active at start.
            inside = [bp for bp in full if start < bp[0] < end]
            for bp in inside:
                assert bp in window

    def test_directory_and_columns(self):
        lazy = LazyBinaryTrace(SAMPLE_BLOB)
        assert lazy.channels() == [(10000, "cpu", 50)]
        times, powers = lazy.columns(10000, "cpu")
        assert times == [float(i) for i in range(50)]
        assert powers == [float(i % 7) / 3.0 for i in range(50)]
        with pytest.raises(TraceFormatError, match="no channel"):
            lazy.columns(1, "gps")
