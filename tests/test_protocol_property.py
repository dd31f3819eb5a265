"""Property tests for the JSONL wire protocol and its framing layer.

Three contracts, pinned with hypothesis:

* **round-trip identity** — any valid query / aggregate / response
  object survives encode → frame → chunked reassembly → decode exactly
  (the same `DecodedLine` both serving front-ends consume), and the
  response encoder that reuses cached report text writes exactly the
  bytes ``json.dumps(response.to_dict()) + "\\n"`` would;
* **never-raise degradation** — `decode_request_line` turns arbitrary
  garbage, truncation, and type confusion into a typed ``error`` result
  and never lets an exception escape (an escaping exception would kill
  a connection handler), and `LineAssembler` yields the same framing
  events for a byte stream regardless of how the chunks split it;
* **fast paths change nothing** — with the hot-line decode table cold,
  warm or full, `decode_request_line` answers as the full decoder, and
  an LRU response's formatted head is what ``json.dumps`` would write.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.aggregate import AggregateRequest
from repro.aggregate.request import GROUP_BYS, OPS
from repro.reports import BACKENDS, ReportRequest
from repro.serve import protocol
from repro.serve import (
    CachedReport,
    LineAssembler,
    QueryRequest,
    QueryResponse,
    decode_request_line,
    encode_response_line,
)

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_session_names = st.text(
    alphabet=st.characters(
        codec="utf-8", categories=("L", "N"), include_characters="-_."
    ),
    min_size=1,
    max_size=24,
)

_windows = st.tuples(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
).map(lambda w: (w[0], None if w[1] is None else max(w[0], w[1])))


@st.composite
def report_requests(draw):
    start, end = draw(_windows)
    owners = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.integers(min_value=0, max_value=99_999), min_size=1, max_size=6
            ),
        )
    )
    return ReportRequest(
        backend=draw(st.sampled_from(BACKENDS)),
        start=start,
        end=end,
        owners=None if owners is None else tuple(owners),
    )


@st.composite
def query_requests(draw):
    return QueryRequest(
        id=draw(st.integers(min_value=0, max_value=2**31)),
        session=draw(_session_names),
        report=draw(report_requests()),
    )


@st.composite
def aggregate_requests(draw):
    op = draw(st.sampled_from(OPS))
    start, end = draw(_windows)
    return AggregateRequest(
        backend=draw(st.sampled_from(BACKENDS)),
        op=op,
        group_by=draw(st.sampled_from(GROUP_BYS)),
        sessions=tuple(draw(st.lists(_session_names, min_size=1, max_size=4))),
        start=start,
        end=end,
        k=draw(st.integers(min_value=1, max_value=50)),
        bins=draw(st.integers(min_value=1, max_value=64)),
        bin_width=draw(st.floats(min_value=0.01, max_value=100.0, allow_nan=False)),
    )


@st.composite
def query_responses(draw):
    status = draw(st.sampled_from(("ok", "shed", "error")))
    report = None
    error = None
    if status == "ok":
        report = draw(
            st.dictionaries(
                st.sampled_from(("schema", "backend", "total_j", "rows")),
                st.one_of(st.text(max_size=16), st.floats(allow_nan=False)),
                max_size=4,
            )
        )
    else:
        error = draw(st.text(min_size=1, max_size=64))
    return QueryResponse(
        id=draw(st.integers(min_value=0, max_value=2**31)),
        session=draw(_session_names),
        status=status,
        report=report,
        error=error,
        cached=draw(st.booleans()),
        latency_us=draw(st.floats(min_value=0.0, max_value=1e9, allow_nan=False)),
    )


def _chunked(data: bytes, cuts):
    """Split ``data`` at the (sorted, de-duplicated) cut offsets."""
    offsets = sorted({min(c, len(data)) for c in cuts})
    pieces = []
    last = 0
    for offset in offsets:
        pieces.append(data[last:offset])
        last = offset
    pieces.append(data[last:])
    return [p for p in pieces if p]


# ----------------------------------------------------------------------
# round-trip identity: encode -> frame -> split -> decode
# ----------------------------------------------------------------------
class TestRoundTrips:
    @given(query=query_requests())
    @settings(max_examples=200, deadline=None)
    def test_query_line_roundtrip(self, query):
        line = json.dumps(query.to_dict())
        decoded = decode_request_line(line)
        assert decoded.kind == "query"
        assert decoded.id == query.id
        assert decoded.query == query
        assert decoded.query.key() == query.key()

    @given(request=aggregate_requests())
    @settings(max_examples=200, deadline=None)
    def test_aggregate_line_roundtrip(self, request):
        line = json.dumps(request.to_dict())
        decoded = decode_request_line(line)
        assert decoded.kind == "aggregate"
        # `to_dict` drops k/bins/bin_width for ops that ignore them, so
        # identity holds on the wire form and the cache key, not on raw
        # dataclass equality.
        assert decoded.aggregate.to_dict() == request.to_dict()
        assert decoded.aggregate.key() == request.key()

    @given(response=query_responses())
    @settings(max_examples=200, deadline=None)
    def test_response_line_roundtrip(self, response):
        line = json.dumps(response.to_dict())
        rebuilt = QueryResponse.from_dict(json.loads(line))
        assert rebuilt.to_dict() == response.to_dict()

    @given(
        response=query_responses(),
        extras=st.dictionaries(
            st.one_of(
                st.sampled_from(("id", "status", "report", "error", "op")),
                st.text(max_size=8),
            ),
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(),
                st.floats(allow_nan=False),
                st.text(max_size=8),
            ),
            max_size=3,
        ),
        slot=st.sampled_from(("none", "empty", "filled")),
    )
    @settings(max_examples=300, deadline=None)
    def test_response_encoder_is_byte_identical(self, response, extras, slot):
        """The encoder writes exactly ``json.dumps(to_dict())``."""
        response.extras = extras
        if slot != "none" and response.report is not None:
            response.cached_report = CachedReport(response.report)
            if slot == "filled":
                response.cached_report.text = json.dumps(response.report)
        expected = json.dumps(response.to_dict()) + "\n"
        assert encode_response_line(response) == expected
        # Again, now that the first encode may have filled the slot.
        assert encode_response_line(response) == expected

    @given(
        queries=st.lists(query_requests(), min_size=1, max_size=8),
        cuts=st.lists(st.integers(min_value=0, max_value=4096), max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_framing_is_chunking_invariant(self, queries, cuts):
        """Any chunking of the same byte stream frames the same lines."""
        stream = b"".join(
            (json.dumps(q.to_dict()) + "\n").encode("utf-8") for q in queries
        )
        assembler = LineAssembler()
        events = []
        for chunk in _chunked(stream, cuts):
            events.extend(assembler.feed(chunk))
        assembler.finish()
        assert [kind for kind, _ in events] == ["line"] * len(queries)
        decoded = [
            decode_request_line(line.decode("utf-8")) for _, line in events
        ]
        assert [d.query for d in decoded] == queries


# ----------------------------------------------------------------------
# degradation: garbage never raises, never silently drops
# ----------------------------------------------------------------------
class TestGarbageDegradation:
    @given(text=st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_never_raises(self, text):
        decoded = decode_request_line(text, default_id=42)
        assert decoded.kind in ("query", "aggregate", "error")
        if decoded.kind == "error":
            assert decoded.error  # typed and non-empty, never silent

    @given(
        query=query_requests(),
        frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @settings(max_examples=200, deadline=None)
    def test_truncated_query_lines_are_typed_errors(self, query, frac):
        line = json.dumps(query.to_dict())
        cut = int(len(line) * frac)
        decoded = decode_request_line(line[:cut], default_id=7)
        # A proper prefix of a JSON object is never a valid object.
        assert decoded.kind == "error"
        assert decoded.error
        assert decoded.id == 7

    @given(
        payload=st.recursive(
            st.one_of(
                st.none(),
                st.booleans(),
                st.integers(min_value=-(2**40), max_value=2**40),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=16),
            ),
            lambda children: st.one_of(
                st.lists(children, max_size=4),
                st.dictionaries(st.text(max_size=8), children, max_size=4),
            ),
            max_leaves=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_json_documents_never_raise(self, payload):
        decoded = decode_request_line(json.dumps(payload))
        assert decoded.kind in ("query", "aggregate", "error")
        if decoded.kind == "error":
            assert decoded.error

    def test_pathological_literals_are_typed_errors(self):
        # Infinity ids overflow int(); deep nesting can hit the
        # recursion limit — both must degrade, not raise.
        for line in (
            '{"id": Infinity, "session": "s", "backend": "energy"}',
            "[" * 10_000 + "]" * 10_000,
            '{"session": "s"}',  # missing backend
            '{"backend": "energy"}',  # missing session
            '{"id": [1], "session": "s", "backend": "energy"}',
        ):
            decoded = decode_request_line(line)
            assert decoded.kind == "error", line
            assert decoded.error


# ----------------------------------------------------------------------
# the framing layer under oversized lines
# ----------------------------------------------------------------------
class TestOversizedResync:
    @given(
        junk_len=st.integers(min_value=65, max_value=4096),
        cuts=st.lists(st.integers(min_value=0, max_value=8192), max_size=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_oversized_line_flags_once_and_resyncs(self, junk_len, cuts):
        assembler = LineAssembler(max_line_bytes=64)
        follow_up = b'{"id": 1, "session": "s", "backend": "energy"}'
        stream = b"x" * junk_len + b"\n" + follow_up + b"\n"
        events = []
        for chunk in _chunked(stream, cuts):
            events.extend(assembler.feed(chunk))
        assembler.finish()
        kinds = [kind for kind, _ in events]
        assert kinds == ["oversized", "line"]
        assert events[1][1] == follow_up

    @given(tail_len=st.integers(min_value=0, max_value=200))
    @settings(max_examples=50, deadline=None)
    def test_unterminated_tail_is_dropped_at_eof(self, tail_len):
        # A mid-line disconnect leaves a partial line: it must die with
        # the connection, never parse as a query.
        assembler = LineAssembler(max_line_bytes=1024)
        events = assembler.feed(b'{"id": 1}\n' + b"y" * tail_len)
        assembler.finish()
        assert [kind for kind, _ in events] == ["line"]
        # after finish() the assembler is clean for reuse
        assert assembler.feed(b"z\n") == [("line", b"z")]


# ----------------------------------------------------------------------
# the fast paths: hot-line decode table and formatted response heads
# ----------------------------------------------------------------------
_id_tokens = st.one_of(
    st.sampled_from(
        ("0", "-0", "007", "-01", "1", "-17", "9" * 18, "1" + "0" * 18,
         "1" * 25, "1.0", "1e3", "true", "null", '"5"', "[1]")
    ),
    st.integers(min_value=-(2**70), max_value=2**70).map(str),
)
_sessions = st.text(max_size=12)  # any unicode, quotes and backslashes too


def _mostly(value, *others):
    """``value`` about half the time, else one of ``others``."""
    return st.one_of(st.just(value), st.sampled_from(others))


@st.composite
def request_rests(draw):
    """The members after a line's id, closing brace included."""
    members = []
    if draw(_mostly(True, False)):
        members.append(
            '"session": '
            + json.dumps(draw(_sessions), ensure_ascii=draw(st.booleans()))
        )
    backend = draw(st.one_of(st.sampled_from(BACKENDS), st.sampled_from(("nope", ""))))
    members.append(f'"backend": "{backend}"')
    if draw(st.booleans()):
        members.append(f'"start": {draw(st.sampled_from(("0.5", "2", "-1", "1e400")))}')
    if draw(_mostly(False, True)):
        members.append(f'"op": "{draw(st.sampled_from(OPS + ("nope",)))}"')
    extra = draw(
        _mostly("", '"id": 9', '"\\u0069d": 9', '"id": "x"', '"note": "id"')
    )
    if extra:
        members.insert(draw(st.integers(0, len(members))), extra)
    members = draw(st.permutations(members))
    sep = draw(_mostly(", ", ",", " , "))
    return sep.join(members) + draw(_mostly("}", " }", "}x", ""))


_HOT_REST = '"session": "s", "backend": "energy"}'
_prefixes = _mostly(
    '{"id": %s, ', '{"id":%s, ', '{ "id": %s, ', '{"id" : %s, ', '{"id": %s ,'
)


class TestFastPaths:
    @given(
        rest=request_rests(),
        prefix=_prefixes,
        first=_id_tokens,
        second=_id_tokens,
    )
    @example(rest=_HOT_REST, prefix='{"id": %s, ', first="1", second="007")
    @example(rest=_HOT_REST, prefix='{"id": %s, ', first="1", second="-0")
    @example(rest=_HOT_REST, prefix='{"id": %s, ', first="1", second="1" * 19)
    @example(
        rest='"id": 9, ' + _HOT_REST, prefix='{"id": %s, ', first="1", second="2"
    )
    @example(
        rest='"\\u0069d": 9, ' + _HOT_REST,
        prefix='{"id": %s, ',
        first="1",
        second="2",
    )
    @settings(max_examples=500, deadline=None)
    def test_decode_table_answers_as_the_full_decoder(
        self, rest, prefix, first, second
    ):
        """Warm (from the same line or another id), cold or full, the
        table never changes what a line decodes to."""
        lines = [prefix % first + rest, prefix % second + rest]
        expected = [protocol._decode_document(line, 5) for line in lines]
        try:
            protocol._hot_lines.clear()  # cold
            for _ in range(2):  # the second round meets a warm table
                for line, want in zip(lines, expected):
                    assert decode_request_line(line, 5) == want
            protocol._hot_lines.clear()
            protocol._hot_lines.update(
                (f"filler {n}", ("s", ReportRequest("energy")))
                for n in range(protocol.HOT_LINES)
            )
            for line, want in zip(lines, expected):  # full, then starting over
                assert decode_request_line(line, 5) == want
                assert len(protocol._hot_lines) <= protocol.HOT_LINES
        finally:
            protocol._hot_lines.clear()

    @given(
        qid=st.integers(min_value=-(2**63), max_value=2**63),
        session=_sessions,
        cached=st.booleans(),
        latency=st.one_of(
            st.sampled_from((0.0, 1e-7, 1e22, 5e-324, 1.7976931348623157e308)),
            st.floats(),
        ),
        report=st.dictionaries(
            st.text(max_size=6),
            st.one_of(st.text(max_size=6), st.floats(allow_nan=False)),
            max_size=3,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_formatted_head_is_json_dumps(self, qid, session, cached, latency, report):
        response = QueryResponse(
            id=qid,
            session=session,
            status="ok",
            report=report,
            cached=cached,
            latency_us=latency,
            cached_report=CachedReport(report),
        )
        expected = json.dumps(response.to_dict()) + "\n"
        assert encode_response_line(response) == expected
        assert encode_response_line(response) == expected  # text reused
