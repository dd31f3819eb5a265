"""repro.serve — the long-lived energy query service.

Ingest device traces (files, JSONL streams, directories, the check
corpus) into sessions once; answer ``energy`` / ``batterystats`` /
``powertutor`` / ``eandroid`` / ``collateral`` report queries many
times, through the unified :mod:`repro.reports` API, with an LRU result
cache and explicit backpressure.  See ``docs/SERVING.md``.
"""

from .client import QueryFailedError, ServiceClient
from .net import AsyncServiceClient, LineAssembler, NetConfig, NetServer, NetStats
from .ingest import (
    CORPUS_KIND,
    REPLAY_REF_NAMESPACE,
    IngestedTrace,
    iter_traces,
    scenario_digest,
    trace_from_document,
)
from .protocol import (
    ALL_SESSIONS,
    MAX_LINE_BYTES,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_SHED,
    CachedReport,
    DecodedLine,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    decode_request_line,
    encode_response_line,
    expand_sessions,
    responses_to_jsonl,
)
from .service import (
    SESSION_REF_NAMESPACE,
    ProfilingService,
    ResultLRU,
    ServeStats,
    ServiceConfig,
    SessionRecord,
    UnknownSessionError,
)

__all__ = [
    "ALL_SESSIONS",
    "AsyncServiceClient",
    "CORPUS_KIND",
    "CachedReport",
    "DecodedLine",
    "IngestedTrace",
    "LineAssembler",
    "MAX_LINE_BYTES",
    "NetConfig",
    "NetServer",
    "NetStats",
    "ProfilingService",
    "ProtocolError",
    "REPLAY_REF_NAMESPACE",
    "SESSION_REF_NAMESPACE",
    "QueryFailedError",
    "QueryRequest",
    "QueryResponse",
    "ResultLRU",
    "STATUS_ERROR",
    "STATUS_OK",
    "STATUS_SHED",
    "ServeStats",
    "ServiceClient",
    "ServiceConfig",
    "SessionRecord",
    "UnknownSessionError",
    "decode_request_line",
    "encode_response_line",
    "expand_sessions",
    "iter_traces",
    "responses_to_jsonl",
    "scenario_digest",
    "trace_from_document",
]
