"""The provenance gateway: one versioned API surface over the stack.

The paper's reference architecture (§2.3, Fig. 1) puts the agent and the
Query API behind a service boundary that users and programs reach
remotely.  This package is that boundary:

* :mod:`repro.api.schemas` — frozen request/response dataclasses with
  strict canonical-JSON round-tripping, stable error codes, and
  cursor-based pagination types;
* :mod:`repro.api.gateway` — :class:`ProvenanceGateway`, routing schema
  requests onto the serving layer (:class:`~repro.agent.service.AgentService`),
  the Query API / versioned query cache, and the lineage index — with
  all four query dialects (``filter`` / ``pipeline`` / ``sql`` /
  ``graph``) behind one ``execute_query``;
* :mod:`repro.api.stages` — the stage sequence every query runs
  (validate, compile[dialect], explain or execute, page);
* :mod:`repro.api.routing` — the transport-neutral routing core
  (``/v1/sessions``, ``/v1/sessions/{id}/chat``, ``/v1/query``,
  ``/v1/lineage/{task_id}``, ``/v1/stats``) with JSON/CSV content
  negotiation: every reply the HTTP transport writes, errors
  included, is built here;
* :mod:`repro.api.aio` — the HTTP transport: one asyncio event-loop
  thread, a sized executor pool, and admission control
  (:mod:`repro.api.admission`: per-client/per-session token buckets,
  a bounded admission queue, graceful drain);
* :mod:`repro.api.client` — :class:`GatewayClient` (in-process) and
  :class:`RemoteClient` (HTTP, optional 429/503 retries honoring
  ``Retry-After``) with identical interfaces and byte-identical JSON
  responses.

See ``docs/api_gateway.md`` for endpoint reference and curl examples.
"""

from repro.api.admission import AdmissionController, TokenBucket
from repro.api.aio import AsyncGatewayServer
from repro.api.client import GatewayClient, GatewayConnectionError, RemoteClient
from repro.api.gateway import ProvenanceGateway
from repro.api.schemas import (
    API_VERSION,
    ChatReply,
    ChatRequest,
    CreateSessionRequest,
    Cursor,
    DIALECTS,
    ErrorCode,
    ErrorEnvelope,
    FramePayload,
    LineageReply,
    LineageRequest,
    Page,
    QueryReply,
    QueryRequest,
    SchemaViolation,
    SessionInfo,
    StatsReply,
    from_json,
    to_json,
)

__all__ = [
    "API_VERSION",
    "DIALECTS",
    "AdmissionController",
    "AsyncGatewayServer",
    "ChatReply",
    "ChatRequest",
    "CreateSessionRequest",
    "Cursor",
    "ErrorCode",
    "ErrorEnvelope",
    "FramePayload",
    "GatewayClient",
    "GatewayConnectionError",
    "LineageReply",
    "LineageRequest",
    "Page",
    "ProvenanceGateway",
    "QueryReply",
    "QueryRequest",
    "RemoteClient",
    "SchemaViolation",
    "SessionInfo",
    "StatsReply",
    "TokenBucket",
    "from_json",
    "to_json",
]
