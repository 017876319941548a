"""Transport-neutral request handling for the gateway's HTTP surface.

The transport (:class:`~repro.api.aio.AsyncGatewayServer`) parses
bytes off its sockets, builds a :class:`WireRequest`, and hands it to
:func:`handle_request`.  Everything above the socket lives here: route
matching, body parsing, content negotiation, error-code-to-status
mapping, and response shaping — so a reply over HTTP is the in-process
:class:`~repro.api.client.GatewayClient` reply byte for byte (the
parity matrix in ``tests/api/test_client_parity.py`` asserts it), and an
unroutable request (unknown path, wrong method) is answered with an
:class:`~repro.api.schemas.ErrorEnvelope` like every other failure.

The one transport-level concern this module also owns is the
``Retry-After`` hint: any 429/503 response (:data:`ErrorCode.RATE_LIMITED`,
:data:`ErrorCode.OVERLOADED`, :data:`ErrorCode.SERVICE_CLOSED`) carries
``WireResponse.retry_after``, which the transport emits as the header of the
same name and clients may honor with backoff
(:class:`~repro.api.client.RemoteClient` ``retries=``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Any, Callable, TYPE_CHECKING
from urllib.parse import parse_qs, unquote, urlparse

from repro.api import schemas as s
from repro.api.schemas import (
    ChatRequest,
    CreateSessionRequest,
    ErrorCode,
    ErrorEnvelope,
    LineageRequest,
    QueryReply,
    QueryRequest,
    SchemaViolation,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.gateway import ProvenanceGateway

__all__ = [
    "STATUS_BY_CODE",
    "MAX_BODY_BYTES",
    "DEFAULT_RETRY_AFTER_S",
    "WireRequest",
    "WireResponse",
    "handle_request",
    "error_response",
    "session_id_of",
]

#: stable error code -> HTTP status
STATUS_BY_CODE: dict[str, int] = {
    ErrorCode.MALFORMED_JSON: 400,
    ErrorCode.SCHEMA_VIOLATION: 400,
    ErrorCode.BAD_REQUEST: 400,
    ErrorCode.UNKNOWN_DIALECT: 400,
    ErrorCode.UNKNOWN_SESSION: 404,
    ErrorCode.SESSION_EXISTS: 409,
    ErrorCode.QUERY_SYNTAX: 400,
    ErrorCode.QUERY_EXECUTION: 422,
    ErrorCode.UNKNOWN_TASK: 404,
    ErrorCode.CURSOR_INVALID: 400,
    ErrorCode.CURSOR_STALE: 410,
    ErrorCode.NOT_FOUND: 404,
    ErrorCode.METHOD_NOT_ALLOWED: 405,
    ErrorCode.NOT_ACCEPTABLE: 406,
    ErrorCode.RATE_LIMITED: 429,
    ErrorCode.OVERLOADED: 503,
    ErrorCode.SERVICE_CLOSED: 503,
    ErrorCode.INTERNAL: 500,
}

#: codes whose responses carry a Retry-After header
_RETRYABLE_CODES = frozenset(
    {ErrorCode.RATE_LIMITED, ErrorCode.OVERLOADED, ErrorCode.SERVICE_CLOSED}
)

#: Retry-After seconds when the shedding layer gave no better estimate
DEFAULT_RETRY_AFTER_S = 1

#: request body size guard (a gateway, not a file server)
MAX_BODY_BYTES = 4 * 1024 * 1024

_CHAT_PATH = re.compile(r"^/v1/sessions/([^/]+)/chat$")
_LINEAGE_PATH = re.compile(r"^/v1/lineage/([^/]+)$")


def session_id_of(path: str) -> str | None:
    """The (decoded) session id a request target addresses, if any.

    Admission control uses this to key per-session rate limiting
    *before* any body parsing or gateway work happens.
    """
    match = _CHAT_PATH.match(urlparse(path).path)
    return unquote(match.group(1)) if match is not None else None


@dataclass(frozen=True)
class WireRequest:
    """One parsed-off-the-socket request, transport details erased."""

    method: str
    target: str  # raw request target, query string included
    body: bytes = b""
    accept: str = "application/json"


@dataclass(frozen=True)
class WireResponse:
    """One response, ready for a transport to serialise.

    ``retry_after`` (seconds) is set on shed/drain responses; the transport
    emits it as the ``Retry-After`` header.
    """

    status: int
    content_type: str
    body: bytes
    retry_after: int | None = None


def _schema_response(obj: Any, *, status: int | None = None) -> WireResponse:
    retry_after = None
    if isinstance(obj, ErrorEnvelope):
        status = STATUS_BY_CODE.get(obj.code, 500)
        if obj.code in _RETRYABLE_CODES:
            retry_after = _retry_after_of(obj)
    return WireResponse(
        status=status if status is not None else 200,
        content_type="application/json",
        body=s.to_json(obj).encode(),
        retry_after=retry_after,
    )


def _retry_after_of(envelope: ErrorEnvelope) -> int:
    detail = envelope.detail if envelope.detail is not None else {}
    value = detail.get("retry_after_s")
    if isinstance(value, (int, float)) and not isinstance(value, bool) and value >= 0:
        # ceil to whole seconds: Retry-After is integral, and rounding
        # down would invite a retry that is still rate limited
        return max(1, int(-(-value // 1)))
    return DEFAULT_RETRY_AFTER_S


def error_response(
    code: str, message: str, detail: dict[str, Any] | None = None
) -> WireResponse:
    """An :class:`ErrorEnvelope` response built transport-side.

    The admission layer sheds with this *before* the gateway sees the
    request, so these envelopes do not pass through the gateway's error
    counters — the admission counters account for them instead.
    """
    return _schema_response(ErrorEnvelope(code=code, message=message, detail=detail))


def handle_request(gateway: "ProvenanceGateway", request: WireRequest) -> WireResponse:
    """Route one wire request onto the gateway; never raises."""
    try:
        return _route(gateway, request)
    except Exception as exc:  # noqa: BLE001 - transport boundary: no tracebacks
        return _schema_response(
            ErrorEnvelope(code=ErrorCode.INTERNAL, message=repr(exc))
        )


def _route(gateway: "ProvenanceGateway", request: WireRequest) -> WireResponse:
    if request.method == "POST":
        return _route_post(gateway, request)
    if request.method == "GET":
        return _route_get(gateway, request)
    return error_response(
        ErrorCode.METHOD_NOT_ALLOWED, f"{request.method} {request.target}"
    )


def _route_post(gateway: "ProvenanceGateway", request: WireRequest) -> WireResponse:
    path = urlparse(request.target).path
    if len(request.body) > MAX_BODY_BYTES:
        return error_response(
            ErrorCode.BAD_REQUEST, f"body too large (> {MAX_BODY_BYTES} bytes)"
        )
    chat = _CHAT_PATH.match(path)
    if path == "/v1/sessions":
        return _handle_parsed(
            gateway, request, CreateSessionRequest, gateway.create_session
        )
    if chat is not None:
        session_id = unquote(chat.group(1))

        def run(payload: dict[str, Any]) -> Any:
            message = payload.get("message")
            if not isinstance(message, str):
                raise SchemaViolation("field 'message' must be a string")
            return gateway.chat(
                ChatRequest(session_id=session_id, message=message)
            )

        return _handle_raw(request, run)
    if path == "/v1/query":
        return _handle_parsed(
            gateway, request, QueryRequest, gateway.execute_query
        )
    if path in ("/v1/stats", "/v1/lineage") or _LINEAGE_PATH.match(path):
        return error_response(ErrorCode.METHOD_NOT_ALLOWED, f"GET {path}")
    return error_response(ErrorCode.NOT_FOUND, f"no route for POST {path}")


def _route_get(gateway: "ProvenanceGateway", request: WireRequest) -> WireResponse:
    parsed = urlparse(request.target)
    path = parsed.path
    lineage = _LINEAGE_PATH.match(path)
    if path == "/v1/stats":
        return _schema_response(gateway.stats())
    if lineage is not None:
        params = parse_qs(parsed.query)
        direction = params.get("direction", ["both"])[0]
        depth_raw = params.get("depth", [None])[0]
        depth: int | None = None
        if depth_raw is not None:
            try:
                depth = int(depth_raw)
            except ValueError:
                return error_response(
                    ErrorCode.BAD_REQUEST, f"bad depth {depth_raw!r}"
                )
        lineage_request = LineageRequest(
            task_id=unquote(lineage.group(1)), direction=direction, depth=depth
        )
        return _schema_response(gateway.lineage_view(lineage_request))
    if path in ("/v1/sessions", "/v1/query") or _CHAT_PATH.match(path):
        return error_response(ErrorCode.METHOD_NOT_ALLOWED, f"POST {path}")
    return error_response(ErrorCode.NOT_FOUND, f"no route for GET {path}")


def _wants_csv(request: WireRequest) -> bool:
    return "text/csv" in request.accept.lower()


def _handle_parsed(
    gateway: "ProvenanceGateway",
    request: WireRequest,
    schema: type,
    handler: Callable[[Any], Any],
) -> WireResponse:
    try:
        parsed = s.from_json(
            # provlint: disable=falsy-or-default - empty request body means an empty JSON object
            request.body or b"{}",
            schema,
        )
    except SchemaViolation as exc:
        code = (
            ErrorCode.MALFORMED_JSON
            if "malformed JSON" in str(exc)
            else ErrorCode.SCHEMA_VIOLATION
        )
        return error_response(code, str(exc))
    reply = handler(parsed)
    if isinstance(reply, QueryReply) and _wants_csv(request):
        content_type, text = gateway.render_csv(reply)
        if content_type == "text/csv":
            return WireResponse(200, "text/csv", text.encode())
        return WireResponse(406, content_type, text.encode())
    return _schema_response(reply)


def _handle_raw(
    request: WireRequest, run: Callable[[dict[str, Any]], Any]
) -> WireResponse:
    try:
        payload = json.loads(request.body or b"{}")  # provlint: disable=falsy-or-default - empty request body means an empty JSON object
        if not isinstance(payload, dict):
            raise SchemaViolation("payload must be a JSON object")
    except (ValueError, TypeError) as exc:
        return error_response(
            ErrorCode.MALFORMED_JSON, f"malformed JSON: {exc}"
        )
    try:
        reply = run(payload)
    except SchemaViolation as exc:
        return error_response(ErrorCode.SCHEMA_VIOLATION, str(exc))
    return _schema_response(reply)
