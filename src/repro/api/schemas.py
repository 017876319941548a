"""Versioned request/response schemas for the provenance gateway.

The reference architecture puts the agent behind a service interface
that users and programs reach remotely (paper §2.3, §5.3).  Everything
that crosses that boundary is one of the frozen dataclasses in this
module, serialised with :func:`to_json` and parsed back with
:func:`from_json`.  The contract the gateway's tests (and the parity
benchmark) enforce:

* **round-trip exactness** — ``from_json(to_json(x)) == x`` for every
  schema, property-tested with hypothesis over arbitrary field values;
* **canonical bytes** — :func:`to_json` emits sorted-key, separator-free
  JSON, so the in-process client and the HTTP transport produce
  *byte-identical* payloads for the same request;
* **no tracebacks** — malformed payloads raise
  :class:`SchemaViolation`, which the gateway maps to a stable
  :class:`ErrorEnvelope` code (:data:`ErrorCode`), never a stack trace.

Schemas are versioned by the ``"type"`` tag each document carries
(``"v1/chat_request"`` etc.); a future ``v2`` adds new tags without
breaking ``v1`` consumers.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.errors import ReproError

__all__ = [
    "API_VERSION",
    "ErrorCode",
    "SchemaViolation",
    "FramePayload",
    "CreateSessionRequest",
    "SessionInfo",
    "ChatRequest",
    "ChatReply",
    "Cursor",
    "Page",
    "QueryRequest",
    "QueryReply",
    "LineageRequest",
    "LineageReply",
    "StatsReply",
    "ErrorEnvelope",
    "DIALECTS",
    "to_json",
    "to_jsonable",
    "from_json",
    "from_jsonable",
    "schema_type",
]

#: the one wire version this module defines
API_VERSION = "v1"

#: query dialects the unified ``/v1/query`` surface accepts
DIALECTS = ("filter", "pipeline", "graph", "sql")


class SchemaViolation(ReproError):
    """A payload does not satisfy its schema (wrong/missing/unknown field)."""


class ErrorCode:
    """Stable error codes carried by :class:`ErrorEnvelope`.

    These are wire contract: clients branch on them, so they never
    change meaning.  HTTP maps them to status codes
    (:data:`repro.api.routing.STATUS_BY_CODE`).
    """

    MALFORMED_JSON = "MALFORMED_JSON"
    SCHEMA_VIOLATION = "SCHEMA_VIOLATION"
    BAD_REQUEST = "BAD_REQUEST"
    UNKNOWN_DIALECT = "UNKNOWN_DIALECT"
    UNKNOWN_SESSION = "UNKNOWN_SESSION"
    SESSION_EXISTS = "SESSION_EXISTS"
    QUERY_SYNTAX = "QUERY_SYNTAX"
    QUERY_EXECUTION = "QUERY_EXECUTION"
    UNKNOWN_TASK = "UNKNOWN_TASK"
    CURSOR_INVALID = "CURSOR_INVALID"
    CURSOR_STALE = "CURSOR_STALE"
    NOT_FOUND = "NOT_FOUND"
    METHOD_NOT_ALLOWED = "METHOD_NOT_ALLOWED"
    NOT_ACCEPTABLE = "NOT_ACCEPTABLE"
    RATE_LIMITED = "RATE_LIMITED"
    OVERLOADED = "OVERLOADED"
    SERVICE_CLOSED = "SERVICE_CLOSED"
    INTERNAL = "INTERNAL"

    ALL = (
        MALFORMED_JSON,
        SCHEMA_VIOLATION,
        BAD_REQUEST,
        UNKNOWN_DIALECT,
        UNKNOWN_SESSION,
        SESSION_EXISTS,
        QUERY_SYNTAX,
        QUERY_EXECUTION,
        UNKNOWN_TASK,
        CURSOR_INVALID,
        CURSOR_STALE,
        NOT_FOUND,
        METHOD_NOT_ALLOWED,
        NOT_ACCEPTABLE,
        RATE_LIMITED,
        OVERLOADED,
        SERVICE_CLOSED,
        INTERNAL,
    )


# ---------------------------------------------------------------------------
# field validators (strict: wrong types raise SchemaViolation)
# ---------------------------------------------------------------------------


def _plain(value: Any) -> Any:
    """Coerce numpy scalars / odd leaves into JSON-plain python values."""
    if value is None or isinstance(value, (str, bool, int)):
        return value
    if isinstance(value, float):
        # NaN is not valid JSON and never equal to itself; provenance
        # frames use it for missing values -> map to null on the wire
        return None if value != value else value
    # numpy scalar family without importing numpy here
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _plain(item())
        except Exception:  # noqa: BLE001; provlint: disable=exception-contract - fall through to str
            pass
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return str(value)


def _is_scalar(value: Any) -> bool:
    return value is None or isinstance(value, (str, bool, int, float))


def _is_plain(value: Any) -> bool:
    """True for any JSON-plain value (scalar, or nested list/object)."""
    if _is_scalar(value):
        return True
    if isinstance(value, list):
        return all(_is_plain(v) for v in value)
    if isinstance(value, dict):
        return all(isinstance(k, str) and _is_plain(v) for k, v in value.items())
    return False


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise SchemaViolation(what)


def _str(data: Mapping[str, Any], name: str) -> str:
    v = data.get(name)
    _expect(isinstance(v, str), f"field {name!r} must be a string, got {v!r}")
    return v


def _opt_str(data: Mapping[str, Any], name: str) -> str | None:
    v = data.get(name)
    if v is None:
        return None
    _expect(isinstance(v, str), f"field {name!r} must be a string or null")
    return v


def _bool(data: Mapping[str, Any], name: str, default: bool | None = None) -> bool:
    v = data.get(name, default)
    _expect(isinstance(v, bool), f"field {name!r} must be a boolean")
    return v


def _opt_bool(data: Mapping[str, Any], name: str) -> bool | None:
    v = data.get(name)
    if v is None:
        return None
    _expect(isinstance(v, bool), f"field {name!r} must be a boolean or null")
    return v


def _opt_int(data: Mapping[str, Any], name: str) -> int | None:
    v = data.get(name)
    if v is None:
        return None
    _expect(isinstance(v, int) and not isinstance(v, bool),
            f"field {name!r} must be an integer or null")
    return v


def _int(data: Mapping[str, Any], name: str) -> int:
    v = data.get(name)
    _expect(isinstance(v, int) and not isinstance(v, bool),
            f"field {name!r} must be an integer")
    return v


def _opt_dict(data: Mapping[str, Any], name: str) -> dict[str, Any] | None:
    v = data.get(name)
    if v is None:
        return None
    _expect(isinstance(v, dict), f"field {name!r} must be an object or null")
    return v


def _dict(data: Mapping[str, Any], name: str) -> dict[str, Any]:
    v = data.get(name, None)
    _expect(isinstance(v, dict), f"field {name!r} must be an object")
    return v


def _check_keys(data: Mapping[str, Any], cls: type) -> None:
    allowed = {f.name for f in fields(cls)} | {"type"}
    unknown = set(data) - allowed
    _expect(not unknown,
            f"unknown field(s) for {cls.__name__}: {', '.join(sorted(unknown))}")


# ---------------------------------------------------------------------------
# payload fragments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FramePayload:
    """Wire form of a tabular result: column names + row tuples."""

    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]

    @classmethod
    def from_frame(cls, frame: Any) -> "FramePayload":
        """Build from a :class:`repro.dataframe.DataFrame` (values made plain)."""
        columns = tuple(frame.columns)
        rows = tuple(
            tuple(_plain(row[c]) for c in columns) for row in frame.to_dicts()
        )
        return cls(columns=columns, rows=rows)

    def to_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def to_frame(self) -> Any:
        from repro.dataframe import DataFrame

        return DataFrame.from_records(self.to_dicts())

    def to_csv(self) -> str:
        """RFC-4180-ish CSV (the ``text/csv`` content negotiation form)."""
        def cell(v: Any) -> str:
            if v is None:
                return ""
            s = str(v)
            if any(ch in s for ch in ',"\n\r'):
                s = '"' + s.replace('"', '""') + '"'
            return s

        lines = [",".join(cell(c) for c in self.columns)]
        lines.extend(",".join(cell(v) for v in row) for row in self.rows)
        return "\r\n".join(lines) + "\r\n"

    def _jsonable(self) -> dict[str, Any]:
        return {
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
        }

    @classmethod
    def _parse(cls, data: Mapping[str, Any]) -> "FramePayload":
        _check_keys(data, cls)
        cols = data.get("columns")
        rows = data.get("rows")
        _expect(isinstance(cols, list) and all(isinstance(c, str) for c in cols),
                "field 'columns' must be a list of strings")
        _expect(isinstance(rows, list), "field 'rows' must be a list")
        parsed_rows = []
        for i, row in enumerate(rows):
            _expect(isinstance(row, list) and len(row) == len(cols),
                    f"row {i} must be a list of {len(cols)} values")
            _expect(all(_is_plain(v) for v in row),
                    f"row {i} must contain only JSON-plain values")
            parsed_rows.append(tuple(row))
        return cls(columns=tuple(cols), rows=tuple(parsed_rows))


@dataclass(frozen=True)
class Page:
    """Pagination envelope attached to frame-shaped query results."""

    offset: int
    total: int
    returned: int
    next_cursor: str | None = None

    @classmethod
    def _parse(cls, data: Mapping[str, Any]) -> "Page":
        _check_keys(data, cls)
        return cls(
            offset=_int(data, "offset"),
            total=_int(data, "total"),
            returned=_int(data, "returned"),
            next_cursor=_opt_str(data, "next_cursor"),
        )


@dataclass(frozen=True)
class Cursor:
    """Opaque-on-the-wire resume point for paginated query results.

    ``fingerprint`` pins the cursor to the exact query that produced it;
    ``version`` pins it to the store version the first page was computed
    against — any write in between invalidates the cursor
    (:data:`ErrorCode.CURSOR_STALE`), because offsets into a changed
    result set are meaningless.
    """

    fingerprint: str
    offset: int
    version: int

    def encode(self) -> str:
        raw = json.dumps(
            {"f": self.fingerprint, "o": self.offset, "v": self.version},
            sort_keys=True, separators=(",", ":"),
        ).encode()
        return base64.urlsafe_b64encode(raw).decode().rstrip("=")

    @classmethod
    def decode(cls, token: str) -> "Cursor":
        try:
            padded = token + "=" * (-len(token) % 4)
            data = json.loads(base64.urlsafe_b64decode(padded.encode()))
            cursor = cls(
                fingerprint=str(data["f"]),
                offset=int(data["o"]),
                version=int(data["v"]),
            )
        except Exception as exc:  # noqa: BLE001 - any garbage is invalid
            raise SchemaViolation(f"invalid cursor token: {exc}") from None
        # tokens are client-forgeable: a negative offset would wrap
        # python slicing around the result set
        if cursor.offset < 0 or cursor.version < 0:
            raise SchemaViolation("invalid cursor token: negative field")
        return cursor


# ---------------------------------------------------------------------------
# requests / responses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CreateSessionRequest:
    session_id: str | None = None
    model: str | None = None

    @classmethod
    def _parse(cls, data: Mapping[str, Any]) -> "CreateSessionRequest":
        _check_keys(data, cls)
        return cls(
            session_id=_opt_str(data, "session_id"),
            model=_opt_str(data, "model"),
        )


@dataclass(frozen=True)
class SessionInfo:
    session_id: str
    model: str
    turn_count: int = 0

    @classmethod
    def _parse(cls, data: Mapping[str, Any]) -> "SessionInfo":
        _check_keys(data, cls)
        return cls(
            session_id=_str(data, "session_id"),
            model=_str(data, "model"),
            turn_count=_int(data, "turn_count") if "turn_count" in data else 0,
        )


@dataclass(frozen=True)
class ChatRequest:
    session_id: str
    message: str

    @classmethod
    def _parse(cls, data: Mapping[str, Any]) -> "ChatRequest":
        _check_keys(data, cls)
        return cls(
            session_id=_str(data, "session_id"),
            message=_str(data, "message"),
        )


@dataclass(frozen=True)
class ChatReply:
    """Deterministic reply anatomy (text, code, table, chart) for one turn.

    Volatile per-call details (LLM latency, cache hit/miss) stay off the
    wire so the in-process and HTTP transports return byte-identical
    payloads for the same conversation.
    """

    session_id: str
    text: str
    intent: str
    ok: bool = True
    code: str | None = None
    error: str | None = None
    chart: str | None = None
    table: FramePayload | None = None

    @classmethod
    def _parse(cls, data: Mapping[str, Any]) -> "ChatReply":
        _check_keys(data, cls)
        table = data.get("table")
        return cls(
            session_id=_str(data, "session_id"),
            text=_str(data, "text"),
            intent=_str(data, "intent"),
            ok=_bool(data, "ok", True),
            code=_opt_str(data, "code"),
            error=_opt_str(data, "error"),
            chart=_opt_str(data, "chart"),
            table=FramePayload._parse(table) if table is not None else None,
        )


@dataclass(frozen=True)
class QueryRequest:
    """One query, in one of four dialects, through one surface.

    * ``dialect="filter"`` — a Mongo-style ``filter`` document plus
      optional ``sort`` / ``limit`` (the Query API surface);
    * ``dialect="pipeline"`` — pandas-like query ``code`` compiled
      through the query IR (the agent's generated-code surface);
    * ``dialect="graph"`` — a lineage traversal named by ``operation``
      (+ ``task_id`` / ``target`` / ``depth`` / ``workflow_id``);
    * ``dialect="sql"`` — a SELECT statement in ``sql``, compiled onto
      the same query IR as the pipeline dialect (shared cache entries);
      ``explain=True`` returns the compiled plan instead of executing.

    ``page_size`` / ``cursor`` paginate frame-shaped results in any
    dialect.
    """

    dialect: str
    filter: dict[str, Any] | None = None
    sort: tuple[tuple[str, int], ...] | None = None
    limit: int | None = None
    code: str | None = None
    sql: str | None = None
    explain: bool | None = None
    operation: str | None = None
    task_id: str | None = None
    target: str | None = None
    depth: int | None = None
    workflow_id: str | None = None
    page_size: int | None = None
    cursor: str | None = None

    @classmethod
    def _parse(cls, data: Mapping[str, Any]) -> "QueryRequest":
        _check_keys(data, cls)
        sort = data.get("sort")
        parsed_sort: tuple[tuple[str, int], ...] | None = None
        if sort is not None:
            _expect(isinstance(sort, list), "field 'sort' must be a list")
            pairs = []
            for item in sort:
                _expect(
                    isinstance(item, list) and len(item) == 2
                    and isinstance(item[0], str)
                    and isinstance(item[1], int) and not isinstance(item[1], bool)
                    and item[1] in (1, -1),
                    "each sort entry must be [field, 1|-1]",
                )
                pairs.append((item[0], item[1]))
            parsed_sort = tuple(pairs)
        return cls(
            dialect=_str(data, "dialect"),
            filter=_opt_dict(data, "filter"),
            sort=parsed_sort,
            limit=_opt_int(data, "limit"),
            code=_opt_str(data, "code"),
            sql=_opt_str(data, "sql"),
            explain=_opt_bool(data, "explain"),
            operation=_opt_str(data, "operation"),
            task_id=_opt_str(data, "task_id"),
            target=_opt_str(data, "target"),
            depth=_opt_int(data, "depth"),
            workflow_id=_opt_str(data, "workflow_id"),
            page_size=_opt_int(data, "page_size"),
            cursor=_opt_str(data, "cursor"),
        )

    def _jsonable(self) -> dict[str, Any]:
        out = _default_jsonable(self)
        if self.sort is not None:
            out["sort"] = [list(p) for p in self.sort]
        return out


@dataclass(frozen=True)
class QueryReply:
    """Result of one :class:`QueryRequest`, shape-tagged by ``kind``.

    ``kind="frame"`` carries ``frame`` (+ ``page``); ``kind="scalar"``
    carries ``scalar``; ``kind="records"`` carries ``records`` (list of
    grouped/aggregated result objects).
    """

    dialect: str
    kind: str
    summary: str | None = None
    frame: FramePayload | None = None
    scalar: Any = None
    records: tuple[dict[str, Any], ...] | None = None
    page: Page | None = None

    @classmethod
    def _parse(cls, data: Mapping[str, Any]) -> "QueryReply":
        _check_keys(data, cls)
        frame = data.get("frame")
        page = data.get("page")
        records = data.get("records")
        parsed_records: tuple[dict[str, Any], ...] | None = None
        if records is not None:
            _expect(isinstance(records, list)
                    and all(isinstance(r, dict) for r in records),
                    "field 'records' must be a list of objects")
            parsed_records = tuple(records)
        scalar = data.get("scalar")
        _expect(_is_scalar(scalar) or isinstance(scalar, (list, dict)),
                "field 'scalar' must be a JSON value")
        return cls(
            dialect=_str(data, "dialect"),
            kind=_str(data, "kind"),
            summary=_opt_str(data, "summary"),
            frame=FramePayload._parse(frame) if frame is not None else None,
            scalar=scalar,
            records=parsed_records,
            page=Page._parse(page) if page is not None else None,
        )

    def _jsonable(self) -> dict[str, Any]:
        out = _default_jsonable(self)
        if self.records is not None:
            out["records"] = [dict(r) for r in self.records]
        return out


@dataclass(frozen=True)
class LineageRequest:
    task_id: str
    direction: str = "both"  # "upstream" | "downstream" | "both"
    depth: int | None = None

    @classmethod
    def _parse(cls, data: Mapping[str, Any]) -> "LineageRequest":
        _check_keys(data, cls)
        return cls(
            task_id=_str(data, "task_id"),
            direction=_str(data, "direction") if "direction" in data else "both",
            depth=_opt_int(data, "depth"),
        )


@dataclass(frozen=True)
class LineageReply:
    task_id: str
    upstream: tuple[str, ...] = ()
    downstream: tuple[str, ...] = ()
    node: dict[str, Any] | None = None

    @classmethod
    def _parse(cls, data: Mapping[str, Any]) -> "LineageReply":
        _check_keys(data, cls)
        up = data.get("upstream", [])
        down = data.get("downstream", [])
        for name, v in (("upstream", up), ("downstream", down)):
            _expect(isinstance(v, list) and all(isinstance(t, str) for t in v),
                    f"field {name!r} must be a list of strings")
        return cls(
            task_id=_str(data, "task_id"),
            upstream=tuple(up),
            downstream=tuple(down),
            node=_opt_dict(data, "node"),
        )

    def _jsonable(self) -> dict[str, Any]:
        out = _default_jsonable(self)
        out["upstream"] = list(self.upstream)
        out["downstream"] = list(self.downstream)
        return out


@dataclass(frozen=True)
class StatsReply:
    """Gateway-level serving snapshot (also the MCP serving resource).

    ``endpoints`` carries per-endpoint latency percentiles (same shape
    as ``LLMServer.stats()``: ``requests`` / ``latency_p50_s`` /
    ``latency_p90_s`` / ``latency_p99_s`` / ``latency_max_s``);
    ``admission`` carries the transport's admission-control counters
    (accepted / rate_limited / overloaded / queued high watermark) when
    an :class:`~repro.api.admission.AdmissionController` is attached;
    ``pushdown`` carries per-query operator-pushdown decisions for the
    pipeline/sql dialects (``decisions`` counters keyed
    ``pushed:<mode>`` / ``fallback:<mode>`` / ``classic`` /
    ``cache-hit``, scan/payload totals, and the ``last`` decision).
    """

    sessions: int
    turns_completed: int
    requests: dict[str, int] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)
    query_cache: dict[str, Any] = field(default_factory=dict)
    llm: dict[str, Any] = field(default_factory=dict)
    endpoints: dict[str, Any] = field(default_factory=dict)
    admission: dict[str, Any] = field(default_factory=dict)
    pushdown: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def _parse(cls, data: Mapping[str, Any]) -> "StatsReply":
        _check_keys(data, cls)
        return cls(
            sessions=_int(data, "sessions"),
            turns_completed=_int(data, "turns_completed"),
            requests=_dict(data, "requests") if "requests" in data else {},
            errors=_dict(data, "errors") if "errors" in data else {},
            query_cache=_dict(data, "query_cache") if "query_cache" in data else {},
            llm=_dict(data, "llm") if "llm" in data else {},
            endpoints=_dict(data, "endpoints") if "endpoints" in data else {},
            admission=_dict(data, "admission") if "admission" in data else {},
            pushdown=_dict(data, "pushdown") if "pushdown" in data else {},
        )


@dataclass(frozen=True)
class ErrorEnvelope:
    """The one failure shape: a stable code, a message, optional detail."""

    code: str
    message: str
    detail: dict[str, Any] | None = None

    @classmethod
    def _parse(cls, data: Mapping[str, Any]) -> "ErrorEnvelope":
        _check_keys(data, cls)
        code = _str(data, "code")
        _expect(code in ErrorCode.ALL, f"unknown error code {code!r}")
        return cls(
            code=code,
            message=_str(data, "message"),
            detail=_opt_dict(data, "detail"),
        )


# ---------------------------------------------------------------------------
# serialisation
# ---------------------------------------------------------------------------

#: type tag -> schema class (the dispatch table for :func:`from_json`)
SCHEMA_TYPES: dict[str, type] = {
    f"{API_VERSION}/create_session_request": CreateSessionRequest,
    f"{API_VERSION}/session_info": SessionInfo,
    f"{API_VERSION}/chat_request": ChatRequest,
    f"{API_VERSION}/chat_reply": ChatReply,
    f"{API_VERSION}/query_request": QueryRequest,
    f"{API_VERSION}/query_reply": QueryReply,
    f"{API_VERSION}/lineage_request": LineageRequest,
    f"{API_VERSION}/lineage_reply": LineageReply,
    f"{API_VERSION}/stats_reply": StatsReply,
    f"{API_VERSION}/error": ErrorEnvelope,
    f"{API_VERSION}/frame": FramePayload,
    f"{API_VERSION}/page": Page,
}

_TYPE_BY_CLASS = {cls: tag for tag, cls in SCHEMA_TYPES.items()}


def schema_type(obj: Any) -> str:
    """The wire type tag (``"v1/..."``) for a schema instance."""
    try:
        return _TYPE_BY_CLASS[type(obj)]
    except KeyError:
        raise SchemaViolation(f"not an API schema: {type(obj).__name__}") from None


def _default_jsonable(obj: Any) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, FramePayload):
            value = value._jsonable()
        elif isinstance(value, Page):
            value = _default_jsonable(value)
        out[f.name] = value
    return out


def to_jsonable(obj: Any) -> dict[str, Any]:
    """Schema instance -> plain dict carrying its ``"type"`` tag."""
    tag = schema_type(obj)
    maker = getattr(obj, "_jsonable", None)
    data = maker() if maker is not None else _default_jsonable(obj)
    data["type"] = tag
    return data


def to_json(obj: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace, no NaN.

    Canonical bytes are the parity contract: the in-process client and
    the HTTP server both emit exactly this text for the same response.
    """
    return json.dumps(
        to_jsonable(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def from_jsonable(data: Any, expected: type | None = None) -> Any:
    """Parse a tagged payload dict into its schema instance (strict)."""
    if not isinstance(data, Mapping):
        raise SchemaViolation(
            f"payload must be a JSON object, got {type(data).__name__}"
        )
    tag = data.get("type")
    if expected is not None and tag is None:
        # tag-less payloads are accepted when the route implies the type
        # (e.g. the body of POST /v1/sessions/{id}/chat)
        return expected._parse(data)
    if not isinstance(tag, str) or tag not in SCHEMA_TYPES:
        raise SchemaViolation(f"unknown payload type {tag!r}")
    cls = SCHEMA_TYPES[tag]
    if expected is not None and cls is not expected:
        raise SchemaViolation(
            f"expected {_TYPE_BY_CLASS[expected]!r}, got {tag!r}"
        )
    return cls._parse(data)


def from_json(text: str | bytes, expected: type | None = None) -> Any:
    """JSON text -> schema instance; :class:`SchemaViolation` on bad input."""
    try:
        data = json.loads(text)
    except (ValueError, TypeError) as exc:
        raise SchemaViolation(f"malformed JSON: {exc}") from None
    return from_jsonable(data, expected)


def render_query_csv(reply: Any) -> tuple[str, str]:
    """Content-negotiated ``text/csv`` rendering of a query outcome.

    Returns ``(content_type, body)``.  Frame-shaped replies render as
    CSV; every other outcome (scalar results, error envelopes) renders
    as its canonical JSON with the appropriate content type, so the
    in-process client and the HTTP transport emit identical bytes.
    """
    if isinstance(reply, QueryReply) and reply.frame is not None:
        return "text/csv", reply.frame.to_csv()
    if isinstance(reply, QueryReply):
        envelope = ErrorEnvelope(
            code=ErrorCode.NOT_ACCEPTABLE,
            message=(
                f"text/csv requested but the result kind is "
                f"{reply.kind!r}, not a frame"
            ),
        )
        return "application/json", to_json(envelope)
    return "application/json", to_json(reply)
