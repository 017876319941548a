"""The stages of one ``/v1/query`` request.

:meth:`ProvenanceGateway.execute_query
<repro.api.gateway.ProvenanceGateway.execute_query>` runs every request
through one fixed sequence over one :class:`QueryContext`::

    validate -> compile[dialect] -> explain | execute -> page

A *dialect* is a row of :data:`DIALECT_STAGES`: a **compile** stage
turning request fields into the operation the later stages share
(``filter`` into a Mongo-style document, ``pipeline`` and ``sql`` into
the same query-IR :class:`~repro.query.ast.Pipeline`, ``graph`` into a
traversal operation) plus that operation's explain and execute stages.
Key, cache and plan live below execute, in
:func:`~repro.query.engine.run_cached_pipeline`.  Stages never build an
:class:`~repro.api.schemas.ErrorEnvelope`: they raise, and the
orchestrator maps the exception once through :func:`error_parts`.

The order keeps a cache hit cheap: compile answers from the statement
memo, execute from the versioned cache, and page fingerprints only a
paginated request and otherwise reuses the payload kept on the entry.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Any, Callable, TYPE_CHECKING

from repro.api import schemas as s
from repro.api.schemas import (
    Cursor,
    DIALECTS,
    ErrorCode,
    FramePayload,
    Page,
    QueryReply,
    QueryRequest,
)
from repro.dataframe import DataFrame
from repro.errors import QueryExecutionError, QuerySyntaxError
from repro.query import parse_query, render_query
from repro.query.cache import store_version
from repro.query.engine import pipeline_cache_key, run_cached_pipeline
from repro.query.partial import step_label
from repro.query.pushdown import merge_filters, pipeline_prefilter, plan_pushdown
from repro.sql import SqlError, SqlSyntaxError, compile_sql

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.gateway import ProvenanceGateway

__all__ = [
    "DIALECT_STAGES", "QueryContext", "Rejected", "error_parts", "page", "validate",
]

#: the request fields each dialect reads
_DIALECT_FIELDS: dict[str, tuple[str, ...]] = {
    "filter": ("filter", "sort", "limit"),
    "pipeline": ("code",),
    "sql": ("sql",),
    "graph": ("operation", "task_id", "target", "depth", "workflow_id"),
}
#: ... and the ones that belong to the OTHER dialects, whose presence is
#: a BAD_REQUEST, never a silent no-op
_FOREIGN_FIELDS = {
    dialect: tuple(
        name
        for other, names in _DIALECT_FIELDS.items()
        if other != dialect
        for name in names
    )
    for dialect in _DIALECT_FIELDS
}


class Rejected(Exception):
    """A stage refused the request; carries the envelope's fields."""

    def __init__(
        self, code: str, message: str, detail: dict[str, Any] | None = None
    ):
        super().__init__(message)
        self.code = code
        self.message = message
        self.detail = detail


def error_parts(exc: Exception) -> tuple[str, str, dict[str, Any] | None]:
    """``(code, message, detail)`` of the envelope a stage failure maps to."""
    if isinstance(exc, Rejected):
        return exc.code, exc.message, exc.detail
    if isinstance(exc, SqlError):
        # a syntax error is malformed SQL; resolution / unsupported-feature
        # failures are well-formed SQL the subset rejects, with a pointed
        # reason — both carry line/column and a caret snippet
        code = (
            ErrorCode.QUERY_SYNTAX
            if isinstance(exc, SqlSyntaxError)
            else ErrorCode.BAD_REQUEST
        )
        return code, str(exc), exc.diagnostic()
    if isinstance(exc, QuerySyntaxError):
        return ErrorCode.QUERY_SYNTAX, str(exc), None
    if isinstance(exc, QueryExecutionError):
        return ErrorCode.QUERY_EXECUTION, str(exc), None
    # API boundary: no tracebacks on the wire
    return ErrorCode.INTERNAL, repr(exc), None


class QueryContext:
    """One request on its way through the stages."""

    __slots__ = ("gateway", "request", "op", "result", "summary", "version", "entry")

    def __init__(self, gateway: "ProvenanceGateway", request: QueryRequest):
        self.gateway = gateway
        self.request = request
        #: compile output: filter document, IR pipeline, or graph operation
        self.op: Any = None
        #: execute output: the result, its one-line summary, the version
        #: stamp a cursor pins to, and the cache entry behind the result
        self.result = self.summary = self.version = self.entry = None


# -- validate ----------------------------------------------------------------
def validate(ctx: QueryContext) -> None:
    request = ctx.request
    if request.dialect not in DIALECTS:
        raise Rejected(
            ErrorCode.UNKNOWN_DIALECT,
            f"unknown dialect {request.dialect!r}; "
            f"expected one of {', '.join(DIALECTS)}",
        )
    if request.page_size is not None and request.page_size < 1:
        raise Rejected(
            ErrorCode.BAD_REQUEST,
            f"page_size must be >= 1, got {request.page_size}",
        )
    if request.limit is not None and request.limit < 0:
        raise Rejected(
            ErrorCode.BAD_REQUEST, f"limit must be >= 0, got {request.limit}"
        )
    # fields from another dialect are rejected, not silently ignored: a
    # client sending limit= with a pipeline query must not believe the
    # limit was applied
    stray = [
        name
        for name in _FOREIGN_FIELDS[request.dialect]
        if getattr(request, name) is not None
    ]
    if stray:
        raise Rejected(
            ErrorCode.BAD_REQUEST,
            f"field(s) {', '.join(stray)} do not apply to the "
            f"{request.dialect!r} dialect",
        )


def _require_store(ctx: QueryContext, who: str) -> None:
    if ctx.gateway.query_api is None:
        raise Rejected(
            ErrorCode.BAD_REQUEST,
            f"no historical store attached; {who} a QueryAPI",
        )


# -- filter dialect: Mongo-style documents over the Query API ------------------
def _compile_filter(ctx: QueryContext) -> None:
    _require_store(ctx, "filter/pipeline dialects need")
    ctx.op = ctx.request.filter if ctx.request.filter is not None else {}


def _explain_filter(ctx: QueryContext) -> tuple[str, dict[str, Any]]:
    # the filter dialect has no pipeline to push; its explain is the
    # store's own access plan (index/scan + shard routing)
    query_api = ctx.gateway.query_api
    return "explain: filter access plan", {
        "filter": s._plain(dict(ctx.op)),
        "plan": s._plain(query_api.explain(ctx.op)),
        "store_version": store_version(query_api.database),
    }


def _execute_filter(ctx: QueryContext) -> None:
    request, query_api = ctx.request, ctx.gateway.query_api
    # version BEFORE the read, so a cursor never pins a page to a stamp
    # newer than the rows it was cut from
    ctx.version = store_version(query_api.database)
    frame = query_api.to_frame(ctx.op)
    if request.sort:
        keys = [k for k, _ in request.sort]
        ascending = [direction >= 0 for _, direction in request.sort]
        try:
            frame = frame.sort_values(keys, ascending)
        except Exception as exc:  # noqa: BLE001 - bad sort column
            raise Rejected(ErrorCode.QUERY_EXECUTION, str(exc)) from None
    if request.limit is not None:
        frame = frame.head(request.limit)
    ctx.result = frame


# -- pipeline / sql dialects: text compiled onto the shared query IR ---------------
def _compile_pipeline(ctx: QueryContext) -> None:
    _require_store(ctx, "filter/pipeline dialects need")
    if not ctx.request.code:
        raise Rejected(ErrorCode.BAD_REQUEST, "pipeline dialect needs a 'code' field")
    ctx.op = parse_query(ctx.request.code)


def _compile_sql(ctx: QueryContext) -> None:
    _require_store(ctx, "the sql dialect needs")
    if not ctx.request.sql:
        raise Rejected(ErrorCode.BAD_REQUEST, "sql dialect needs a 'sql' field")
    ctx.op = compile_sql(ctx.request.sql)


def _explain_ir(ctx: QueryContext) -> tuple[str, dict[str, Any]]:
    """Compile-then-plan without executing: the compiled IR, the
    pushdown prefilter, the operator-pushdown plan (which steps run
    shard-side vs at the coordinator), the store's routing-aware plan,
    and whether the shared cache already holds this pipeline's result."""
    gateway, request, pipeline = ctx.gateway, ctx.request, ctx.op
    query_api = gateway.query_api
    version = store_version(query_api.database)
    prefilter = pipeline_prefilter(pipeline)
    key = pipeline_cache_key(gateway.base_filter_key, pipeline)
    cached = (
        key is not None
        and version is not None
        and gateway.service.query_cache.peek(key, version)
    )
    detail: dict[str, Any] = {
        "pipeline": render_query(pipeline),
        "steps": pipeline.describe(),
        "pushdown": s._plain(prefilter),
        "plan": s._plain(
            query_api.explain(merge_filters(gateway.base_filter, prefilter))
        ),
        "cache": "hit" if cached else "miss",
        "store_version": version,
    }
    if request.sql is not None:
        detail["sql"] = request.sql
    if request.code is not None:
        detail["code"] = request.code
    plan = (
        plan_pushdown(pipeline, gateway.base_filter)
        if getattr(query_api.database, "execute_partial", None)
        else None
    )
    detail["pushdown_mode"] = plan.mode if plan is not None else None
    detail["pushed_steps"] = list(plan.pushed_steps) if plan is not None else []
    detail["coordinator_steps"] = (
        list(plan.coordinator_steps)
        if plan is not None
        else [step_label(step) for step in pipeline.steps]
    )
    return f"explain: {pipeline.describe()}", detail


def _execute_ir(ctx: QueryContext) -> None:
    gateway = ctx.gateway
    run = run_cached_pipeline(
        gateway.query_api,
        ctx.op,
        base_filter=gateway.base_filter,
        base_filter_key=gateway.base_filter_key,
        cache=gateway.service.query_cache,
    )
    gateway.record_pushdown(run)
    ctx.result, ctx.summary = run.result, run.summary
    ctx.version, ctx.entry = run.version, run.entry


# -- graph dialect: structured traversal over the lineage index --------------------
def _compile_graph(ctx: QueryContext) -> None:
    if not ctx.request.operation:
        raise Rejected(
            ErrorCode.BAD_REQUEST, "graph dialect needs an 'operation' field"
        )
    ctx.op = ctx.request.operation


def _graph_version(ctx: QueryContext) -> int | None:
    counter = getattr(ctx.gateway.service.lineage, "applied_count", None)
    return int(counter) if counter is not None else None


def _explain_graph(ctx: QueryContext) -> tuple[str, dict[str, Any]]:
    # graph answers come straight from the in-memory lineage index —
    # there is no scatter path and nothing to push down
    return f"explain: graph {ctx.op}", {
        "operation": ctx.op,
        "source": "lineage-index",
        "pushdown_mode": None,
        "pushed_steps": [],
        "coordinator_steps": [f"graph:{ctx.op}"],
        "index_version": _graph_version(ctx),
    }


def _execute_graph(ctx: QueryContext) -> None:
    request = ctx.request
    # graph cursors pin to the index's monotonic applied-document
    # counter: an index update between pages goes CURSOR_STALE exactly
    # like a store write does for the other dialects
    ctx.version = _graph_version(ctx)
    result = ctx.gateway.service.graph_tool.invoke(
        operation=ctx.op,
        task_id=request.task_id,
        target=request.target,
        depth=request.depth,
        workflow_id=request.workflow_id,
    )
    if not result.ok:
        error = result.error or result.summary
        if "unknown task" in (error or ""):
            raise Rejected(ErrorCode.UNKNOWN_TASK, error)
        raise Rejected(ErrorCode.BAD_REQUEST, f"{result.summary}: {error}")
    ctx.result, ctx.summary = result.data, result.summary


#: dialect -> its (compile, explain, execute) stages; the rest is shared
DIALECT_STAGES: dict[str, tuple[Callable[[QueryContext], Any], ...]] = {
    "filter": (_compile_filter, _explain_filter, _execute_filter),
    "pipeline": (_compile_pipeline, _explain_ir, _execute_ir),
    "sql": (_compile_sql, _explain_ir, _execute_ir),
    "graph": (_compile_graph, _explain_graph, _execute_graph),
}


# -- page: shape the executed result into the reply ---------------------------
def _fingerprint(request: QueryRequest) -> str:
    """What a cursor pins to: the request minus its paging fields."""
    pinned = replace(request, page_size=None, cursor=None)
    return hashlib.sha256(s.to_json(pinned).encode()).hexdigest()[:16]


def page(ctx: QueryContext) -> QueryReply:
    request, frame = ctx.request, ctx.result
    if not isinstance(frame, DataFrame):
        return QueryReply(
            dialect=request.dialect,
            kind="scalar",
            summary=ctx.summary,
            scalar=s._plain(frame),
        )
    total = len(frame)
    offset, next_cursor = 0, None
    if request.page_size is None and request.cursor is None:
        # unpaginated: the whole result in one reply.  Its wire form
        # depends only on the immutable frame, so it is built once per
        # cache entry and every later hit reuses it.
        returned, entry = total, ctx.entry
        payload = entry.payload if entry is not None else None
        if payload is None:
            payload = FramePayload.from_frame(frame)
            if entry is not None:
                entry.payload = payload
    else:
        fingerprint = _fingerprint(request)
        pinned_version = ctx.version if ctx.version is not None else 0
        if request.cursor is not None:
            offset = _resume_offset(request.cursor, fingerprint, pinned_version)
        size = request.page_size or ctx.gateway.default_page_size
        end = min(offset + size, total)
        window = (
            frame.take(list(range(offset, end))) if offset < total else frame.head(0)
        )
        returned = len(window)
        if offset + returned < total:
            next_cursor = Cursor(
                fingerprint=fingerprint,
                offset=offset + returned,
                version=pinned_version,
            ).encode()
        payload = FramePayload.from_frame(window)
    return QueryReply(
        dialect=request.dialect,
        kind="frame",
        summary=ctx.summary,
        frame=payload,
        page=Page(
            offset=offset, total=total, returned=returned, next_cursor=next_cursor
        ),
    )


def _resume_offset(token: str, fingerprint: str, pinned_version: int) -> int:
    """The offset a cursor resumes at, if it is this query's and fresh."""
    try:
        cursor = Cursor.decode(token)
    except s.SchemaViolation as exc:
        raise Rejected(ErrorCode.CURSOR_INVALID, str(exc)) from None
    if cursor.fingerprint != fingerprint:
        raise Rejected(ErrorCode.CURSOR_INVALID, "cursor does not belong to this query")
    if cursor.version != pinned_version:
        raise Rejected(
            ErrorCode.CURSOR_STALE,
            "the store changed since this cursor was issued; "
            "restart the query from the first page",
            detail={"cursor_version": cursor.version, "store_version": pinned_version},
        )
    return cursor.offset
