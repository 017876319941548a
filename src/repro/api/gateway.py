"""ProvenanceGateway: one versioned surface over agent, query, lineage.

Before this layer, every consumer bound to in-process objects and three
disjoint query dialects: Mongo-style filter documents on
:class:`~repro.provenance.query_api.QueryAPI`, pandas-like pipeline
strings through the agent's database tool, and method calls on
:class:`~repro.lineage.LineageIndex`.  The gateway redesigns that into
one request/response schema layer (:mod:`repro.api.schemas`) routed here:

* **chat** — :class:`~repro.api.schemas.ChatRequest` onto
  :meth:`AgentService.chat`, replies reduced to their deterministic
  anatomy (text / code / table / chart) so transports are comparable
  byte-for-byte;
* **query** — :meth:`execute_query` accepts all four dialects through
  one entry point and one stage sequence (:mod:`repro.api.stages`).
  The dialect only chooses the compiler, never the store or the cache:
  ``filter`` hits the Query API's cached frame materialisation,
  ``pipeline`` and ``sql`` compile onto the same query IR — one
  executor, one pushdown path, and :class:`~repro.query.QueryCache`
  entries shared with each other and with the NL database tool — and
  ``graph`` routes onto the structured
  :class:`~repro.agent.tools.graph_query.GraphQueryTool` surface;
* **pagination** — frame-shaped results page through
  :class:`~repro.api.schemas.Cursor` tokens pinned to the query
  fingerprint *and* the store version: a write between pages makes the
  cursor stale (:data:`ErrorCode.CURSOR_STALE`) instead of silently
  shifting rows.  Cursors live client-side, so they survive a server
  restart; against a durable store
  (:class:`repro.storage.DurableStore`) the recovery epoch bump makes
  every pre-restart cursor come back ``CURSOR_STALE`` — never a
  silently wrong page over recovered contents;
* **stats** — per-endpoint request/error counters merged with the
  serving layer's snapshot, published as the MCP ``serving-stats``
  resource.

Every public method returns a schema instance — on failure an
:class:`~repro.api.schemas.ErrorEnvelope` with a stable code, never an
exception — which is what lets the HTTP transport
(:mod:`repro.api.aio`) and the in-process client stay trivially thin.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Any, TYPE_CHECKING

from repro.api import schemas as s
from repro.api.schemas import (
    ChatReply,
    ChatRequest,
    CreateSessionRequest,
    ErrorCode,
    ErrorEnvelope,
    FramePayload,
    LineageReply,
    LineageRequest,
    QueryReply,
    QueryRequest,
    SessionInfo,
    StatsReply,
)
from repro.api.stages import DIALECT_STAGES, QueryContext, error_parts, page, validate
from repro.errors import ProvenanceError
from repro.query.cache import canonical_filter_key
from repro.utils.reservoir import LatencyReservoir

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.agent.service import AgentService
    from repro.agent.session import AgentReply
    from repro.api.admission import AdmissionController
    from repro.provenance.query_api import QueryAPI
    from repro.query.engine import PipelineRun

__all__ = ["ProvenanceGateway", "DEFAULT_PAGE_SIZE"]

#: page size used when a cursor continues a query that never set one
DEFAULT_PAGE_SIZE = 100


class ProvenanceGateway:
    """Transport-agnostic front door over one :class:`AgentService`."""

    def __init__(
        self,
        service: "AgentService",
        *,
        query_api: "QueryAPI | None" = None,
        base_filter: dict[str, Any] | None = None,
        default_page_size: int = DEFAULT_PAGE_SIZE,
        publish_mcp: bool = True,
    ):
        self.service = service
        db_tool = service.db_tool
        self.query_api = query_api or (
            db_tool.query_api if db_tool is not None else None
        )
        # explicit None check: an empty filter means "every document"
        if base_filter is None:
            base_filter = (
                db_tool.base_filter if db_tool is not None else {"type": "task"}
            )
        #: documents the pipeline dialect executes over, mirroring the
        #: database tool so both surfaces share cache entries
        self.base_filter = dict(base_filter)
        #: canonical form of ``base_filter``, computed once: the middle
        #: component of every ``("db_query", ..., pipeline)`` cache key
        self.base_filter_key = canonical_filter_key(self.base_filter)
        self.default_page_size = default_page_size
        self._lock = threading.Lock()
        self._requests: dict[str, int] = {}
        self._errors: dict[str, int] = {}
        self._latency: dict[str, LatencyReservoir] = {}
        #: operator-pushdown decisions for pipeline/sql executions:
        #: counters keyed pushed:<mode> / fallback:<mode> / classic /
        #: cache-hit, plus scatter-payload totals and the last decision
        self._pushdown_decisions: dict[str, int] = {}
        self._pushdown_totals: dict[str, int] = {
            "rows_scanned": 0, "payload_docs": 0, "payload_cells": 0,
        }
        self._pushdown_last: dict[str, Any] | None = None
        #: admission controller of the serving transport, when one is
        #: attached — its shed/queue counters ride the stats reply
        self._admission: "AdmissionController | None" = None
        if publish_mcp:
            # the serving snapshot now includes gateway traffic; the MCP
            # resource follows the front door
            service.mcp.add_resource("serving-stats", self.stats_payload)
            service.mcp.add_resource("gateway-stats", self.stats_payload)

    # -- accounting ------------------------------------------------------------
    def _count(self, endpoint: str) -> None:
        with self._lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1

    def _observe(self, endpoint: str, elapsed_s: float) -> None:
        with self._lock:
            reservoir = self._latency.get(endpoint)
            if reservoir is None:
                reservoir = self._latency[endpoint] = LatencyReservoir()
            reservoir.add(elapsed_s)

    def attach_admission(self, admission: "AdmissionController") -> None:
        """Surface a transport's admission counters in :meth:`stats`.

        Called by :meth:`repro.api.aio.AsyncGatewayServer.start`; the
        last transport to attach wins (one serving transport per gateway
        is the deployment shape).
        """
        self._admission = admission

    def _error(self, envelope: ErrorEnvelope) -> ErrorEnvelope:
        with self._lock:
            self._errors[envelope.code] = self._errors.get(envelope.code, 0) + 1
        return envelope

    def _fail(
        self, code: str, message: str, detail: dict[str, Any] | None = None
    ) -> ErrorEnvelope:
        return self._error(ErrorEnvelope(code=code, message=message, detail=detail))

    # -- sessions ----------------------------------------------------------------
    def create_session(
        self, request: CreateSessionRequest
    ) -> SessionInfo | ErrorEnvelope:
        self._count("sessions")
        started = perf_counter()
        try:
            session = self.service.create_session(
                request.session_id, model=request.model
            )
        except ValueError as exc:
            return self._fail(ErrorCode.SESSION_EXISTS, str(exc))
        except RuntimeError as exc:
            return self._fail(ErrorCode.SERVICE_CLOSED, str(exc))
        except Exception as exc:  # noqa: BLE001 - API boundary
            return self._fail(ErrorCode.INTERNAL, repr(exc))
        finally:
            self._observe("sessions", perf_counter() - started)
        return SessionInfo(
            session_id=session.session_id,
            model=session.model,
            turn_count=session.turn_count,
        )

    def session_info(self, session_id: str) -> SessionInfo | ErrorEnvelope:
        try:
            session = self.service.session(session_id)
        except KeyError as exc:
            return self._fail(ErrorCode.UNKNOWN_SESSION, str(exc.args[0]))
        return SessionInfo(
            session_id=session.session_id,
            model=session.model,
            turn_count=session.turn_count,
        )

    # -- chat --------------------------------------------------------------------
    def chat_native(self, session_id: str, message: str) -> "AgentReply":
        """One turn through the gateway, returning the rich in-process
        reply (DataFrame table, tool details).

        This is the path the :class:`~repro.agent.agent.ProvenanceAgent`
        facade rides; remote transports use :meth:`chat`, which reduces
        the same reply to its wire form.
        """
        self._count("chat")
        started = perf_counter()
        try:
            return self.service.chat(session_id, message)
        finally:
            self._observe("chat", perf_counter() - started)

    def chat(self, request: ChatRequest) -> ChatReply | ErrorEnvelope:
        try:
            reply = self.chat_native(request.session_id, request.message)
        except KeyError as exc:
            return self._fail(ErrorCode.UNKNOWN_SESSION, str(exc.args[0]))
        except RuntimeError as exc:
            return self._fail(ErrorCode.SERVICE_CLOSED, str(exc))
        except Exception as exc:  # noqa: BLE001 - API boundary
            return self._fail(ErrorCode.INTERNAL, repr(exc))
        return ChatReply(
            session_id=request.session_id,
            text=reply.text,
            intent=reply.intent.value,
            ok=reply.ok,
            code=reply.code,
            error=reply.error,
            chart=reply.chart,
            table=(
                FramePayload.from_frame(reply.table)
                if reply.table is not None
                else None
            ),
        )

    # -- the unified query surface ----------------------------------------------
    def execute_query(self, request: QueryRequest) -> QueryReply | ErrorEnvelope:
        """Execute one :class:`QueryRequest` in any dialect.

        The orchestrator of :mod:`repro.api.stages`: every dialect runs
        the same stage sequence over one :class:`QueryContext` and lands
        on the same versioned infrastructure — the dialect only chooses
        the *compile* stage, never the store or the cache.  Counting,
        timing and the mapping of a stage's exception onto an
        :class:`ErrorEnvelope` happen here and nowhere else.
        """
        self._count("query")
        started = perf_counter()
        try:
            ctx = QueryContext(self, request)
            validate(ctx)
            compile_, explain, execute = DIALECT_STAGES[request.dialect]
            compile_(ctx)
            if request.explain:
                summary, detail = explain(ctx)
                return QueryReply(
                    dialect=request.dialect,
                    kind="explain",
                    summary=summary,
                    scalar=detail,
                )
            execute(ctx)
            return page(ctx)
        except Exception as exc:  # noqa: BLE001 - API boundary: no tracebacks
            return self._fail(*error_parts(exc))
        finally:
            self._observe("query", perf_counter() - started)

    def record_pushdown(self, run: "PipelineRun") -> None:
        """Fold one execution's pushdown decision into the stats counters."""
        info = run.pushdown
        if info is None:
            key = "cache-hit" if run.cache_state == "hit" else "classic"
        elif "fallback" in info:
            key = f"fallback:{info['mode']}"
        else:
            key = f"pushed:{info['mode']}"
        with self._lock:
            self._pushdown_decisions[key] = (
                self._pushdown_decisions.get(key, 0) + 1
            )
            if info is not None:
                for stat in self._pushdown_totals:
                    if stat in info:
                        self._pushdown_totals[stat] += int(info[stat])
                self._pushdown_last = dict(info)

    # -- lineage view -------------------------------------------------------------
    def lineage_view(self, request: LineageRequest) -> LineageReply | ErrorEnvelope:
        self._count("lineage")
        started = perf_counter()
        try:
            return self._lineage_view(request)
        finally:
            self._observe("lineage", perf_counter() - started)

    def _lineage_view(self, request: LineageRequest) -> LineageReply | ErrorEnvelope:
        if request.direction not in ("upstream", "downstream", "both"):
            return self._fail(
                ErrorCode.BAD_REQUEST,
                f"direction must be upstream|downstream|both, "
                f"got {request.direction!r}",
            )
        index = self.service.lineage
        try:
            upstream: tuple[str, ...] = ()
            downstream: tuple[str, ...] = ()
            if request.direction in ("upstream", "both"):
                upstream = tuple(
                    sorted(index.upstream(request.task_id, max_depth=request.depth))
                )
            if request.direction in ("downstream", "both"):
                downstream = tuple(
                    sorted(index.downstream(request.task_id, max_depth=request.depth))
                )
        except ProvenanceError as exc:
            return self._fail(ErrorCode.UNKNOWN_TASK, str(exc))
        except Exception as exc:  # noqa: BLE001 - API boundary
            return self._fail(ErrorCode.INTERNAL, repr(exc))
        node = {
            k: s._plain(v) for k, v in index.node(request.task_id).items()
        } or None
        return LineageReply(
            task_id=request.task_id,
            upstream=upstream,
            downstream=downstream,
            node=node,
        )

    # -- stats -------------------------------------------------------------------
    def stats(self) -> StatsReply:
        self._count("stats")
        started = perf_counter()
        service_stats = self.service.stats()
        admission = self._admission
        with self._lock:
            requests = dict(self._requests)
            errors = dict(self._errors)
            endpoints = {
                name: {"requests": reservoir.count, **reservoir.snapshot()}
                for name, reservoir in sorted(self._latency.items())
            }
            pushdown = {
                "decisions": dict(self._pushdown_decisions),
                "totals": dict(self._pushdown_totals),
                "last": (
                    dict(self._pushdown_last)
                    if self._pushdown_last is not None
                    else None
                ),
            }
        reply = StatsReply(
            sessions=service_stats["sessions"],
            turns_completed=service_stats["turns_completed"],
            requests=requests,
            errors=errors,
            query_cache=service_stats["query_cache"],
            llm=service_stats["llm"],
            endpoints=endpoints,
            admission=admission.snapshot() if admission is not None else {},
            pushdown=pushdown,
        )
        self._observe("stats", perf_counter() - started)
        return reply

    def stats_payload(self) -> dict[str, Any]:
        """Plain-dict stats for MCP resource reads."""
        return s.to_jsonable(self.stats())

    # -- content negotiation -----------------------------------------------------
    def render_csv(self, reply: Any) -> tuple[str, str]:
        """``(content_type, body)`` for a CSV-negotiated query outcome.

        The HTTP routing core renders through here so a ``NOT_ACCEPTABLE``
        rendering (CSV of a non-frame result) lands in the gateway's
        per-code error counters like every other failure.
        """
        content_type, text = s.render_query_csv(reply)
        if (
            content_type == "application/json"
            and isinstance(reply, QueryReply)
        ):
            with self._lock:
                self._errors[ErrorCode.NOT_ACCEPTABLE] = (
                    self._errors.get(ErrorCode.NOT_ACCEPTABLE, 0) + 1
                )
        return content_type, text
