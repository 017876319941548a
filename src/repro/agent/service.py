"""AgentService: the multi-session agent gateway (paper §5.3, Fig. 4).

The paper's reference architecture serves *many* interactive users from
one agent deployment, and PROV-AGENT extends the same stack to fleets
of agents over a shared provenance substrate.  This module is that
service boundary in code:

* **shared infrastructure** — one tool registry, router,
  :class:`~repro.llm.service.LLMServer`, context manager, lineage
  index, MCP server, and versioned
  :class:`~repro.query.QueryCache` serve every session; all of them are
  thread-safe and none holds per-user state;
* **per-session state** — each :class:`~repro.agent.session.AgentSession`
  holds only its conversation history, prompt configuration, session
  guidelines, and recorder identity;
* **the turn pipeline** — :meth:`AgentService._execute_turn` is a
  stateless function of (shared infra, session, message): route the
  intent, invoke the tool with the session's context passed as per-call
  arguments, record the tool execution and LLM interaction as
  provenance under the session's identity, and assemble the
  :class:`~repro.agent.session.AgentReply`.

Concurrency model: :meth:`submit` enqueues a turn and returns a future;
a worker pool drains each session's queue with **per-session FIFO
ordering** (one turn of a session at a time, sessions freely
interleaved).  :meth:`chat` is the blocking form — the calling thread
helps drain its session's queue, so single-user callers (the
:class:`~repro.agent.agent.ProvenanceAgent` facade) never touch the
pool.  Replies do not depend on the interleaving
(``tests/agent/test_agent_service.py::test_replies_identical_across_interleavings``);
what a turn costs is the ``chat_session`` workload of ``BENCHMARK.json``.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable

from repro.agent.context_manager import ContextManager
from repro.agent.guidelines import GuidelineStore
from repro.agent.monitor import ContextMonitor
from repro.agent.nl_tokens import extract_ids, looks_id_shaped
from repro.agent.prompts import PromptConfig
from repro.agent.recorder import AgentProvenanceRecorder
from repro.agent.router import Intent, ToolRouter
from repro.agent.session import AgentReply, AgentSession
from repro.agent.tools.anomaly import AnomalyDetectorTool
from repro.agent.tools.base import Tool, ToolRegistry, ToolResult
from repro.agent.tools.db_query import DatabaseQueryTool
from repro.agent.tools.graph_query import GraphQueryTool
from repro.agent.tools.in_memory_query import FULL_CONTEXT, InMemoryQueryTool
from repro.agent.tools.plotting import PlottingTool
from repro.agent.tools.sql_query import SqlQueryTool
from repro.agent.tools.summarize import SummaryTool, summarize
from repro.agent.mcp.server import MCPServer
from repro.capture.context import CaptureContext
from repro.dataframe import DataFrame
from repro.lineage import LineageIndex, LineageService
from repro.llm.service import LLMServer
from repro.provenance.keeper import ProvenanceKeeper
from repro.provenance.query_api import QueryAPI
from repro.query.cache import QueryCache

__all__ = ["AgentService"]

#: default worker-pool width for :meth:`AgentService.submit`
DEFAULT_MAX_WORKERS = 8


class AgentService:
    """Gateway serving many concurrent chat sessions over shared infra."""

    def __init__(
        self,
        capture_context: CaptureContext,
        *,
        llm: LLMServer | None = None,
        model: str = "gpt-4",
        query_api: QueryAPI | None = None,
        lineage: LineageIndex | None = None,
        keeper: "ProvenanceKeeper | None" = None,
        prompt_config: PromptConfig = FULL_CONTEXT,
        agent_id: str = "provenance-agent",
        max_workers: int = DEFAULT_MAX_WORKERS,
        query_cache: QueryCache | None = None,
    ):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.capture_context = capture_context
        #: optional keeper whose ingest stats the MCP surface exposes;
        #: its lineage index is reused when no explicit one is given
        self.keeper = keeper
        # explicit None check: a fresh LLMServer with zero recorded
        # interactions can compare falsy, and must not be replaced
        self.llm = llm if llm is not None else LLMServer()
        self.model = model
        self.prompt_config = prompt_config
        self.agent_id = agent_id
        self.max_workers = max_workers
        self.context_manager = ContextManager(capture_context.broker).start()
        self.router = ToolRouter()
        self.registry = ToolRegistry()
        #: shared versioned result cache fronting the historical store
        # explicit None check: an empty cache has len() == 0 and is falsy
        self.query_cache = (
            query_cache
            if query_cache is not None
            else (query_api.cache if query_api is not None else QueryCache())
        )

        self.query_tool = InMemoryQueryTool(
            self.context_manager, self.llm, model=model, prompt_config=prompt_config
        )
        self.registry.register(self.query_tool)
        self.plot_tool = PlottingTool(self.query_tool)
        self.registry.register(self.plot_tool)
        self.anomaly_tool = AnomalyDetectorTool(
            self.context_manager, capture_context.broker
        )
        self.registry.register(self.anomaly_tool)
        self.registry.register(SummaryTool())
        if query_api is not None:
            self.db_tool: DatabaseQueryTool | None = DatabaseQueryTool(
                query_api, self.context_manager, self.llm, model=model,
                prompt_config=prompt_config, cache=self.query_cache,
            )
            self.registry.register(self.db_tool)
            # SQL arrives pre-written (no LLM, no prompt context), so the
            # tool needs only the store and the shared cache
            self.sql_tool: SqlQueryTool | None = SqlQueryTool(
                query_api, cache=self.query_cache
            )
            self.registry.register(self.sql_tool)
        else:
            self.db_tool = None
            self.sql_tool = None

        # live lineage: use the caller's index (e.g. one a keeper already
        # feeds) or run our own broker-fed service, replaying retained
        # history so lineage questions work on campaigns that ran before
        # the agent attached
        if lineage is None and keeper is not None:
            lineage = keeper.lineage_index
        if lineage is not None:
            self.lineage = lineage
            self.lineage_service: LineageService | None = None
        else:
            self.lineage_service = LineageService(capture_context.broker).start(
                replay=True
            )
            self.lineage = self.lineage_service.index
        self.graph_tool = GraphQueryTool(self.lineage)
        self.registry.register(self.graph_tool)

        self.monitor = ContextMonitor(self.context_manager)
        self.mcp = MCPServer(self.registry, server_name=agent_id)
        self.mcp.add_resource(
            "dataflow-schema", self.context_manager.schema_payload
        )
        self.mcp.add_resource("example-values", self.context_manager.values_payload)
        self.mcp.add_resource("lineage-stats", self._lineage_stats)
        self.mcp.add_resource("serving-stats", self.stats)
        if query_api is not None:
            # shares QueryAPI.counts, the same indexed tally the
            # monitoring surface uses for status breakdowns
            self.mcp.add_resource(
                "db-status-counts", lambda: query_api.counts("status")
            )
        self.mcp.add_resource(
            "guidelines",
            lambda: [g.text for g in self.context_manager.guidelines.all()],
        )

        self.sessions: dict[str, AgentSession] = {}
        self._sessions_lock = threading.Lock()
        self._session_counter = itertools.count(1)
        self._stats_lock = threading.Lock()
        self._turns_completed = 0
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._closed = False
        self._close_hooks: list[Callable[[], None]] = []

    # -- session management ------------------------------------------------------
    def create_session(
        self,
        session_id: str | None = None,
        *,
        prompt_config: PromptConfig | None = None,
        model: str | None = None,
        agent_id: str | None = None,
        workflow_id: str | None = None,
        guidelines: GuidelineStore | None = None,
    ) -> AgentSession:
        """Register a new conversation and return its session handle.

        Each session records provenance under its own identity
        (``<service agent_id>/<session_id>`` by default), so the stored
        tool executions and LLM interactions of different users stay
        attributable (§4.2).
        """
        if self._closed:
            raise RuntimeError("AgentService is closed")
        with self._sessions_lock:
            if session_id is None:
                session_id = f"session-{next(self._session_counter)}"
            if session_id in self.sessions:
                raise ValueError(f"session {session_id!r} already exists")
            return self._create_session_locked(
                session_id,
                prompt_config=prompt_config,
                model=model,
                agent_id=agent_id,
                workflow_id=workflow_id,
                guidelines=guidelines,
            )

    def _create_session_locked(
        self,
        session_id: str,
        *,
        prompt_config: PromptConfig | None = None,
        model: str | None = None,
        agent_id: str | None = None,
        workflow_id: str | None = None,
        guidelines: GuidelineStore | None = None,
    ) -> AgentSession:
        recorder = AgentProvenanceRecorder(
            self.capture_context,
            agent_id=(
                agent_id
                if agent_id is not None
                else f"{self.agent_id}/{session_id}"
            ),
            workflow_id=(
                workflow_id
                if workflow_id is not None
                else f"agent-session/{session_id}"
            ),
        )
        session = AgentSession(
            session_id,
            recorder=recorder,
            prompt_config=prompt_config or self.prompt_config,
            model=model or self.model,
            guidelines=guidelines,
        )
        self.sessions[session_id] = session
        return session

    def session(self, session_id: str) -> AgentSession:
        with self._sessions_lock:
            try:
                return self.sessions[session_id]
            except KeyError:
                raise KeyError(
                    f"unknown session {session_id!r}; create_session() first"
                ) from None

    def get_or_create_session(self, session_id: str) -> AgentSession:
        # atomic check-and-create: concurrent first requests for the
        # same user must both get the one session, not a ValueError
        with self._sessions_lock:
            existing = self.sessions.get(session_id)
            if existing is not None:
                return existing
            return self._create_session_locked(session_id)

    # -- serving -----------------------------------------------------------------
    def chat(self, session_id: str, message: str) -> AgentReply:
        """Execute one turn for ``session_id`` and block for the reply.

        The calling thread helps drain the session's queue, so this
        needs no pool for single-user use; concurrent callers on
        different sessions execute in parallel, while turns of one
        session keep strict submission order.
        """
        session = self.session(session_id)
        if session._drainer_thread == threading.get_ident():
            # re-entrant turn (a tool asking the agent mid-turn): run
            # inline — queueing would deadlock against ourselves
            return self._execute_turn(session, message)
        future = self._enqueue(session, message)
        self._drain(session)
        return future.result()

    def submit(self, session_id: str, message: str) -> "Future[AgentReply]":
        """Queue one turn for ``session_id``; resolves to its reply.

        Turns queued to the same session execute FIFO, one at a time;
        turns of different sessions run concurrently on the worker
        pool (bounded by ``max_workers``).
        """
        session = self.session(session_id)
        pool = self._get_pool()  # raises once closed
        future = self._enqueue(session, message)
        try:
            pool.submit(self._drain, session)
        except RuntimeError:
            # close() won the race: withdraw the turn so no future dangles
            with session._queue_lock:
                try:
                    session._pending.remove((message, future))
                except ValueError:
                    pass  # an active drainer already claimed it
            raise
        return future

    def _enqueue(self, session: AgentSession, message: str) -> "Future[AgentReply]":
        if self._closed:
            raise RuntimeError("AgentService is closed")
        future: "Future[AgentReply]" = Future()
        with session._queue_lock:
            session._pending.append((message, future))
        return future

    def _drain(self, session: AgentSession) -> None:
        """Serve ``session``'s queue until empty; one drainer at a time.

        The ``_draining`` flag is the per-session mutual exclusion: the
        thread that flips it owns the queue until it observes empty
        under the lock, so turns can never interleave within a session,
        and a queue check after the last pop cannot lose a wakeup.
        """
        ident = threading.get_ident()
        with session._queue_lock:
            if session._draining or not session._pending:
                return
            session._draining = True
            session._drainer_thread = ident
        try:
            while True:
                with session._queue_lock:
                    if not session._pending:
                        # release ownership in the same critical section
                        # as the emptiness check (no lost wakeups), and
                        # clear the drainer id with it — a later drainer
                        # may own the session the moment we release
                        session._draining = False
                        session._drainer_thread = None
                        return
                    message, future = session._pending.popleft()
                if not future.set_running_or_notify_cancel():
                    continue
                try:
                    reply = self._execute_turn(session, message)
                except BaseException as exc:  # noqa: BLE001 - future owns it
                    future.set_exception(exc)
                else:
                    future.set_result(reply)
        except BaseException:  # pragma: no cover - interpreter shutdown paths
            # never leave the session wedged with _draining stuck True
            with session._queue_lock:
                if session._drainer_thread == ident:
                    session._draining = False
                    session._drainer_thread = None
            raise

    def _get_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            # checked under the pool lock so a submit racing close()
            # cannot recreate (and leak) a pool after shutdown
            if self._closed:
                raise RuntimeError("AgentService is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="agent-turn"
                )
            return self._pool

    def add_close_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` at the *start* of :meth:`close`, before new work
        is rejected.

        Transports register their drain/stop here: a draining server's
        in-flight requests may still call :meth:`chat`, which must find
        the service open.  Hooks must be idempotent (the gateway
        transport's ``stop`` is); re-registering the same bound method
        is a no-op.
        """
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("AgentService is closed")
            if hook not in self._close_hooks:
                self._close_hooks.append(hook)

    def close(self) -> None:
        """Stop serving: drain transports and in-flight turns, then
        detach from the broker.

        Close is graceful and idempotent: first the registered close
        hooks run (transports drain — their in-flight requests finish
        against a still-open service, new ones are shed with 503), then
        turns accepted before close (their futures are out) complete —
        the pool finishes every drain already submitted to it, then a
        final inline sweep serves any queue whose pool drain lost the
        race with shutdown — and only then do the broker subscriptions
        detach.  New work is rejected from the moment the closed flag
        flips.  A second ``close()`` finds nothing to do and returns
        immediately.
        """
        with self._pool_lock:
            hooks, self._close_hooks = list(self._close_hooks), []
        for hook in hooks:
            try:
                hook()
            except Exception:  # noqa: BLE001; provlint: disable=exception-contract - a transport's failure to
                pass  # drain must not stop the service from closing
        with self._pool_lock:
            if self._closed:
                already = True
            else:
                already = False
                self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            # waits for every drain submitted before the flag flipped,
            # i.e. all pool-queued turns execute to completion
            pool.shutdown(wait=True)
        if already:
            return
        # sweep: a submit() that enqueued its turn but lost the
        # pool.submit race withdraws it and raises -- unless an active
        # drainer claimed it first; any turn still queued here is one
        # the service accepted, so serve it rather than strand a future
        with self._sessions_lock:
            sessions = list(self.sessions.values())
        for session in sessions:
            self._drain(session)
        self.context_manager.stop()
        if self.lineage_service is not None:
            self.lineage_service.stop()

    def __enter__(self) -> "AgentService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- bring your own tool -----------------------------------------------------
    def register_tool(self, tool: Tool) -> None:
        self.registry.register(tool)

    # -- MCP resources -----------------------------------------------------------
    def _lineage_stats(self) -> dict[str, Any]:
        """Live lineage stats, with keeper ingest and LLM serving accounting."""
        stats: dict[str, Any] = self.lineage.stats()
        if self.keeper is not None:
            stats["ingest"] = self.keeper.stats()
        stats["llm"] = self.llm.stats()
        return stats

    def stats(self) -> dict[str, Any]:
        """Serving snapshot: sessions, turns, LLM load, cache hit rates."""
        with self._sessions_lock:
            n_sessions = len(self.sessions)
            queued = sum(len(s._pending) for s in self.sessions.values())
        with self._stats_lock:
            turns = self._turns_completed
        return {
            "sessions": n_sessions,
            "turns_completed": turns,
            "turns_queued": queued,
            "max_workers": self.max_workers,
            "llm": self.llm.stats(),
            "query_cache": self.query_cache.stats(),
        }

    # -- the turn pipeline -------------------------------------------------------
    def _execute_turn(self, session: AgentSession, message: str) -> AgentReply:
        """One chat turn: route -> invoke -> record -> reply.

        Stateless over shared infrastructure: everything session-scoped
        (prompt config, guidelines, model, recorder identity) is passed
        down as arguments, so any worker thread can execute any
        session's next turn.
        """
        intent = self.router.classify(message)
        started = self.capture_context.clock.now()

        if intent == Intent.GREETING:
            reply = AgentReply(
                text=(
                    "Hello! I am the provenance agent. Ask me about running "
                    "or completed workflow tasks, their data, telemetry, or "
                    "where they ran."
                ),
                intent=intent,
            )
        elif intent == Intent.ADD_GUIDELINE:
            session.add_user_guideline(message)
            reply = AgentReply(
                text=(
                    "Understood — I stored that as a session guideline and "
                    "will apply it to future queries (it overrides any "
                    "conflicting earlier guideline)."
                ),
                intent=intent,
            )
        elif intent == Intent.VISUALIZATION:
            reply = self._tool_turn(session, self.plot_tool, message, intent)
        elif intent == Intent.LINEAGE_QUERY:
            reply = self._tool_turn(session, self.graph_tool, message, intent)
            if not reply.ok and not any(
                looks_id_shaped(t) for t in extract_ids(message)
            ):
                # traversal vocabulary around quoted free text (activity
                # names, guideline fragments) — not a real task id; the
                # LLM-backed monitoring tool answered these before the
                # lineage intent existed, so hand the question back to it
                intent = Intent.MONITORING_QUERY
                reply = self._tool_turn(session, self.query_tool, message, intent)
        elif intent == Intent.SQL_QUERY and self.sql_tool is not None:
            reply = self._tool_turn(session, self.sql_tool, message, intent)
        elif intent == Intent.HISTORICAL_QUERY and self.db_tool is not None:
            reply = self._tool_turn(session, self.db_tool, message, intent)
        else:
            if intent == Intent.SQL_QUERY:
                # no historical store attached: the monitoring tool answers
                intent = Intent.MONITORING_QUERY
            reply = self._tool_turn(session, self.query_tool, message, intent)

        ended = self.capture_context.clock.now()
        tool_name = {
            Intent.GREETING: "greeting",
            Intent.ADD_GUIDELINE: "add_guideline",
            Intent.VISUALIZATION: self.plot_tool.name,
            Intent.LINEAGE_QUERY: self.graph_tool.name,
            Intent.SQL_QUERY: getattr(self.sql_tool, "name", "sql"),
            Intent.HISTORICAL_QUERY: getattr(self.db_tool, "name", "db"),
            Intent.MONITORING_QUERY: self.query_tool.name,
        }[intent]
        tool_task_id = session.recorder.record_tool_execution(
            tool_name,
            {"message": message},
            {"ok": reply.ok, "summary": reply.text[:200]},
            started_at=started,
            ended_at=ended,
            failed=not reply.ok,
        )
        response = reply.details.get("llm_response")
        if response is not None:
            session.recorder.record_llm_interaction(
                response.model,
                message,
                response.text,
                started_at=started,
                ended_at=started + response.latency_s,
                informed_by=tool_task_id,
                prompt_tokens=response.prompt_tokens,
                output_tokens=response.output_tokens,
            )
        self.capture_context.flush()
        session.turns.append(reply)
        session.history.append((message, reply))
        with self._stats_lock:
            self._turns_completed += 1
        return reply

    # -- internals -----------------------------------------------------------------------
    def _tool_turn(
        self, session: AgentSession, tool: Tool, message: str, intent: Intent
    ) -> AgentReply:
        kwargs: dict[str, Any] = {"question": message}
        if tool.uses_llm:
            # the session's context travels per-call; the tool instance
            # stays stateless and shared
            kwargs["prompt_config"] = session.prompt_config
            kwargs["guidelines_text"] = session.guidelines_text()
            kwargs["model"] = session.model
        result: ToolResult = tool.invoke(**kwargs)
        if not result.ok:
            return AgentReply(
                text=(
                    f"I could not answer that: {result.summary}. "
                    f"The generated query was shown below so you can correct "
                    f"it or add a guideline."
                ),
                intent=intent,
                ok=False,
                code=result.code,
                error=result.error,
                details=dict(result.details),
            )
        chart = None
        table = None
        data = result.data
        if intent == Intent.VISUALIZATION:
            chart = data if isinstance(data, str) else None
            text = f"Here is the chart you asked for ({result.summary})."
        elif intent == Intent.LINEAGE_QUERY:
            # the graph tool's summary already names the traversal shape
            # ("4 task(s) upstream of ..."), which beats a generic row dump
            table = data if isinstance(data, DataFrame) else None
            # provlint: disable=falsy-or-default - an empty summary means "compute one"
            text = (result.summary or summarize(data, message)).rstrip(".") + "."
            text = text[0].upper() + text[1:]
        else:
            table = data if isinstance(data, DataFrame) else None
            text = summarize(data, message)
        return AgentReply(
            text=text,
            intent=intent,
            code=result.code,
            table=table,
            chart=chart,
            details=dict(result.details),
        )
