"""Post-hoc database query tool (offline/historical questions).

Same NL -> code -> execute pipeline as the in-memory tool, but the
frame comes from the persistent provenance database through the Query
API, so questions can span completed campaigns rather than the live
buffer.

Targeted questions stay fast at volume: the leading filters of the
generated pipeline are translated into a Mongo-style prefilter
(:func:`repro.query.pushdown.pipeline_prefilter`) and answered by the
storage backend's indexes — and, on a sharded store, routed to the
single shard a ``workflow_id`` equality names — so the DataFrame is
built only from candidate documents instead of the whole store.  If executing over the reduced
frame fails (e.g. a column that only exists on excluded documents), the
tool transparently retries against the unfiltered frame, so pushdown
never changes observable behaviour.

Repeated questions stay fast at traffic: a versioned
:class:`~repro.query.QueryCache` (shared with the Query API) memoises
the executed result keyed on ``(parsed query IR, base filter, store
version)``.  Keying on the *IR* — not the question text — means every
phrasing that parses to the same pipeline shares one entry across all
sessions, and the store-version component invalidates exactly when new
provenance arrives.  ``details["cache"]`` reports hit/miss per call.

Like the in-memory tool, the instance is shared across sessions: turns
pass ``prompt_config`` / ``guidelines_text`` / ``model`` as per-call
overrides, and the LLM response rides in
``details["llm_response"]``.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.agent.context_manager import ContextManager
from repro.agent.prompts import PromptConfig
from repro.agent.tools.base import Tool, ToolResult
from repro.agent.tools.in_memory_query import FULL_CONTEXT
from repro.errors import QueryExecutionError, QuerySyntaxError
from repro.llm.service import ChatRequest, LLMServer
from repro.provenance.query_api import QueryAPI
from repro.query import parse_query
from repro.query.cache import QueryCache, canonical_filter_key
from repro.query.engine import run_cached_pipeline

__all__ = ["DatabaseQueryTool"]


class DatabaseQueryTool(Tool):
    name = "provenance_db_query"
    description = (
        "Translate a natural-language question into a query over the "
        "persistent provenance database (historical, post-hoc analysis)."
    )
    uses_llm = True

    def __init__(
        self,
        query_api: QueryAPI,
        context_manager: ContextManager,
        llm: LLMServer,
        *,
        model: str = "gpt-4",
        prompt_config: PromptConfig = FULL_CONTEXT,
        base_filter: Mapping[str, Any] | None = None,
        pushdown: bool = True,
        cache: QueryCache | None = None,
    ):
        self.query_api = query_api
        self.context_manager = context_manager
        self.llm = llm
        self.model = model
        self.prompt_config = prompt_config
        # explicit None check: an empty filter means "every document"
        self.base_filter = dict(base_filter) if base_filter is not None else {
            "type": "task"
        }
        self.pushdown = pushdown
        #: result cache; defaults to the Query API's own, so tool and
        #: facade share one hit accounting per store
        self.cache = cache if cache is not None else query_api.cache
        self._base_filter_key = canonical_filter_key(self.base_filter)

    def input_schema(self) -> dict[str, Any]:
        return {
            "type": "object",
            "properties": {"question": {"type": "string"}},
            "required": ["question"],
        }

    def invoke(self, **kwargs: Any) -> ToolResult:
        question = str(kwargs.get("question", "")).strip()
        if not question:
            return ToolResult(ok=False, summary="empty question", error="no question")
        model = kwargs.get("model") or self.model
        prompt = self.context_manager.prompt(
            kwargs.get("prompt_config") or self.prompt_config,
            question,
            kwargs.get("guidelines_text"),
        )
        response = self.llm.complete(
            ChatRequest(model=model, prompt=prompt, query_id=question)
        )
        code = response.text.strip()
        try:
            pipeline = parse_query(code)
        except QuerySyntaxError as exc:
            return ToolResult(
                ok=False,
                summary="the model did not return a valid query",
                code=code,
                error=str(exc),
                details={"llm_response": response},
            )
        try:
            run = run_cached_pipeline(
                self.query_api,
                pipeline,
                base_filter=self.base_filter,
                base_filter_key=self._base_filter_key,
                cache=self.cache,
                pushdown=self.pushdown,
            )
        except QueryExecutionError as exc:
            return ToolResult(
                ok=False,
                summary="the generated query failed against the database",
                code=code,
                error=str(exc),
                details={"llm_response": response},
            )
        details: dict[str, Any] = {
            "cache": run.cache_state,
            "llm_response": response,
        }
        if run.pushdown is not None:
            details["pushdown"] = run.pushdown
        return ToolResult(
            ok=True,
            summary=run.summary,
            data=run.result,
            code=code,
            details=details,
        )
