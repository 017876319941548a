"""In-memory context query tool: the agent's main monitoring path.

NL question -> full-context prompt -> LLM -> query code -> parse ->
execute on the Context Manager's live frame.  The generated code and
any runtime error are part of the result, mirroring the paper's GUI
that "displays the code generated and executed on the in-memory
DataFrame, including any runtime errors".

The tool instance is **shared infrastructure**: one instance serves
every session behind :class:`~repro.agent.service.AgentService`, so a
turn passes its session's context — ``prompt_config``,
``guidelines_text``, ``model`` — as per-call overrides instead of the
tool holding per-user state.  The LLM response that produced the
answer rides along in ``ToolResult.details["llm_response"]`` so the
caller can record the interaction without reaching into tool state.
"""

from __future__ import annotations

from typing import Any

from repro.agent.context_manager import ContextManager
from repro.agent.prompts import PromptConfig
from repro.agent.tools.base import Tool, ToolResult
from repro.errors import QueryExecutionError, QuerySyntaxError
from repro.llm.service import ChatRequest, LLMServer
from repro.query import execute_query, parse_query
from repro.query.engine import describe_result

__all__ = ["InMemoryQueryTool", "FULL_CONTEXT"]

#: the production agent always runs with the full Table-2 context
FULL_CONTEXT = PromptConfig(
    few_shot=True, schema=True, values=True, guidelines=True
).with_baseline()


class InMemoryQueryTool(Tool):
    name = "in_memory_context_query"
    description = (
        "Translate a natural-language question into a DataFrame query and "
        "run it against the live in-memory provenance buffer."
    )
    uses_llm = True

    def __init__(
        self,
        context_manager: ContextManager,
        llm: LLMServer,
        *,
        model: str = "gpt-4",
        prompt_config: PromptConfig = FULL_CONTEXT,
        max_retries: int = 2,
    ):
        self.context_manager = context_manager
        self.llm = llm
        self.model = model
        self.prompt_config = prompt_config
        self.max_retries = max_retries

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

        cm = self.context_manager
        model = kwargs.get("model") or self.model
        prompt = cm.prompt(
            kwargs.get("prompt_config") or self.prompt_config,
            question,
            kwargs.get("guidelines_text"),
        )
        frame = cm.to_frame()

        # Degenerate-result auto-retry: a projected column that comes back
        # entirely null almost always means the model bound a sibling field
        # (used.* vs generated.*); re-asking usually self-corrects.  This is
        # the lightweight precursor of the paper's envisioned "auto-fixer"
        # agent (§5.4).
        last_error: ToolResult | None = None
        for attempt in range(self.max_retries + 1):
            response = self.llm.complete(
                ChatRequest(
                    model=model, prompt=prompt, query_id=question, rep=attempt
                )
            )
            code = response.text.strip()
            try:
                pipeline = parse_query(code)
            except QuerySyntaxError as exc:
                last_error = ToolResult(
                    ok=False,
                    summary="the model did not return a valid query",
                    code=code,
                    error=str(exc),
                    details={
                        "latency_s": response.latency_s,
                        "attempts": attempt + 1,
                        "llm_response": response,
                    },
                )
                continue
            try:
                result = execute_query(pipeline, frame)
            except QueryExecutionError as exc:
                last_error = ToolResult(
                    ok=False,
                    summary="the generated query failed at runtime",
                    code=code,
                    error=str(exc),
                    details={
                        "latency_s": response.latency_s,
                        "attempts": attempt + 1,
                        "llm_response": response,
                    },
                )
                continue
            if _degenerate(result) and attempt < self.max_retries:
                continue
            return ToolResult(
                ok=True,
                summary=_describe(result),
                data=result,
                code=code,
                details={
                    "latency_s": response.latency_s,
                    "prompt_tokens": response.prompt_tokens,
                    "output_tokens": response.output_tokens,
                    "attempts": attempt + 1,
                    "llm_response": response,
                },
            )
        assert last_error is not None
        return last_error


def _degenerate(result: Any) -> bool:
    """A non-empty frame with some column entirely null (misbind symptom)."""
    from repro.dataframe import DataFrame

    if isinstance(result, DataFrame) and len(result) > 0:
        for name in result.columns:
            col = result.column(name)
            if all(v is None for v in col.to_list()):
                return True
    return False


# shared with the database tool and the gateway's pipeline/sql dialects
_describe = describe_result
