"""Prompt templates and the prompt builder (paper §5.2, Table 2).

A :class:`PromptConfig` switches each contextual component on or off;
:class:`PromptBuilder` assembles the final prompt from the agent's live
context structures.  The section bodies below are the evaluation's
*actual measured artifacts*: Figure 8's token counts come from counting
tokens of exactly these strings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.llm import prompt_format as pf

__all__ = ["PromptConfig", "PromptBuilder", "FEW_SHOT_EXAMPLES", "render_user_query"]


@dataclass(frozen=True)
class PromptConfig:
    """Which contextual components the prompt includes (Table 2 axes)."""

    role: bool = False
    job: bool = False
    df_description: bool = False
    output_format: bool = False
    few_shot: bool = False
    schema: bool = False
    schema_descriptions: bool = True
    values: bool = False
    guidelines: bool = False

    @property
    def label(self) -> str:
        if not any(
            (self.role, self.job, self.df_description, self.output_format)
        ):
            return "Nothing"
        parts = ["Baseline"]
        if self.few_shot:
            parts.append("FS")
        if self.schema:
            parts.append("Schema")
        if self.values:
            parts.append("Values")
        if self.guidelines:
            parts.append("Guidelines")
        if len(parts) == 5:
            return "Full"
        return "+".join(parts)

    def with_baseline(self) -> "PromptConfig":
        return replace(
            self, role=True, job=True, df_description=True, output_format=True
        )


_ROLE = (
    "You are a workflow provenance specialist embedded in a scientific "
    "computing facility. You understand W3C PROV concepts (entities, "
    "activities, agents), distributed workflow execution across the "
    "Edge-Cloud-HPC continuum, and runtime monitoring of tasks."
)

_JOB = (
    "Your job is to interpret the user's natural language question about "
    "live workflow provenance and translate it into a single structured "
    "query over the in-memory task buffer. Do not answer from memory; "
    "always produce a query that retrieves the evidence."
)

_DF_DESCRIPTION = (
    "The buffer is a DataFrame named df. Each row represents one task "
    "execution. Columns are flattened with dot notation: common fields "
    "(task_id, campaign_id, workflow_id, activity_id, status, hostname, "
    "started_at, ended_at, duration, type) plus application dataflow "
    "fields under used.* and generated.* and telemetry under "
    "telemetry_at_start.* / telemetry_at_end.*."
)

_OUTPUT_FORMAT = (
    "Return exactly one line of executable pandas-style code operating on "
    "df: filters df[...], sort_values, head/tail, groupby(...)[...].agg(), "
    "column aggregations like df['col'].mean(), or len(df[...]) for "
    "counts. No explanations, no markdown fences, no SQL, no prose."
)

FEW_SHOT_EXAMPLES: tuple[tuple[str, str], ...] = (
    (
        "How many tasks have finished?",
        "len(df[df['status'] == 'FINISHED'])",
    ),
    (
        "Show the five most recent tasks.",
        "df.sort_values('started_at', ascending=False).head(5)",
    ),
    (
        "Which tasks ran on host node-0?",
        "df[df['hostname'] == 'node-0'][['task_id', 'activity_id']]",
    ),
    (
        "Average duration per activity.",
        "df.groupby('activity_id')['duration'].mean()",
    ),
)


def render_user_query(user_query: str) -> str:
    """The one section that changes between turns; always last."""
    return pf.render_section(pf.SECTION_USER_QUERY, user_query)


class PromptBuilder:
    """Assembles prompts from the agent's context per a PromptConfig.

    A prompt is :meth:`prefix` — every section the context decides —
    plus :func:`render_user_query`; the live agent takes the prefix from
    :meth:`ContextManager.prompt_prefix
    <repro.agent.context_manager.ContextManager.prompt_prefix>`, which
    keeps it until the schema or the guidelines move.
    """

    def __init__(self, config: PromptConfig):
        self.config = config

    def prefix(
        self,
        *,
        schema_payload: Mapping[str, Any] | None = None,
        values_payload: Mapping[str, Any] | None = None,
        guidelines_text: str = "",
    ) -> str:
        cfg = self.config
        parts: list[str] = []
        if cfg.role:
            parts.append(pf.render_section(pf.SECTION_ROLE, _ROLE))
        if cfg.job:
            parts.append(pf.render_section(pf.SECTION_JOB, _JOB))
        if cfg.df_description:
            parts.append(
                pf.render_section(pf.SECTION_DF_DESCRIPTION, _DF_DESCRIPTION)
            )
        if cfg.output_format:
            parts.append(pf.render_section(pf.SECTION_OUTPUT_FORMAT, _OUTPUT_FORMAT))
        if cfg.few_shot:
            examples = "\n".join(
                f"NL: {nl}\nCode: {code}" for nl, code in FEW_SHOT_EXAMPLES
            )
            parts.append(pf.render_section(pf.SECTION_EXAMPLES, examples))
        if cfg.schema and schema_payload is not None:
            parts.append(pf.render_json_section(pf.SECTION_SCHEMA, schema_payload))
        if cfg.values and values_payload is not None:
            parts.append(pf.render_json_section(pf.SECTION_VALUES, values_payload))
        if cfg.guidelines and guidelines_text:
            parts.append(pf.render_section(pf.SECTION_GUIDELINES, guidelines_text))
        # sections are separated by one blank line, the last one included
        return "".join(f"{part}\n" for part in parts)

    def build(self, user_query: str, **context: Any) -> str:
        """``prefix(**context)`` plus the question."""
        return self.prefix(**context) + render_user_query(user_query)
