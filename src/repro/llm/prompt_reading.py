"""Prompt perception: what a simulated model sees in its prompt.

The model attends only to what the prompt contains.  This module parses
the assembled prompt text back into a :class:`PerceivedContext`:
which baseline instructions are present, which fields the dataflow
schema section lists, which example values are given, which guidelines
apply, and the user query itself.

A prompt is a prefix (every section but the last) plus the user-query
section, and only the second changes between turns, so the two are read
separately: :func:`perceive_prefix` once per distinct prefix — the LLM
server keeps the result the way a serving stack keeps a KV prefix cache
— and :func:`with_question` per turn.  :func:`perceive` is the two in
sequence.

Context-window truncation happens here too: when the prompt exceeds the
model's window, the *tail* of the schema/value sections is effectively
lost (provider-side truncation keeps the beginning).  That is the
mechanism behind the paper's LLaMA 3-8B failure on the chemistry
workflow, whose schema is wide and nested.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.llm import prompt_format as pf
from repro.llm.tokenizer import count_tokens

__all__ = ["PerceivedContext", "perceive", "perceive_prefix", "with_question"]


@dataclass
class PerceivedContext:
    """Everything the model can act on."""

    has_role: bool = False
    has_job: bool = False
    has_df_description: bool = False
    has_output_format: bool = False
    has_few_shot: bool = False
    schema_fields: set[str] = field(default_factory=set)
    field_types: dict[str, str] = field(default_factory=dict)
    value_examples: dict[str, list] = field(default_factory=dict)
    guidelines: list[str] = field(default_factory=list)
    few_shot_fields: set[str] = field(default_factory=set)
    user_query: str = ""
    prompt_tokens: int = 0
    truncated: bool = False

    @property
    def has_baseline(self) -> bool:
        """Role + job + DataFrame format + output formatting (Table 2)."""
        return (
            self.has_role
            and self.has_job
            and self.has_df_description
            and self.has_output_format
        )

    @property
    def has_schema(self) -> bool:
        return bool(self.schema_fields)

    @property
    def has_values(self) -> bool:
        return bool(self.value_examples)

    @property
    def has_guidelines(self) -> bool:
        return bool(self.guidelines)

    def activity_names(self) -> tuple[str, ...]:
        vals = self.value_examples.get("activity_id", [])
        return tuple(str(v) for v in vals)

    def signature(self) -> str:
        """Stable description of which components are present (for seeding)."""
        return "|".join(
            [
                "B" if self.has_baseline else "-",
                "F" if self.has_few_shot else "-",
                f"S{len(self.schema_fields)}" if self.schema_fields else "-",
                f"V{len(self.value_examples)}" if self.value_examples else "-",
                f"G{len(self.guidelines)}" if self.guidelines else "-",
                "T" if self.truncated else "-",
            ]
        )


def perceive(prompt: str, context_window: int) -> PerceivedContext:
    """Parse the prompt into a PerceivedContext, honouring the window."""
    prefix, question = pf.split_user_query(prompt)
    return with_question(perceive_prefix(prefix), prefix, question, context_window)


def perceive_prefix(prefix: str) -> PerceivedContext:
    """Everything before the user query: read once per distinct prefix."""
    ctx = _read(prefix)
    ctx.prompt_tokens = count_tokens(prefix)
    return ctx


def with_question(
    base: PerceivedContext, prefix: str, question: str, context_window: int
) -> PerceivedContext:
    """``base`` plus this turn's question section (``base`` is only read).

    ``prefix`` ends on a line break, so the two token counts add up to
    the whole prompt's.  A prompt over the window is read from its full
    text: what the model sees then depends on where the cut falls.
    """
    tokens = base.prompt_tokens + count_tokens(question)
    user_query = question[len(pf.SECTION_USER_QUERY) :].strip()
    if tokens <= context_window:
        return replace(base, user_query=user_query, prompt_tokens=tokens)
    # keep the fraction of the prompt that fits; the tail is lost
    prompt = prefix + question
    keep_chars = int(len(prompt) * (context_window / tokens))
    visible = prompt[:keep_chars]
    # the user query is appended last, but providers keep it by moving
    # it inside the window; simulate that by re-attaching it
    if question and keep_chars < len(prefix) + len(pf.SECTION_USER_QUERY):
        visible += f"\n{pf.SECTION_USER_QUERY}\n{user_query}\n"
    ctx = _read(visible)
    ctx.prompt_tokens = tokens
    ctx.truncated = True
    return ctx


def _read(text: str) -> PerceivedContext:
    """What the sections of ``text`` carry."""
    sections = pf.split_sections(text)
    ctx = PerceivedContext(
        has_role=pf.SECTION_ROLE in sections,
        has_job=pf.SECTION_JOB in sections,
        has_df_description=pf.SECTION_DF_DESCRIPTION in sections,
        has_output_format=pf.SECTION_OUTPUT_FORMAT in sections,
        user_query=sections.get(pf.SECTION_USER_QUERY, ""),
    )

    examples = sections.get(pf.SECTION_EXAMPLES)
    if examples:
        ctx.has_few_shot = True
        ctx.few_shot_fields = _fields_in_examples(examples)

    schema = pf.parse_json_body(sections.get(pf.SECTION_SCHEMA))
    if schema:
        fields = schema.get("fields", schema)
        for name, meta in fields.items():
            ctx.schema_fields.add(name)
            if isinstance(meta, dict) and "type" in meta:
                ctx.field_types[name] = str(meta["type"])

    values = pf.parse_json_body(sections.get(pf.SECTION_VALUES))
    if values:
        for name, examples_list in values.items():
            if isinstance(examples_list, list):
                ctx.value_examples[name] = examples_list

    guidelines = sections.get(pf.SECTION_GUIDELINES)
    if guidelines:
        ctx.guidelines = [
            line.lstrip("-• ").strip()
            for line in guidelines.splitlines()
            if line.strip() and line.strip() not in ("```",)
        ]
    return ctx


def _fields_in_examples(examples_text: str) -> set[str]:
    """Fields a model can imitate from the few-shot example code lines."""
    import re

    fields: set[str] = set()
    for match in re.finditer(r"df\[['\"]([\w.\-]+)['\"]\]", examples_text):
        fields.add(match.group(1))
    for match in re.finditer(
        r"(?:sort_values|groupby)\(\[?['\"]([\w.\-]+)['\"]", examples_text
    ):
        fields.add(match.group(1))
    return fields
