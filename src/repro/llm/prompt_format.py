"""Prompt format contract.

The agent's prompt builder (:mod:`repro.agent.prompts`) assembles
prompts from sections with the markers below; the simulated models
(:mod:`repro.llm.prompt_reading`) perceive exactly what those sections
contain.  Keeping both sides on one format module guarantees the
causal link the evaluation measures: a context component influences a
model **only** if its section is actually present in the prompt text.

Structured payloads (schema, example values) are embedded as JSON blocks
so the perceiving side recovers precisely the fields the prompt carried
— no more, no less.

Only what the builder rendered is structure: a section starts at a line
that *is* its marker, :func:`render_section` indents any such line
inside a body (user guidelines and questions are free text), and the
user-query section — always last — runs to the end of the prompt.  So a
prompt is ``prefix + question section`` and :func:`split_user_query`
takes it apart exactly where the builder joined it.
"""

from __future__ import annotations

import json
import re
from typing import Any, Mapping

__all__ = [
    "SECTION_ROLE",
    "SECTION_JOB",
    "SECTION_DF_DESCRIPTION",
    "SECTION_OUTPUT_FORMAT",
    "SECTION_EXAMPLES",
    "SECTION_SCHEMA",
    "SECTION_VALUES",
    "SECTION_GUIDELINES",
    "SECTION_USER_QUERY",
    "render_section",
    "render_json_section",
    "split_user_query",
    "split_sections",
    "parse_json_body",
]

SECTION_ROLE = "## Role"
SECTION_JOB = "## Job"
SECTION_DF_DESCRIPTION = "## DataFrame description"
SECTION_OUTPUT_FORMAT = "## Output format"
SECTION_EXAMPLES = "## Examples"
SECTION_SCHEMA = "## Dynamic dataflow schema"
SECTION_VALUES = "## Example field values"
SECTION_GUIDELINES = "## Query guidelines"
SECTION_USER_QUERY = "## User query"

_ALL_SECTIONS = (
    SECTION_ROLE,
    SECTION_JOB,
    SECTION_DF_DESCRIPTION,
    SECTION_OUTPUT_FORMAT,
    SECTION_EXAMPLES,
    SECTION_SCHEMA,
    SECTION_VALUES,
    SECTION_GUIDELINES,
    SECTION_USER_QUERY,
)
_MARKER_LINE = re.compile(
    "^(?:%s)$" % "|".join(map(re.escape, _ALL_SECTIONS)), re.MULTILINE
)
_USER_QUERY_HEAD = f"{SECTION_USER_QUERY}\n"


def render_section(marker: str, body: str) -> str:
    body = _MARKER_LINE.sub(r" \g<0>", body.strip())
    return f"{marker}\n{body}\n"


def render_json_section(marker: str, payload: Mapping[str, Any]) -> str:
    body = json.dumps(payload, indent=1, sort_keys=True, default=str)
    return f"{marker}\n```json\n{body}\n```\n"


def split_user_query(prompt: str) -> tuple[str, str]:
    """``(prefix, question section)``; the second is ``""`` when absent."""
    if prompt.startswith(_USER_QUERY_HEAD):
        return "", prompt
    cut = prompt.find("\n" + _USER_QUERY_HEAD) + 1
    return (prompt[:cut], prompt[cut:]) if cut else (prompt, "")


def split_sections(text: str) -> dict[str, str]:
    """Body of every section in ``text``, keyed by marker (first one wins)."""
    sections: dict[str, str] = {}
    marks = list(_MARKER_LINE.finditer(text))
    for mark, following in zip(marks, [*marks[1:], None]):
        marker = mark.group()
        last = following is None or marker == SECTION_USER_QUERY
        end = len(text) if last else following.start()
        sections.setdefault(marker, text[mark.end() : end].strip())
        if last:
            break
    return sections


def parse_json_body(body: str | None) -> dict[str, Any] | None:
    """The payload of a :func:`render_json_section` body; None if unreadable."""
    if body is None:
        return None
    text = body
    if text.startswith("```json"):
        text = text[len("```json") :]
    text = text.strip().strip("`").strip()
    # tolerate a trailing fence that strip("`") already removed
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None
