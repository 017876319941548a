"""Tests for the intent registry and the prompt-format contract."""

from __future__ import annotations

from repro.llm import prompt_format as pf
from repro.llm.generation import QueryTraits
from repro.llm.intents import (
    clear_registry,
    lookup_intent,
    lookup_traits,
    register_intent,
    registered_count,
)
from repro.query import parse_query


class TestIntentRegistry:
    def setup_method(self):
        self._count = registered_count()

    def test_register_and_lookup(self):
        p = parse_query("df['duration'].max()")
        register_intent("What is the longest duration?", p)
        assert lookup_intent("What is the longest duration?") == p

    def test_lookup_normalises_case_and_punctuation(self):
        p = parse_query("len(df)")
        register_intent("How many tasks are there?", p)
        assert lookup_intent("how many tasks are there") == p
        assert lookup_intent("  How Many   Tasks Are There?! ") == p

    def test_traits_roundtrip(self):
        traits = QueryTraits(traps=("entity_scoping",), workload="OLTP")
        register_intent("count the parent atoms", parse_query("len(df)"), traits)
        assert lookup_traits("Count the parent atoms") == traits

    def test_missing_lookup_is_none(self):
        assert lookup_intent("never registered phrase xyz") is None
        assert lookup_traits("never registered phrase xyz") is None


class TestPromptFormat:
    def test_split_sections_returns_bodies(self):
        prompt = (
            pf.render_section(pf.SECTION_ROLE, "You are X.")
            + pf.render_section(pf.SECTION_USER_QUERY, "How many?")
        )
        assert pf.split_sections(prompt) == {
            pf.SECTION_ROLE: "You are X.",
            pf.SECTION_USER_QUERY: "How many?",
        }

    def test_absent_section_is_absent(self):
        prompt = pf.render_section(pf.SECTION_ROLE, "x")
        assert pf.SECTION_SCHEMA not in pf.split_sections(prompt)

    def test_section_boundaries_respected(self):
        prompt = (
            pf.render_section(pf.SECTION_ROLE, "role text")
            + pf.render_section(pf.SECTION_JOB, "job text")
        )
        assert "job text" not in pf.split_sections(prompt)[pf.SECTION_ROLE]

    def test_json_section_roundtrip(self):
        payload = {"fields": {"a": {"type": "int"}}}
        prompt = pf.render_json_section(pf.SECTION_SCHEMA, payload)
        body = pf.split_sections(prompt)[pf.SECTION_SCHEMA]
        assert pf.parse_json_body(body) == payload

    def test_corrupt_json_returns_none(self):
        prompt = f"{pf.SECTION_SCHEMA}\n```json\nnot json at all\n```\n"
        assert pf.parse_json_body(pf.split_sections(prompt)[pf.SECTION_SCHEMA]) is None
        assert pf.parse_json_body(None) is None

    def test_json_section_with_following_section(self):
        payload = {"k": [1, 2]}
        prompt = pf.render_json_section(pf.SECTION_VALUES, payload) + pf.render_section(
            pf.SECTION_USER_QUERY, "q"
        )
        assert pf.parse_json_body(pf.split_sections(prompt)[pf.SECTION_VALUES]) == payload
