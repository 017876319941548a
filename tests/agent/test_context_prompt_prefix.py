"""The Context Manager keeps the prompt prefix until the prompt would change.

Prompt bytes are pinned to the commit before the prefix existed; the
schema ``revision`` moves exactly when a prompt payload moves; and a
session's guidelines are part of the key, so one user's prefix never
reaches another's prompt.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agent.context_manager import _MAX_PREFIXES, ContextManager
from repro.agent.prompts import PromptBuilder, PromptConfig
from repro.agent.schema import DynamicDataflowSchema
from repro.agent.service import AgentService
from repro.agent.tools.in_memory_query import FULL_CONTEXT
from repro.capture.context import CaptureContext
from repro.evaluation.configs import CONFIGURATIONS
from repro.llm.tokenizer import count_tokens
from repro.workflows.synthetic import run_synthetic_campaign

QUESTION = "What is the average duration per activity?"

#: label -> (sha256(prompt), count_tokens(prompt)), minted at df23dda for
#: CaptureContext(seed=20) + run_synthetic_campaign(n_inputs=10) + QUESTION
GOLDEN = {
    "Nothing": (
        "610c921ab68de29e5c8dfd43de38508b99ef5e8f1fe06cf0bfb522acf3792b3a", 16),
    "Baseline": (
        "7a509affa76acd317f9ae9bd17932681d49ac1a5af4255b9339ddf52617e6c83", 416),
    "Baseline+FS": (
        "86af8c9bbde63d5e5e17fd81923ee11b864f5b81ab114078f44bf53875a3398b", 572),
    "Baseline+FS+Schema": (
        "438db17e0c5bda42416eeaf762466d9e5a3c4df859de64ca0a30ede6ad7bf656", 2314),
    "Baseline+FS+Schema+Values": (
        "424c6a28a97e80559abaab8488e8250d47e8b731a8d98eb73ac1140f98ac2227", 3127),
    "Baseline+FS+Guidelines": (
        "37a0fcd23e51146b3e5c885bfbf9c526f7999422bfc76d023af2dd0372186292", 1071),
    "Full": (
        "06a49d72378f2939cc0370f3a57dffa359038cc71ea7db2f5eed39f4e7109e5a", 3626),
}


@pytest.fixture(scope="module")
def seeded_cm() -> ContextManager:
    ctx = CaptureContext(seed=20)
    cm = ContextManager(ctx.broker).start()
    run_synthetic_campaign(ctx, n_inputs=10)
    return cm


def msg(activity="square", used=None, generated=None, **extra):
    doc = {
        "type": "task",
        "task_id": "t",
        "activity_id": activity,
        "used": used or {},
        "generated": generated or {},
        "status": "FINISHED",
        "hostname": "n1",
    }
    doc.update(extra)
    return doc


class TestPromptBytes:
    @pytest.mark.parametrize("label", list(CONFIGURATIONS))
    def test_golden_prompt_per_table2_configuration(self, seeded_cm, label):
        prompt = seeded_cm.prompt(CONFIGURATIONS[label], QUESTION)
        assert (
            hashlib.sha256(prompt.encode()).hexdigest(),
            count_tokens(prompt),
        ) == GOLDEN[label]
        # the kept prefix and the from-scratch builder are one assembly path
        assert prompt == PromptBuilder(CONFIGURATIONS[label]).build(
            QUESTION,
            schema_payload=seeded_cm.schema_payload(),
            values_payload=seeded_cm.values_payload(),
            guidelines_text=seeded_cm.guidelines_text(),
        )

    def test_prefix_is_kept_between_turns(self, seeded_cm):
        first = seeded_cm.prompt_prefix(FULL_CONTEXT)
        assert seeded_cm.prompt_prefix(FULL_CONTEXT) is first
        assert seeded_cm.prompt(FULL_CONTEXT, "another question").startswith(first)

    def test_kept_prefixes_are_bounded(self, seeded_cm):
        for i in range(_MAX_PREFIXES + 4):
            seeded_cm.prompt_prefix(FULL_CONTEXT, f"- (user-1) rule {i}")
        assert seeded_cm._kept_prefix.cache_info().currsize == _MAX_PREFIXES


class TestSchemaRevision:
    def test_holds_still_over_a_saturated_stream(self):
        ctx = CaptureContext()
        cm = ContextManager(ctx.broker).start()
        # example values are capped per field, so a long enough campaign
        # stops teaching the schema anything a prompt can show
        run_synthetic_campaign(ctx, n_inputs=40)
        revision, seen = cm.schema.revision, cm.schema.messages_seen
        prefix = cm.prompt_prefix(FULL_CONTEXT)
        run_synthetic_campaign(ctx, n_inputs=10)
        assert cm.schema.messages_seen == seen + 80
        assert cm.schema.revision == revision
        assert cm.prompt_prefix(FULL_CONTEXT) is prefix

    def test_repeated_message_moves_nothing(self):
        s = DynamicDataflowSchema()
        s.update(msg(used={"x": 3}, generated={"y": 1.5}))
        revision = s.revision
        s.update(msg(used={"x": 3}, generated={"y": 1.5}))
        assert (s.revision, s.messages_seen) == (revision, 2)

    @pytest.mark.parametrize(
        "message",
        [
            msg(used={"x": 3, "z": 1}),                   # new field
            msg(used={"x": 3.5}),                         # promoted type
            msg(used={"x": 4}),                           # new example value
            msg(activity="cube", used={"x": 3}),          # new activity
            msg(used={"x": 3}, hostname="n2"),            # new common-field example
        ],
        ids=["field", "type", "example", "activity", "hostname"],
    )
    def test_moves_once_when_a_payload_moves(self, message):
        s = DynamicDataflowSchema()
        s.update(msg(used={"x": 3}))
        before = (s.to_prompt_payload(), s.values_payload())
        revision = s.revision
        s.update(message)
        assert (s.to_prompt_payload(), s.values_payload()) != before
        assert s.revision == revision + 1

    @given(
        st.lists(
            st.fixed_dictionaries(
                {
                    "activity": st.sampled_from(["a", "b", ""]),
                    "used": st.dictionaries(
                        st.sampled_from(["x", "y", "_upstream"]),
                        st.one_of(
                            st.integers(0, 3),
                            st.floats(0, 1, allow_nan=False),
                            st.sampled_from(["s", None, True]),
                        ),
                        max_size=2,
                    ),
                    "hostname": st.sampled_from(["n1", "n2", ""]),
                }
            ),
            max_size=12,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_revision_moves_iff_a_payload_moves(self, stream):
        s = DynamicDataflowSchema()
        for item in stream:
            before = json.dumps(
                [s.to_prompt_payload(), s.values_payload()], sort_keys=True
            )
            revision = s.revision
            s.update(msg(item["activity"], item["used"], hostname=item["hostname"]))
            after = json.dumps(
                [s.to_prompt_payload(), s.values_payload()], sort_keys=True
            )
            assert (s.revision != revision) == (after != before)

    def test_a_turn_after_such_a_message_sees_the_new_prefix(self):
        ctx = CaptureContext()
        service = AgentService(ctx)
        try:
            run_synthetic_campaign(ctx, n_inputs=2)
            service.create_session("s")
            service.llm.keep_history = True
            service.chat("s", "How many tasks have finished?")
            ctx.broker.publish_batch(
                "provenance.task", [msg(used={"learning_rate": 0.1})]
            )
            service.chat("s", "How many tasks have finished?")
            before, after = (request.prompt for request, _ in service.llm.history[-2:])
            assert "used.learning_rate" not in before
            assert "used.learning_rate" in after
            stats = service.llm.stats()
            assert (stats["prefix_hits"], stats["prefix_misses"]) == (0, 2)
        finally:
            service.close()


class TestSessionsDoNotSharePrefixes:
    def test_a_user_guideline_keys_its_own_prefix(self):
        ctx = CaptureContext()
        service = AgentService(ctx)
        try:
            run_synthetic_campaign(ctx, n_inputs=2)
            service.create_session("alice")
            service.create_session("bob")
            service.chat("alice", "use the field lr to filter learning rates")
            service.llm.keep_history = True
            for _ in range(2):  # the second round is served from kept prefixes
                service.chat("alice", "How many tasks have finished?")
                service.chat("bob", "How many tasks have finished?")
            prompts = [request.prompt for request, _ in service.llm.history]
            assert prompts[0] == prompts[2] and prompts[1] == prompts[3]
            assert "use the field lr" in prompts[0]
            assert "use the field lr" not in prompts[1]
            stats = service.llm.stats()
            assert (stats["prefix_hits"], stats["prefix_misses"]) == (2, 2)
            assert service.stats()["llm"]["prefix_hits"] == 2
        finally:
            service.close()

    def test_custom_prompt_config_keys_its_own_prefix(self, seeded_cm):
        bare = PromptConfig().with_baseline()
        assert seeded_cm.prompt_prefix(bare) != seeded_cm.prompt_prefix(FULL_CONTEXT)
        assert "## Dynamic dataflow schema" not in seeded_cm.prompt_prefix(bare)
