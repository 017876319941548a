"""AgentService: multi-session serving, isolation, ordering, stats."""

from __future__ import annotations

import random
import threading

import pytest

from repro.agent.prompts import PromptConfig
from repro.agent.service import AgentService
from repro.capture.context import CaptureContext
from repro.llm.service import LLMServer
from repro.provenance.keeper import ProvenanceKeeper
from repro.provenance.query_api import QueryAPI
from repro.storage import ProvenanceDatabase


def _task_docs(n: int) -> list[dict]:
    rng = random.Random(5)
    docs = []
    for i in range(n):
        started = 1000.0 + rng.random() * 100
        docs.append(
            {
                "type": "task",
                "task_id": f"t{i}",
                "workflow_id": f"wf-{i % 4}",
                "campaign_id": "svc-test",
                "activity_id": f"a{i % 3}",
                "status": "FINISHED",
                "started_at": started,
                "ended_at": started + 1.0,
                "duration": 1.0,
                "used": {"x": i},
                "generated": {"y": i * 2},
            }
        )
    return docs


@pytest.fixture
def service():
    store = ProvenanceDatabase()
    docs = _task_docs(60)
    store.upsert_many(docs)
    ctx = CaptureContext()
    svc = AgentService(ctx, query_api=QueryAPI(store))
    ctx.broker.publish_batch("provenance.task", docs)
    yield svc
    svc.close()


class TestSessions:
    def test_create_and_lookup(self, service):
        s = service.create_session("alice")
        assert service.session("alice") is s
        assert s.session_id == "alice"

    def test_auto_ids_unique(self, service):
        a = service.create_session()
        b = service.create_session()
        assert a.session_id != b.session_id

    def test_duplicate_rejected(self, service):
        service.create_session("alice")
        with pytest.raises(ValueError):
            service.create_session("alice")

    def test_unknown_session_rejected(self, service):
        with pytest.raises(KeyError):
            service.chat("nobody", "hello")

    def test_get_or_create(self, service):
        a = service.get_or_create_session("alice")
        assert service.get_or_create_session("alice") is a


class TestSessionIsolation:
    def test_guidelines_do_not_leak(self, service):
        service.create_session("alice")
        service.create_session("bob")
        reply = service.chat("alice", "use the field lr to filter learning rates")
        assert reply.intent.value == "add_guideline"
        alice, bob = service.session("alice"), service.session("bob")
        assert len(alice.guidelines.user_defined) == 1
        assert len(bob.guidelines.user_defined) == 0
        assert "lr" in alice.guidelines_text()
        assert "lr" not in bob.guidelines_text()

    def test_guideline_reaches_only_that_sessions_prompts(self, service):
        service.create_session("alice")
        service.create_session("bob")
        service.chat("alice", "use the field lr to filter learning rates")
        service.llm.keep_history = True
        service.chat("alice", "How many tasks have finished?")
        alice_prompt = service.llm.history[-1][0].prompt
        service.chat("bob", "How many tasks have finished?")
        bob_prompt = service.llm.history[-1][0].prompt
        assert "lr" in alice_prompt
        assert "lr" not in bob_prompt

    def test_prompt_config_is_per_session(self, service):
        full = service.create_session("alice")
        bare = service.create_session(
            "bob", prompt_config=PromptConfig().with_baseline()
        )
        assert full.prompt_config != bare.prompt_config
        service.llm.keep_history = True
        service.chat("alice", "How many tasks have finished?")
        alice_prompt = service.llm.history[-1][0].prompt
        service.chat("bob", "How many tasks have finished?")
        bob_prompt = service.llm.history[-1][0].prompt
        # the full config carries schema/guidelines sections; bare doesn't
        assert len(bob_prompt) < len(alice_prompt)

    def test_history_is_per_session(self, service):
        service.create_session("alice")
        service.create_session("bob")
        service.chat("alice", "hello!")
        service.chat("bob", "How many tasks have finished?")
        alice, bob = service.session("alice"), service.session("bob")
        assert [m for m, _ in alice.history] == ["hello!"]
        assert [m for m, _ in bob.history] == ["How many tasks have finished?"]
        assert len(alice.turns) == 1 and len(bob.turns) == 1

    def test_recorder_identity_is_per_session(self):
        store = ProvenanceDatabase()
        ctx = CaptureContext()
        keeper = ProvenanceKeeper(ctx.broker, store)
        keeper.start()
        svc = AgentService(ctx, query_api=QueryAPI(store), keeper=keeper)
        try:
            svc.create_session("alice")
            svc.create_session("bob")
            svc.chat("alice", "hello!")
            svc.chat("bob", "hello!")
            execs = store.find({"type": "tool_execution"})
            agents = {d["agent_id"] for d in execs}
            workflows = {d["workflow_id"] for d in execs}
            assert agents == {
                "provenance-agent/alice",
                "provenance-agent/bob",
            }
            assert workflows == {
                "agent-session/alice",
                "agent-session/bob",
            }
        finally:
            svc.close()

    def test_model_override_per_session(self, service):
        service.create_session("alice", model="llama3-8b")
        service.llm.keep_history = True
        service.chat("alice", "How many tasks have finished?")
        assert service.llm.history[-1][0].model == "llama3-8b"


class TestServing:
    def test_chat_matches_submit(self, service):
        service.create_session("a")
        service.create_session("b")
        direct = service.chat("a", "How many tasks have finished?")
        queued = service.submit("b", "How many tasks have finished?").result()
        assert direct.ok and queued.ok
        assert direct.text == queued.text

    def test_per_session_fifo_under_concurrent_submit(self, service):
        sessions = [f"s{i}" for i in range(4)]
        for sid in sessions:
            service.create_session(sid)
        scripts = {
            sid: [
                "hello!",
                "How many tasks have finished?",
                "use the field lr to filter learning rates",
                "What is the average duration per activity?",
            ]
            for sid in sessions
        }
        futures = []
        for turn in range(4):
            for sid in sessions:
                futures.append(service.submit(sid, scripts[sid][turn]))
        for f in futures:
            assert f.result() is not None
        for sid in sessions:
            assert [m for m, _ in service.session(sid).history] == scripts[sid]

    def test_concurrent_chat_from_many_threads(self, service):
        for i in range(6):
            service.create_session(f"u{i}")
        errors: list[BaseException] = []

        def user(i: int) -> None:
            try:
                for _ in range(3):
                    reply = service.chat(f"u{i}", "How many tasks have finished?")
                    assert reply.ok and "60" in reply.text
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=user, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert service.stats()["turns_completed"] == 18

    def test_replies_identical_across_interleavings(self, service):
        # serialized on one session vs pool-driven on another: same script
        service.create_session("serial")
        service.create_session("pooled")
        script = [
            "How many tasks have finished?",
            "In the database, how many tasks have finished?",
            "What is the average duration per activity?",
        ]
        serial = [service.chat("serial", q) for q in script]
        pooled = [f.result() for f in [service.submit("pooled", q) for q in script]]
        assert [(r.text, r.ok, r.code) for r in serial] == [
            (r.text, r.ok, r.code) for r in pooled
        ]

    def test_sessions_share_one_query_cache_until_a_write(self, service):
        """A historical question is executed once per store version,
        whichever session asks it."""
        question = "In the database, how many tasks have finished?"
        service.create_session("a")
        service.create_session("b")
        first = service.chat("a", question)
        repeat, other = service.chat("a", question), service.chat("b", question)
        assert first.ok and first.details["cache"] == "miss"
        assert repeat.details["cache"] == other.details["cache"] == "hit"
        assert first.text == repeat.text == other.text
        assert service.query_cache.stats()["hit_rate"] >= 0.5

        store = service.db_tool.query_api.database
        store.upsert(dict(_task_docs(1)[0], task_id="t-new"))
        miss, hit = service.chat("b", question), service.chat("a", question)
        assert (miss.details["cache"], hit.details["cache"]) == ("miss", "hit")
        assert miss.ok and miss.text == hit.text != first.text  # 61 tasks now
        # the agent's own tool/LLM records go to the broker, never into
        # the store it is answering from
        assert len(store) == 61

    def test_submit_after_close_rejected(self, service):
        service.create_session("a")
        service.close()
        with pytest.raises(RuntimeError):
            service.submit("a", "hello")


class TestStatsAndMCP:
    def test_stats_shape(self, service):
        service.create_session("alice")
        service.chat("alice", "How many tasks have finished?")
        stats = service.stats()
        assert stats["sessions"] == 1
        assert stats["turns_completed"] == 1
        assert stats["llm"]["requests"] >= 1
        assert "hit_rate" in stats["query_cache"]

    def test_serving_stats_mcp_resource(self, service):
        from repro.agent.mcp.client import MCPClient

        service.create_session("alice")
        service.chat("alice", "In the database, how many tasks have finished?")
        payload = MCPClient(service.mcp).read_resource("serving-stats")
        assert payload["turns_completed"] == 1
        assert payload["llm"]["requests"] >= 1
        assert payload["llm"]["latency_p50_s"] is not None

    def test_lineage_stats_carries_llm_accounting(self, service):
        from repro.agent.mcp.client import MCPClient

        service.create_session("alice")
        service.chat("alice", "How many tasks have finished?")
        payload = MCPClient(service.mcp).read_resource("lineage-stats")
        assert payload["llm"]["requests"] >= 1


class TestTurnPipeline:
    def test_llm_interaction_recorded_for_db_turns(self):
        # pre-refactor, db-tool turns recorded a stale LLM interaction
        # (the in-memory tool's last response); now the actual response
        # travels in the tool result
        store = ProvenanceDatabase()
        store.upsert_many(_task_docs(10))
        ctx = CaptureContext()
        keeper_store = ProvenanceDatabase()
        keeper = ProvenanceKeeper(ctx.broker, keeper_store)
        keeper.start()
        svc = AgentService(ctx, query_api=QueryAPI(store), keeper=keeper)
        try:
            svc.create_session("alice")
            reply = svc.chat(
                "alice", "In the database, how many tasks have finished?"
            )
            assert reply.ok
            llm_docs = keeper_store.find({"type": "llm_interaction"})
            assert len(llm_docs) == 1
            assert llm_docs[0]["informed_by"]
            tool_doc = keeper_store.find_one(
                {"task_id": llm_docs[0]["informed_by"]}
            )
            assert tool_doc["activity_id"] == "provenance_db_query"
        finally:
            svc.close()

    def test_greeting_records_no_llm_interaction(self):
        ctx = CaptureContext()
        keeper_store = ProvenanceDatabase()
        keeper = ProvenanceKeeper(ctx.broker, keeper_store)
        keeper.start()
        svc = AgentService(ctx, keeper=keeper)
        try:
            svc.create_session("alice")
            svc.chat("alice", "hello!")
            assert keeper_store.count({"type": "llm_interaction"}) == 0
            assert keeper_store.count({"type": "tool_execution"}) == 1
        finally:
            svc.close()


class TestGetOrCreateRace:
    def test_concurrent_get_or_create_returns_one_session(self, service):
        import threading as _threading

        results, errors = [], []
        barrier = _threading.Barrier(8)

        def worker():
            try:
                barrier.wait(5)
                results.append(service.get_or_create_session("shared"))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [_threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len({id(s) for s in results}) == 1


class TestGracefulClose:
    """close() drains accepted turns, rejects new work, and is idempotent."""

    def _service(self):
        store = ProvenanceDatabase()
        docs = _task_docs(40)
        store.upsert_many(docs)
        ctx = CaptureContext()
        svc = AgentService(ctx, query_api=QueryAPI(store))
        ctx.broker.publish_batch("provenance.task", docs)
        return svc

    def test_submit_just_before_close_resolves(self):
        """The regression: a turn accepted right before close() must
        resolve its future with a real reply, never dangle."""
        svc = self._service()
        svc.create_session("alice")
        futures = [
            svc.submit("alice", "How many tasks have finished?")
            for _ in range(4)
        ]
        svc.close()
        replies = [f.result(timeout=10) for f in futures]
        assert all(r.ok for r in replies)
        assert svc.stats()["turns_completed"] == 4
        assert svc.stats()["turns_queued"] == 0

    def test_many_sessions_drain_on_close(self):
        svc = self._service()
        futures = []
        for i in range(5):
            svc.create_session(f"s{i}")
            futures.extend(
                svc.submit(f"s{i}", "How many tasks have finished?")
                for _ in range(3)
            )
        svc.close()
        assert all(f.result(timeout=10).ok for f in futures)
        assert svc.stats()["turns_queued"] == 0

    def test_double_close_is_idempotent(self):
        svc = self._service()
        svc.create_session("alice")
        svc.chat("alice", "How many tasks have finished?")
        svc.close()
        svc.close()  # second close: no error, nothing left to do
        svc.close()

    def test_submit_after_close_rejected_without_dangling(self):
        svc = self._service()
        svc.create_session("alice")
        svc.close()
        with pytest.raises(RuntimeError):
            svc.submit("alice", "hello")
        with pytest.raises(RuntimeError):
            svc.chat("alice", "hello")
        assert len(svc.session("alice")._pending) == 0

    def test_create_session_after_close_rejected(self):
        svc = self._service()
        svc.close()
        with pytest.raises(RuntimeError):
            svc.create_session("late")

    def test_racing_submits_against_close(self):
        """Hammer close() with concurrent submitters: every future either
        resolves or its submit raised; nothing hangs."""
        svc = self._service()
        for i in range(4):
            svc.create_session(f"s{i}")
        accepted, rejected = [], []
        lock = threading.Lock()
        start = threading.Barrier(5)

        def submitter(sid: str) -> None:
            start.wait()
            for _ in range(6):
                try:
                    f = svc.submit(sid, "How many tasks have finished?")
                except RuntimeError:
                    with lock:
                        rejected.append(sid)
                    return
                with lock:
                    accepted.append(f)

        threads = [
            threading.Thread(target=submitter, args=(f"s{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        start.wait()
        svc.close()
        for t in threads:
            t.join(timeout=10)
        for f in accepted:
            assert f.result(timeout=10).ok
        assert svc.stats()["turns_queued"] == 0
