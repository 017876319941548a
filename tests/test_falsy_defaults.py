"""Falsy injected dependencies are kept, never swapped for defaults.

The ``x or Default()`` idiom silently replaces an injected collaborator
whenever it happens to compare falsy — an empty cache, a clock at time
zero, a zero-traffic LLM server.  Every constructor/function default in
``src/`` now uses an explicit ``is None`` check; these tests pin each
site by injecting a double that compares falsy and asserting identity.
"""

from __future__ import annotations

from repro.capture.context import CaptureContext
from repro.llm.generation import QueryTraits, generate_query_code
from repro.llm.profiles import get_profile
from repro.llm.prompt_reading import perceive
from repro.llm.semantics import OracleResolver, parse_intent
from repro.llm.service import LLMServer
from repro.messaging.broker import InProcessBroker
from repro.messaging.buffer import MessageBuffer, SizeFlush
from repro.storage.durable import DurableStore, FileOps
from repro.utils.clock import VirtualClock
from repro.workflows.engine import WorkflowEngine
from repro.workflows.synthetic import run_synthetic_workflow


class FalsyClock(VirtualClock):
    def __bool__(self) -> bool:
        return False


class FalsyStrategy(SizeFlush):
    def __bool__(self) -> bool:
        return False


class FalsyBroker(InProcessBroker):
    def __bool__(self) -> bool:
        return False


def test_message_buffer_keeps_falsy_strategy_and_clock():
    strategy = FalsyStrategy(8)
    clock = FalsyClock()
    buffer = MessageBuffer(
        InProcessBroker(), "topic", strategy=strategy, clock=clock
    )
    assert buffer.strategy is strategy
    assert buffer.clock is clock


def test_broker_keeps_falsy_clock():
    clock = FalsyClock()
    assert InProcessBroker(clock=clock).clock is clock


def test_capture_context_keeps_falsy_collaborators():
    clock = FalsyClock()
    broker = FalsyBroker(clock=clock)
    strategy = FalsyStrategy(4)
    ctx = CaptureContext(broker, clock=clock, flush_strategy=strategy)
    assert ctx.clock is clock
    assert ctx.broker is broker
    assert ctx.buffer.strategy is strategy


def test_durable_store_keeps_falsy_file_ops(tmp_path):
    class FalsyFileOps(FileOps):
        def __bool__(self) -> bool:
            return False

    ops = FalsyFileOps()
    store = DurableStore(str(tmp_path / "db"), file_ops=ops)
    try:
        assert store._files is ops
    finally:
        store.close()


def test_synthetic_workflow_uses_falsy_engine():
    ctx = CaptureContext()
    executed = []

    class FalsyEngine(WorkflowEngine):
        def __bool__(self) -> bool:
            return False

        def execute(self, dag, workflow_name=""):
            executed.append(workflow_name)
            return "sentinel"

    result = run_synthetic_workflow(ctx, engine=FalsyEngine(ctx))
    assert result == "sentinel"
    assert executed == ["synthetic_math_workflow"]


def test_parse_intent_uses_falsy_resolver():
    calls = []

    class FalsyResolver(OracleResolver):
        def __bool__(self) -> bool:
            return False

        def resolve(self, canonical: str) -> str:
            calls.append(canonical)
            return super().resolve(canonical)

    parse_intent("how many tasks failed?", resolver=FalsyResolver())
    assert calls, "the injected resolver was never consulted"


def test_generate_query_code_uses_falsy_traits():
    reads = []

    class SpyTraits(QueryTraits):
        def __bool__(self) -> bool:
            return False

        def __getattribute__(self, name):
            if not name.startswith("_"):
                reads.append(name)
            return super().__getattribute__(name)

    from repro.agent.prompts import PromptBuilder, PromptConfig
    from repro.llm.intents import register_intent
    from repro.query import parse_query

    question = "How many tasks failed in the falsy-defaults check?"
    register_intent(question, parse_query("len(df[df['status'] == 'FAILED'])"))
    prompt = PromptBuilder(
        PromptConfig(few_shot=True, schema=True, values=True).with_baseline()
    ).build(
        question,
        schema_payload={"fields": {"status": {"type": "str"}}, "activities": []},
        values_payload={"status": ["FAILED"]},
        guidelines_text="",
    )
    profile = get_profile("gpt-4")
    generate_query_code(
        profile, perceive(prompt, 200_000), traits=SpyTraits(), query_id="falsy"
    )
    assert reads, "the injected traits were never consulted"


def test_agent_service_keeps_falsy_llm():
    class FalsyLLM(LLMServer):
        def __bool__(self) -> bool:
            return False

    from repro.agent.service import AgentService

    llm = FalsyLLM()
    ctx = CaptureContext()
    service = AgentService(ctx, llm=llm)
    try:
        assert service.llm is llm
    finally:
        service.close()


class FalsyContext(CaptureContext):
    def __bool__(self) -> bool:
        return False


def test_workflow_run_keeps_falsy_context():
    from repro.capture.context import WorkflowRun

    ctx = FalsyContext()
    assert WorkflowRun("w", ctx).context is ctx


def test_capture_adapter_keeps_falsy_context():
    from repro.capture.adapters.base import ObservabilityAdapter

    class NullAdapter(ObservabilityAdapter):
        def observe(self):  # pragma: no cover - unused
            return []

        def source_description(self) -> str:  # pragma: no cover - unused
            return "null"

    ctx = FalsyContext()
    assert NullAdapter(context=ctx).context is ctx


def test_workflow_engine_keeps_falsy_context():
    ctx = FalsyContext()
    assert WorkflowEngine(ctx).context is ctx


def test_async_gateway_keeps_falsy_admission():
    from repro.api.admission import AdmissionController
    from repro.api.aio import AsyncGatewayServer

    class FalsyAdmission(AdmissionController):
        def __bool__(self) -> bool:
            return False

    admission = FalsyAdmission(max_concurrency=1)
    server = AsyncGatewayServer(object(), admission=admission)
    assert server.admission is admission  # never started; nothing to stop


def test_explicit_empty_base_filter_means_every_document():
    """``{}`` is a filter (match everything), not "use the default".

    The database tool and the gateway both decide the shared
    ``("db_query", base_filter_key, pipeline)`` cache key from this
    value; ``base_filter or {...}`` turned an explicit ``{}`` into
    ``{"type": "task"}`` in both.
    """
    from repro.agent.context_manager import ContextManager
    from repro.agent.service import AgentService
    from repro.agent.tools.db_query import DatabaseQueryTool
    from repro.api.gateway import ProvenanceGateway
    from repro.api.schemas import QueryRequest
    from repro.provenance.query_api import QueryAPI
    from repro.query.cache import canonical_filter_key
    from repro.storage import ProvenanceDatabase

    store = ProvenanceDatabase()
    store.insert_many([
        {"type": "task", "task_id": "t1"},
        {"type": "workflow", "workflow_id": "w1"},
    ])
    ctx = CaptureContext()
    api = QueryAPI(store)
    tool = DatabaseQueryTool(
        api, ContextManager(ctx.broker), LLMServer(), base_filter={}
    )
    assert tool.base_filter == {}
    assert DatabaseQueryTool(api, tool.context_manager, tool.llm).base_filter == {
        "type": "task"
    }

    service = AgentService(ctx, llm=LLMServer(), query_api=api)
    try:
        everything = ProvenanceGateway(service, base_filter={}, publish_mcp=False)
        default = ProvenanceGateway(service, publish_mcp=False)
        assert everything.base_filter == {}
        assert everything.base_filter_key == canonical_filter_key({})
        assert default.base_filter == {"type": "task"}
        count = QueryRequest(dialect="pipeline", code="len(df)")
        assert everything.execute_query(count).scalar == 2
        assert default.execute_query(count).scalar == 1
    finally:
        service.close()


# -- the lint is the regression net -----------------------------------------
#
# The tests above pin individual call sites; the seeded fixtures below
# pin the *detector*: reintroducing the exact PR 6 shape must trip
# provlint's falsy-or-default rule, so the bug class cannot return
# anywhere in src/ without failing the gate.

SEEDED_PR6_SHAPE = """\
class QueryAPI:
    def __init__(self, store, cache=None):
        self.store = store
        self.cache = cache or QueryCache()
"""


def test_lint_flags_the_seeded_pr6_cache_shape(tmp_path):
    from repro.analysis import run_analysis

    (tmp_path / "query_api.py").write_text(SEEDED_PR6_SHAPE)
    result = run_analysis([str(tmp_path)])
    assert [f.rule for f in result.findings] == ["falsy-or-default"]
    finding = result.findings[0]
    assert finding.line == 4
    assert "cache or QueryCache()" in finding.message


def test_lint_accepts_the_pr7_is_none_rewrite(tmp_path):
    from repro.analysis import run_analysis

    fixed = SEEDED_PR6_SHAPE.replace(
        "cache or QueryCache()", "cache if cache is not None else QueryCache()"
    )
    (tmp_path / "query_api.py").write_text(fixed)
    result = run_analysis([str(tmp_path)])
    assert result.findings == []
