"""End-to-end agent tests: chat over live synthetic-workflow provenance."""

from __future__ import annotations

import pytest

from repro.agent.agent import ProvenanceAgent
from repro.agent.router import Intent
from repro.capture.context import CaptureContext
from repro.provenance.keeper import ProvenanceKeeper
from repro.provenance.query_api import QueryAPI
from repro.storage import ProvenanceDatabase
from repro.workflows.synthetic import run_synthetic_campaign


@pytest.fixture(scope="module")
def agent_setup():
    ctx = CaptureContext()
    keeper = ProvenanceKeeper(ctx.broker)
    keeper.start()
    agent = ProvenanceAgent(
        ctx, model="gpt-4", query_api=QueryAPI(keeper.database)
    )
    run_synthetic_campaign(ctx, n_inputs=10)
    return ctx, keeper, agent


class TestChatFlows:
    def test_greeting(self, agent_setup):
        _, _, agent = agent_setup
        reply = agent.chat("hello!")
        assert reply.intent == Intent.GREETING
        assert "provenance" in reply.text.lower()

    def test_monitoring_query_counts_tasks(self, agent_setup):
        _, _, agent = agent_setup
        reply = agent.chat("How many tasks have finished?")
        assert reply.intent == Intent.MONITORING_QUERY
        assert reply.ok
        assert "80" in reply.text  # 10 workflows x 8 tasks, all FINISHED

    def test_aggregation_query(self, agent_setup):
        _, _, agent = agent_setup
        reply = agent.chat("What is the average duration per activity?")
        assert reply.ok
        assert reply.table is not None
        assert len(reply.table) == 8  # one row per activity

    def test_guideline_addition(self, agent_setup):
        _, _, agent = agent_setup
        reply = agent.chat("use the field lr to filter learning rates")
        assert reply.intent == Intent.ADD_GUIDELINE
        assert agent.context_manager.guidelines.user_defined

    def test_plot_request(self, agent_setup):
        _, _, agent = agent_setup
        reply = agent.chat("Plot a bar graph of the average duration per activity.")
        assert reply.intent == Intent.VISUALIZATION
        assert reply.ok
        assert reply.chart is not None
        assert "scale_and_shift" in reply.chart

    def test_generated_code_is_exposed(self, agent_setup):
        _, _, agent = agent_setup
        reply = agent.chat("How many tasks have finished?")
        assert reply.code is not None and reply.code.startswith(("len(", "df"))


class TestAgentProvenance:
    def test_tool_executions_recorded(self, agent_setup):
        ctx, keeper, agent = agent_setup
        before = keeper.database.count({"type": "tool_execution"})
        agent.chat("How many tasks failed?")
        after = keeper.database.count({"type": "tool_execution"})
        assert after == before + 1

    def test_llm_interactions_linked_to_tool(self, agent_setup):
        ctx, keeper, agent = agent_setup
        agent.chat("How many tasks are running?")
        llm_docs = keeper.database.find({"type": "llm_interaction"})
        assert llm_docs
        last = llm_docs[-1]
        assert last["agent_id"] == "provenance-agent"
        assert last["informed_by"]  # linked to the tool execution
        tool_doc = keeper.database.find_one({"task_id": last["informed_by"]})
        assert tool_doc["type"] == "tool_execution"

    def test_prov_graph_associates_agent(self, agent_setup):
        ctx, keeper, agent = agent_setup
        agent.chat("How many tasks have finished?")
        acts = keeper.prov.activities_of_agent("provenance-agent")
        assert len(acts) >= 1


class TestMCPIntegration:
    def test_schema_resource_exposed(self, agent_setup):
        _, _, agent = agent_setup
        from repro.agent.mcp.client import MCPClient

        client = MCPClient(agent.mcp)
        schema = client.read_resource("dataflow-schema")
        assert "generated.value" in schema["fields"]

    def test_tools_listed_via_mcp(self, agent_setup):
        _, _, agent = agent_setup
        from repro.agent.mcp.client import MCPClient

        names = {t["name"] for t in MCPClient(agent.mcp).list_tools()}
        assert "in_memory_context_query" in names
        assert "anomaly_detector" in names

    def test_bring_your_own_tool(self, agent_setup):
        _, _, agent = agent_setup
        from repro.agent.tools.base import Tool, ToolResult

        class MyTool(Tool):
            name = "my_custom_tool"
            description = "custom"

            def invoke(self, **kwargs):
                return ToolResult(ok=True, summary="hi")

        agent.register_tool(MyTool())
        from repro.agent.mcp.client import MCPClient

        assert MCPClient(agent.mcp).call_tool("my_custom_tool")["ok"]


class TestSessionGuidelinesAffectBehaviour:
    def test_user_guideline_reaches_prompts(self):
        ctx = CaptureContext()
        agent = ProvenanceAgent(ctx, model="gpt-4")
        run_synthetic_campaign(ctx, n_inputs=2)
        agent.chat("use the field lr to filter learning rates")
        prompt = agent.context_manager.prompt(agent.query_tool.prompt_config, "q")
        assert "lr" in prompt
