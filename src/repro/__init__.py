"""repro — LLM Agents for Interactive Workflow Provenance.

Reproduction of "LLM Agents for Interactive Workflow Provenance:
Reference Architecture and Evaluation Methodology" (SC Workshops '25).

Top-level convenience exports cover the 90 % use case::

    from repro import CaptureContext, ProvenanceAgent, flow_task

    ctx = CaptureContext()
    agent = ProvenanceAgent(ctx)

    @flow_task()
    def step(x):
        return {"y": x * x}

    step(3, _ctx=ctx); ctx.flush()
    print(agent.chat("How many tasks have finished?").text)

Subsystem packages (see DESIGN.md for the full inventory):

- :mod:`repro.capture`     — instrumentation + observability adapters
- :mod:`repro.messaging`   — streaming hub (brokers, buffering, federation)
- :mod:`repro.provenance`  — message schema, W3C-PROV, keeper, Query API
- :mod:`repro.storage`     — pluggable storage backends (single-node, sharded)
- :mod:`repro.lineage`     — live-maintained lineage graph + traversal API
- :mod:`repro.agent`       — the provenance AI agent (paper §4)
- :mod:`repro.llm`         — simulated LLM service + adaptive routing
- :mod:`repro.evaluation`  — the §3/§5 evaluation methodology
- :mod:`repro.workflows`   — engine + synthetic / chemistry / LPBF workflows
- :mod:`repro.dataframe`   — mini columnar DataFrame engine
- :mod:`repro.query`       — pandas-style query IR
"""

from repro.agent.agent import AgentReply, ProvenanceAgent
from repro.agent.service import AgentService
from repro.agent.session import AgentSession
from repro.api.aio import AsyncGatewayServer
from repro.api.client import GatewayClient, RemoteClient
from repro.api.gateway import ProvenanceGateway
from repro.capture.context import CaptureContext, WorkflowRun
from repro.capture.instrumentation import flow_task
from repro.dataframe import DataFrame
from repro.lineage import LineageIndex, LineageService
from repro.llm.service import ChatRequest, ChatResponse, LLMServer
from repro.messaging.broker import InProcessBroker
from repro.provenance.keeper import ProvenanceKeeper
from repro.provenance.query_api import QueryAPI
from repro.query.cache import QueryCache
from repro.storage import (
    ProvenanceDatabase,
    ShardedProvenanceStore,
    StorageBackend,
)

__version__ = "0.9.0"

__all__ = [
    "AgentReply",
    "AgentService",
    "AgentSession",
    "AsyncGatewayServer",
    "QueryCache",
    "CaptureContext",
    "ChatRequest",
    "ChatResponse",
    "DataFrame",
    "GatewayClient",
    "InProcessBroker",
    "LLMServer",
    "ProvenanceGateway",
    "RemoteClient",
    "LineageIndex",
    "LineageService",
    "ProvenanceAgent",
    "ProvenanceDatabase",
    "ProvenanceKeeper",
    "QueryAPI",
    "ShardedProvenanceStore",
    "StorageBackend",
    "WorkflowRun",
    "flow_task",
    "__version__",
]
