"""Shared fixtures: a small provenance stack behind a gateway."""

from __future__ import annotations

import pytest

from repro.agent.service import AgentService
from repro.api.client import GatewayClient
from repro.api.gateway import ProvenanceGateway
from repro.api.schemas import QueryRequest
from repro.capture.context import CaptureContext
from repro.llm.service import LLMServer
from repro.provenance.query_api import QueryAPI
from repro.storage import ProvenanceDatabase


def task_doc(i: int, **extra) -> dict:
    """A linear-lineage task document (t0 -> t1 -> ... control chain)."""
    return dict(
        {
            "type": "task",
            "task_id": f"t{i}",
            "workflow_id": f"wf-{i % 3}",
            "campaign_id": "api-tests",
            "activity_id": f"a{i % 4}",
            "status": "FAILED" if i % 7 == 3 else "FINISHED",
            "started_at": 1000.0 + i,
            "ended_at": 1001.0 + i,
            "duration": 1.0 + (i % 5) * 0.5,
            "hostname": f"node-{i % 2}",
            "used": {"x": i, "_upstream": [f"t{i - 1}"] if i else []},
            "generated": {"y": i * i},
        },
        **extra,
    )


#: the byte-parity matrix: every dialect in scalar, frame and paginated
#: shape, then the error surface.  Neither a transport
#: (``test_client_parity.py``, where it heads ``QUERY_MATRIX``) nor a
#: cache-hit shortcut (``test_stages.py``) may change a byte of a reply.
PARITY_QUERIES = (
    QueryRequest(dialect="filter", filter={"status": "FAILED"}),
    QueryRequest(dialect="filter", filter={}, sort=(("started_at", -1),), limit=10),
    QueryRequest(dialect="filter", filter={"used.x": {"$lt": 5}}, page_size=3),
    QueryRequest(
        dialect="pipeline",
        code="df[df['status'] == 'FINISHED'][['task_id', 'duration']].head(20)",
    ),
    QueryRequest(dialect="pipeline", code="df['duration'].mean()"),
    QueryRequest(
        dialect="pipeline",
        code="df.groupby('activity_id')['duration'].mean()",
    ),
    QueryRequest(
        dialect="sql",
        sql="SELECT task_id, duration FROM tasks "
        "WHERE status = 'FINISHED' ORDER BY task_id LIMIT 20",
    ),
    QueryRequest(dialect="sql", sql="SELECT AVG(duration) FROM tasks"),
    QueryRequest(
        dialect="sql",
        sql="SELECT COUNT(*) FROM tasks GROUP BY activity_id",
        page_size=4,
    ),
    QueryRequest(dialect="graph", operation="upstream", task_id="t64"),
    QueryRequest(dialect="graph", operation="impact_size", task_id="t0"),
    QueryRequest(dialect="graph", operation="roots", page_size=5),
    QueryRequest(dialect="sql"),  # missing statement -> BAD_REQUEST
    QueryRequest(dialect="sql", sql="SELECT * FROM tasks WHERE"),
    QueryRequest(dialect="pipeline", code="df.!!!"),
    QueryRequest(dialect="graph", operation="upstream", task_id="ghost"),
)


def _serve(store):
    ctx = CaptureContext()
    service = AgentService(ctx, llm=LLMServer(), query_api=QueryAPI(store))
    ctx.broker.publish_batch("provenance.task", store.all())
    gateway = ProvenanceGateway(service)
    yield service, gateway, GatewayClient(gateway)
    service.close()


@pytest.fixture
def store() -> ProvenanceDatabase:
    db = ProvenanceDatabase()
    db.upsert_many([task_doc(i) for i in range(20)])
    return db


@pytest.fixture
def stack(store):
    """(service, gateway, client) over a populated store + live buffer."""
    yield from _serve(store)


@pytest.fixture(scope="module")
def parity_stack():
    """A ``stack`` over 2 000 tasks, for :data:`PARITY_QUERIES`: frames
    that span many socket reads, six activities so that the
    ``page_size=4`` GROUP BY really pages, and a lineage chain cut every
    64 tasks so that ``roots`` (32 of them) pages at ``page_size=5``."""
    db = ProvenanceDatabase()
    db.upsert_many(
        task_doc(
            i,
            activity_id=f"a{i % 6}",
            used={"x": i, "_upstream": [f"t{i - 1}"] if i % 64 else []},
        )
        for i in range(2000)
    )
    yield from _serve(db)


@pytest.fixture
def gateway(stack):
    return stack[1]


@pytest.fixture
def client(stack):
    return stack[2]
