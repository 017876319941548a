"""Seeded inputs shared by the query workloads: documents, statements, stack.

The document generator lives here, not in the older per-PR benchmark
files or their shared fixtures, so this benchmark survives the
ROADMAP's deletion of those.
"""

from __future__ import annotations

import random
from typing import Any

from repro.agent.service import AgentService
from repro.api.gateway import ProvenanceGateway
from repro.api.schemas import QueryRequest
from repro.capture.context import CaptureContext
from repro.llm.service import LLMServer
from repro.provenance.query_api import QueryAPI
from repro.workflows.synthetic import SYNTHETIC_ACTIVITIES

__all__ = [
    "HIT_STATEMENTS",
    "MISS_STATEMENTS",
    "task_documents",
    "sql_requests",
    "build_gateway",
]

#: the cache-hit rotation: group-by count, group-by avg, top-k, scalar
#: avg, two indexed filters, filtered projection
HIT_STATEMENTS: tuple[str, ...] = (
    "SELECT status, COUNT(*) AS n FROM tasks GROUP BY status",
    "SELECT activity_id, AVG(duration) AS avg_duration FROM tasks "
    "GROUP BY activity_id",
    "SELECT task_id, activity_id, duration FROM tasks "
    "ORDER BY duration DESC LIMIT 10",
    "SELECT AVG(duration) FROM tasks",
    "SELECT COUNT(*) FROM tasks WHERE status = 'FAILED'",
    "SELECT task_id, hostname FROM tasks "
    "WHERE activity_id = 'power' AND status = 'FAILED'",
    "SELECT task_id, duration, hostname FROM tasks "
    "WHERE status = 'FAILED' AND duration > 0.09",
)

#: the cache-miss rotation, in ``metrics.MISS_CLASSES`` order.  Five
#: classes (odd), so the median op latency sits inside one mode: the
#: ``GROUP BY status`` statement is the designated p50 class
MISS_STATEMENTS: tuple[str, ...] = (
    "SELECT status, COUNT(*) AS n FROM tasks GROUP BY status",
    "SELECT workflow_id, AVG(duration) AS avg_duration FROM tasks "
    "GROUP BY workflow_id",
    "SELECT task_id, activity_id, duration FROM tasks "
    "ORDER BY duration DESC LIMIT 10",
    "SELECT COUNT(*) FROM tasks WHERE status = 'FAILED'",
    "SELECT task_id, duration, hostname FROM tasks "
    "WHERE status = 'FAILED' AND duration > 0.09",
)


def task_documents(n_docs: int, seed: int) -> list[dict[str, Any]]:
    """``n_docs`` wide task documents (24 leaves), 8 tasks per workflow.

    Shaped like what the keeper stores for the synthetic campaign
    (common fields, ``used``/``generated`` dataflow, start/end
    telemetry) plus scheduler tags, so flattening, indexing and JSON
    encoding see realistic width.  5% FAILED, 2% RUNNING.

    The seed decides the order the workflows arrive in, every id and
    timestamp and every dataflow/telemetry value.  What the rotation's
    statements select on — status, duration, hostname per (workflow,
    activity) — is a fixed function of the canonical slot, so every
    seed yields replies of the same shape and size and runs on
    different seeds measure the same amount of work.
    """
    if n_docs % len(SYNTHETIC_ACTIVITIES):
        raise ValueError("n_docs must be a whole number of 8-task workflows")
    rng = random.Random(f"e2e-docs/{seed}")
    width = len(SYNTHETIC_ACTIVITIES)
    arrival = list(range(n_docs // width))
    rng.shuffle(arrival)
    docs: list[dict[str, Any]] = []
    for position, canonical in enumerate(arrival):
        for step, activity in enumerate(SYNTHETIC_ACTIVITIES):
            i = position * width + step
            mixed = ((canonical * width + step) * 2_654_435_761) & 0xFFFFFFFF
            draw = mixed % 100
            status = "FAILED" if draw < 5 else "RUNNING" if draw < 7 else "FINISHED"
            duration = round(0.02 + 0.08 * ((mixed >> 8) % 100_000) / 100_000, 6)
            started = 1_753_457_858.0 + i * 0.03 + rng.random() * 0.01
            docs.append({
                "type": "task",
                "task_id": f"{started:.6f}_{i}",
                "campaign_id": f"campaign-{seed}",
                "workflow_id": f"wf-{position:05d}",
                "activity_id": activity,
                "status": status,
                "hostname": f"node-{(mixed >> 4) % 4}",
                "started_at": started,
                "ended_at": started + duration,
                "duration": duration,
                "used": {
                    "x": round(rng.uniform(0.5, 10.0), 5),
                    "factor": round(rng.uniform(1.0, 3.0), 5),
                    "shift": 1.0,
                    "divisor": 4.0,
                    "_upstream": [f"{seed}_{i - 1}"] if step else [],
                },
                "generated": {
                    "value": round(rng.uniform(0.0, 100.0), 5),
                    "n_branches": 3,
                    "ok": status != "FAILED",
                },
                "telemetry_at_start": {
                    "cpu": {"percent": round(rng.uniform(2.0, 98.0), 1)},
                    "mem": {"percent": round(rng.uniform(5.0, 95.0), 1)},
                },
                "telemetry_at_end": {
                    "cpu": {"percent": round(rng.uniform(2.0, 98.0), 1)},
                    "mem": {"percent": round(rng.uniform(5.0, 95.0), 1)},
                },
                "tags": {"rank": i % 64, "queue": "batch" if i % 3 else "debug"},
            })
    return docs


def sql_requests(statements: tuple[str, ...]) -> list[QueryRequest]:
    return [QueryRequest(dialect="sql", sql=text) for text in statements]


def build_gateway(store: Any, seed: int) -> tuple[AgentService, ProvenanceGateway]:
    """The serving stack over ``store``; close the service when done."""
    context = CaptureContext(seed=("e2e", seed))
    service = AgentService(context, llm=LLMServer(), query_api=QueryAPI(store))
    return service, ProvenanceGateway(service)
