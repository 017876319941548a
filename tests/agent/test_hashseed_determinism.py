"""Chat replies must not depend on ``PYTHONHASHSEED``.

``LineageIndex.critical_path`` used to seed Kahn's queue from a ``set``
of task ids and break ties between equally long chains by that order,
so "What is the critical path?" named a different workflow per hash
seed.  The same seeded session is replayed here in two interpreters
with different hash seeds; every reply must be byte-equal.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: one turn per reply intent of the chat benchmark: monitoring (x2),
#: lineage (x2: a traversal and the tie-prone critical path), sql,
#: historical, greeting
SESSION = """
import json
from benchmarks.e2e.campaign import run_campaign
from repro.agent.service import AgentService
from repro.api.client import GatewayClient
from repro.api.gateway import ProvenanceGateway
from repro.capture.context import CaptureContext
from repro.lineage.index import LineageIndex
from repro.provenance.keeper import ProvenanceKeeper
from repro.provenance.query_api import QueryAPI
from repro.storage.memory import ProvenanceDatabase

context = CaptureContext(seed="hashseed")
store, lineage = ProvenanceDatabase(), LineageIndex()
keeper = ProvenanceKeeper(context.broker, store, lineage_index=lineage)
keeper.start()
service = AgentService(context, query_api=QueryAPI(store), keeper=keeper)
run_campaign(context, 12, "hashseed")
keeper.stop()
client = GatewayClient(ProvenanceGateway(service))
client.create_session("s")
last_task = service.context_manager.to_frame().sort_values("started_at").row(15)
for message in (
    "How many tasks ran on each host?",
    "What is the average duration per activity?",
    f"What is upstream of task '{last_task['task_id']}'?",
    "What is the critical path?",
    "SELECT activity_id, AVG(duration) AS avg_duration FROM tasks GROUP BY activity_id",
    "In the database, how many tasks finished?",
    "hello",
):
    reply = client.chat_json("s", message)
    assert json.loads(reply)["ok"], reply
    print(json.loads(reply)["intent"], reply)
service.close()
"""


def _replay(hash_seed: str) -> list[str]:
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    done = subprocess.run(
        [sys.executable, "-c", SESSION],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_replies_are_byte_equal_under_different_hash_seeds():
    first, second = _replay("1"), _replay("2")
    assert {line.split()[0] for line in first} == {
        "monitoring_query",
        "lineage_query",
        "sql_query",
        "historical_query",
        "greeting",
    }
    assert first == second
