"""Stored bytes are pinned: a seeded campaign writes the same WAL, forever.

The digests below were minted at the commit *before* the wire dict
became the one message form (PR 17's parent).  Any change to what a
producer emits or the keeper stores — a field, a coercion, key order —
moves them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.agent.recorder import AgentProvenanceRecorder
from repro.capture.context import CaptureContext, WorkflowRun
from repro.capture.instrumentation import flow_task
from repro.lineage.index import LineageIndex
from repro.provenance.keeper import ProvenanceKeeper
from repro.storage.durable import DurableStore
from repro.utils.ids import new_workflow_id
from repro.utils.seeding import derive_rng
from repro.workflows.engine import WorkflowEngine
from repro.workflows.synthetic import synthetic_dag

SEED = ("wire-golden", 17)
N_WORKFLOWS = 12

GOLDEN_WAL_SHA256 = "76d9ca1b2944a9e49ea81f345ff49a6fd22ddb9610671bd5a2130f2da49738e4"
GOLDEN_DOCS_SHA256 = "4a240373c6851f175042b73dc964d7ccb89e86fcd49f21b437c88b5bd3b4f5fb"
GOLDEN_COUNTS = (120, 104)  # documents, lineage nodes


class _Opaque:
    def __repr__(self) -> str:
        return "<opaque>"


def _run_campaign(path: Path) -> tuple[DurableStore, LineageIndex, ProvenanceKeeper]:
    ctx = CaptureContext(seed=SEED)
    store = DurableStore(str(path), fsync="rotate", segment_max_bytes=16 * 1024)
    lineage = LineageIndex()
    keeper = ProvenanceKeeper(ctx.broker, store, lineage_index=lineage)
    keeper.start()

    engine = WorkflowEngine(ctx)
    rng = derive_rng("synthetic", SEED, N_WORKFLOWS)
    for i in range(N_WORKFLOWS):
        x = float(rng.uniform(0.5, 10.0))
        dag = synthetic_dag(x, {"factor": float(rng.uniform(1.0, 3.0))})
        engine.execute(
            dag,
            workflow_name="synthetic_math_workflow",
            workflow_id=new_workflow_id(SEED, i),
        )

    # every binder shape and value shape the decorator captures
    @flow_task(context=ctx)
    def shapes(a, b=2, *rest, flag=False, **extra):
        return {"total": a + b, "rest": list(rest), "by_id": {7: "int-key"}}

    @flow_task("custom_activity", context=ctx)
    def bulky(items, blob, meta):
        return tuple(range(20))

    @flow_task(context=ctx)
    def quiet():
        return None

    @flow_task(context=ctx)
    def boom(x):
        raise ValueError(f"bad {x}")

    with WorkflowRun("adhoc_shapes", ctx, workflow_id=new_workflow_id(SEED, "shapes")):
        shapes(1)
        shapes(1, 5, 6, 7, flag=True, note="n")
        shapes(1, 2, 3, _upstream=["u-1", "u-2"], _hostname="node-9")
        with pytest.raises(TypeError):
            shapes()  # unbindable call: recorded under ``_args``, then re-raised
    with WorkflowRun("adhoc_values", ctx, workflow_id=new_workflow_id(SEED, "values")):
        bulky(
            list(range(40)),
            _Opaque(),
            {"nested": {"k": [1, (2, 3)], 5: None}, "long": "x" * 600},
        )
        quiet()
        with pytest.raises(ValueError):
            boom(3)
    quiet()  # outside any workflow: "adhoc"

    recorder = AgentProvenanceRecorder(ctx, agent_id="agent-g", workflow_id="agent-session")
    tool = recorder.record_tool_execution(
        "in_memory_query", {"q": "how many?"}, {"rows": 3},
        started_at=ctx.clock.now(), ended_at=ctx.clock.now() + 0.5,
    )
    recorder.record_llm_interaction(
        "sim-llm", "prompt text", "reply text",
        started_at=ctx.clock.now(), ended_at=ctx.clock.now() + 0.25,
        informed_by=tool, prompt_tokens=11, output_tokens=5,
    )
    ctx.flush()
    keeper.stop()
    return store, lineage, keeper


def _wal_digest(path: Path) -> str:
    sha = hashlib.sha256()
    for segment in sorted(path.glob("wal-*.log")):
        sha.update(segment.name.encode())
        sha.update(segment.read_bytes())
    return sha.hexdigest()


def _docs_digest(store: DurableStore) -> str:
    docs = sorted(store.all(), key=lambda d: d["task_id"])
    # no sort_keys: key order inside a stored document is part of the pin
    return hashlib.sha256(json.dumps(docs).encode()).hexdigest()


def test_seeded_campaign_stores_the_same_bytes(tmp_path):
    path = tmp_path / "wal"
    store, lineage, keeper = _run_campaign(path)
    try:
        assert keeper.stats()["rejected"] == 0
        assert (len(store), len(lineage)) == GOLDEN_COUNTS
        assert _docs_digest(store) == GOLDEN_DOCS_SHA256
        assert _wal_digest(path) == GOLDEN_WAL_SHA256
    finally:
        store.close()
