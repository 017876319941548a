"""Incremental lineage maintenance vs. rebuild-per-query at 100k tasks.

``ProvenanceGraph`` rebuilds a networkx graph from a full document scan
for every lineage question — the exact anti-pattern the indexed store
eliminated for tabular queries (PR 1).  This benchmark streams a 100k-task
campaign (200 workflows of fan-out chains with dataflow links) into both:

* the **live** path — a :class:`LineageIndex` maintained incrementally,
  answering traversals straight from its adjacency store;
* the **rebuild** path — ``ProvenanceGraph.from_database`` per query,
  the seed behaviour.

Parity is asserted on every answer (upstream/downstream sets, chain
lengths, roots/leaves, critical-path length), then each traversal shape
must be >= 10x faster via the live index.

``LINEAGE_BENCH_N`` scales the campaign down for CI smoke runs
(the speedup floor holds from a few thousand tasks up).
"""

from __future__ import annotations

import os
import random
import time

from benchmarks.conftest import write_result
from repro.lineage import LineageIndex
from repro.provenance.graph import ProvenanceGraph
from repro.storage import ProvenanceDatabase
from repro.viz.ascii import series_table

N_TASKS = int(os.environ.get("LINEAGE_BENCH_N", "100000"))
MIN_SPEEDUP = 10.0
N_WORKFLOWS = max(2, N_TASKS // 500)


def _make_docs(n: int) -> list[dict]:
    """Chained workflows with fan-out and shared-value dataflow links."""
    rng = random.Random(99)
    docs: list[dict] = []
    per_wf = max(4, n // N_WORKFLOWS)
    serial = 0
    workflow = 0
    while serial < n:
        wf = f"wf-{workflow:04d}"
        workflow += 1
        budget = min(per_wf, n - serial)
        prev_stage: list[str] = []
        stage = 0
        while budget > 0:
            width = min(1 + stage % 3, budget)  # fan-out 1 -> 2 -> 3 -> 1 ...
            current: list[str] = []
            for _ in range(width):
                started = 1000.0 + serial * 0.01
                tid = f"{started:.2f}_{serial}"
                used: dict = {"_upstream": list(prev_stage)} if prev_stage else {}
                generated: dict = {}
                # one stage in three also links to the next one by value
                if stage % 3 == 0:
                    generated["token"] = f"{wf}/v{stage}"
                elif stage % 3 == 1 and prev_stage:
                    used["token"] = f"{wf}/v{stage - 1}"
                docs.append(
                    {
                        "type": "task",
                        "task_id": tid,
                        "campaign_id": "bench",
                        "workflow_id": wf,
                        "activity_id": f"stage-{stage}",
                        "status": rng.choice(["FINISHED"] * 19 + ["FAILED"]),
                        "started_at": started,
                        "ended_at": started + 0.5,
                        "duration": 0.5,
                        "used": used,
                        "generated": generated,
                    }
                )
                current.append(tid)
                serial += 1
                budget -= 1
            prev_stage = current
            stage += 1
    return docs


def _time(fn, *, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_live_index_vs_rebuild_per_query(results_dir):
    docs = _make_docs(N_TASKS)
    db = ProvenanceDatabase()
    db.insert_many(docs)

    # live path: incremental maintenance, as the keeper would apply it
    t0 = time.perf_counter()
    index = LineageIndex()
    index.apply_many(docs)
    build_s = time.perf_counter() - t0

    def rebuild() -> ProvenanceGraph:
        return ProvenanceGraph.from_database(db)

    # one rebuilt graph as the parity oracle
    oracle = rebuild()
    assert len(oracle) == len(index) == len(docs)

    deep = docs[-1]["task_id"]  # tail of the last workflow's chain
    wide = docs[0]["task_id"]  # head of the first workflow's chain
    wf = docs[len(docs) // 2]["workflow_id"]

    # parity across every traversal the query surface exposes
    assert index.upstream(deep) == oracle.upstream(deep)
    assert index.downstream(wide) == oracle.downstream(wide)
    assert set(index.roots()) == set(oracle.roots())
    assert set(index.leaves()) == set(oracle.leaves())
    chain_live = index.causal_chain(wide, docs[2]["task_id"])
    chain_scan = oracle.causal_chain(wide, docs[2]["task_id"])
    assert (chain_live is None) == (chain_scan is None)
    if chain_live is not None:
        assert len(chain_live) == len(chain_scan)
    snap = index.to_provenance_graph()
    assert set(snap.graph.edges) == set(oracle.graph.edges)

    cases = [
        ("upstream (deep lineage)", lambda g: g.upstream(deep)),
        ("downstream (impact set)", lambda g: g.downstream(wide)),
        ("roots", lambda g: g.roots()),
        ("leaves", lambda g: g.leaves()),
    ]
    rows = []
    for label, op in cases:
        t_live = _time(lambda: op(index), repeats=5)
        t_rebuild = _time(lambda: op(rebuild()), repeats=3)
        speedup = t_rebuild / max(t_live, 1e-9)
        rows.append(
            {
                "query": label,
                "live_ms": round(t_live * 1e3, 3),
                "rebuild_ms": round(t_rebuild * 1e3, 3),
                "speedup_x": round(speedup, 1),
            }
        )
        assert speedup >= MIN_SPEEDUP, (
            f"{label}: {speedup:.1f}x < {MIN_SPEEDUP}x "
            f"(live {t_live * 1e3:.3f} ms vs rebuild {t_rebuild * 1e3:.3f} ms)"
        )

    # per-workflow critical path: live index filters by workflow natively
    t_live = _time(lambda: index.critical_path(workflow_id=wf), repeats=5)
    rows.append(
        {
            "query": f"critical path ({wf})",
            "live_ms": round(t_live * 1e3, 3),
            "rebuild_ms": None,
            "speedup_x": None,
        }
    )

    write_result(
        results_dir,
        "lineage.txt",
        series_table(
            rows,
            ["query", "live_ms", "rebuild_ms", "speedup_x"],
            title=(
                f"Live lineage index vs rebuild-per-query, {len(docs):,} tasks, "
                f"{index.edge_count:,} edges, one-time incremental build "
                f"{build_s * 1e3:.0f} ms (floor: {MIN_SPEEDUP:.0f}x)"
            ),
        ),
    )
