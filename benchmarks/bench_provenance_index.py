"""Indexed provenance store vs. full scan at 100k documents.

The ROADMAP's "fast as the hardware allows" north star requires targeted
OLTP lookups whose cost stays flat as trace volume grows (PROV-AGENT
makes the same point).  This benchmark builds one store with the default
secondary indexes and one with indexing disabled (the seed's full-scan
behaviour), runs the canonical agent query shapes against both, asserts
the result sets are identical, and requires >= 10x speedup for every
indexed shape.
"""

from __future__ import annotations

import random
import time

from benchmarks.conftest import write_result
from repro.storage import ProvenanceDatabase
from repro.viz.ascii import series_table

N_DOCS = 100_000
MIN_SPEEDUP = 10.0

STATUSES = ["FINISHED"] * 95 + ["FAILED"] * 3 + ["RUNNING"] * 2
ACTIVITIES = ("run_dft", "postprocess", "prepare", "reduce", "analyze")


def _make_docs(n: int) -> list[dict]:
    rng = random.Random(1234)
    docs = []
    for i in range(n):
        started = 1000.0 + i * 0.01
        duration = rng.random() * 10.0
        docs.append(
            {
                "type": "task",
                "task_id": f"{started:.2f}_{i}",
                "campaign_id": f"c{i % 4}",
                "workflow_id": f"w{i % 200}",
                "activity_id": ACTIVITIES[i % len(ACTIVITIES)],
                "status": rng.choice(STATUSES),
                "hostname": f"frontier{i % 512:05d}",
                "started_at": started,
                "ended_at": started + duration,
                "duration": duration,
                "generated": {"bond_id": f"C-H_{i}", "bd_enthalpy": 90 + rng.random() * 20},
            }
        )
    return docs


def _time(fn, *, repeats: int) -> float:
    """Best-of-N seconds per call (best-of defends against CI jitter)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


#: (label, filter) — the OLTP/OLAP shapes the Query API and agent tools emit.
QUERIES = [
    ("point lookup (task_id)", lambda docs: {"task_id": docs[N_DOCS // 2]["task_id"]}),
    ("equality pair (status+workflow)", lambda docs: {"status": "FAILED", "workflow_id": "w7"}),
    ("rare status (eq)", lambda docs: {"status": "RUNNING", "activity_id": "run_dft"}),
    ("range (duration tail)", lambda docs: {"duration": {"$gt": 9.97}}),
    ("time window + status", lambda docs: {"started_at": {"$gte": 1500.0, "$lt": 1501.0}, "status": "FINISHED"}),
    ("$in fan-out", lambda docs: {"status": {"$in": ["FAILED", "RUNNING"]}, "workflow_id": "w3"}),
]


def test_indexed_lookups_vs_full_scan(results_dir):
    docs = _make_docs(N_DOCS)
    indexed = ProvenanceDatabase()
    scan = ProvenanceDatabase(equality_index_fields=(), range_index_fields=())
    indexed.insert_many(docs)
    scan.insert_many(docs)

    rows = []
    for label, make_filt in QUERIES:
        filt = make_filt(docs)
        got_indexed = indexed.find(filt)
        got_scan = scan.find(filt)
        # parity: the planner's fast path returns exactly the scan results
        assert got_indexed == got_scan, f"result divergence for {label}: {filt}"
        assert indexed.explain(filt)["strategy"] == "index", (label, filt)

        t_indexed = _time(lambda: indexed.find(filt), repeats=5)
        t_scan = _time(lambda: scan.find(filt), repeats=3)
        speedup = t_scan / max(t_indexed, 1e-9)
        rows.append(
            {
                "query": label,
                "matches": len(got_indexed),
                "indexed_ms": round(t_indexed * 1e3, 3),
                "scan_ms": round(t_scan * 1e3, 3),
                "speedup_x": round(speedup, 1),
            }
        )
        assert speedup >= MIN_SPEEDUP, (
            f"{label}: {speedup:.1f}x < {MIN_SPEEDUP}x "
            f"(indexed {t_indexed * 1e3:.3f} ms vs scan {t_scan * 1e3:.3f} ms)"
        )

    # unindexable residue must still work (and agree), via scan fallback
    regex_filt = {"generated.bond_id": {"$regex": "C-H_424242$"}}
    assert indexed.find(regex_filt) == scan.find(regex_filt)
    assert indexed.explain(regex_filt)["strategy"] == "scan"

    write_result(
        results_dir,
        "provenance_index.txt",
        series_table(
            rows,
            ["query", "matches", "indexed_ms", "scan_ms", "speedup_x"],
            title=f"Indexed vs full-scan lookups, {N_DOCS:,} docs "
            f"(floor: {MIN_SPEEDUP:.0f}x)",
        ),
    )
