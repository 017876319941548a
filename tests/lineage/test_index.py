"""Deterministic tests for the incremental lineage index."""

from __future__ import annotations

import pytest

from repro.errors import ProvenanceError
from repro.lineage import LineageIndex
from repro.provenance.graph import ProvenanceGraph


def diamond_docs():
    """a -> b -> d ; a -> c -> d, plus a value link a -> e."""
    return [
        {"task_id": "a", "activity_id": "gen", "workflow_id": "w1",
         "used": {}, "generated": {"conf": "mol-77"}},
        {"task_id": "b", "activity_id": "left", "workflow_id": "w1",
         "used": {"_upstream": ["a"]}, "generated": {}},
        {"task_id": "c", "activity_id": "right", "workflow_id": "w1",
         "used": {"_upstream": ["a"]}, "generated": {}},
        {"task_id": "d", "activity_id": "join", "workflow_id": "w1",
         "used": {"_upstream": ["b", "c"]}, "generated": {}},
        {"task_id": "e", "activity_id": "reader", "workflow_id": "w2",
         "used": {"conf": "mol-77"}, "generated": {}},
    ]


def build(docs):
    idx = LineageIndex()
    idx.apply_many(docs)
    return idx


class TestIncrementalMaintenance:
    def test_traversals_match_scan_graph(self):
        docs = diamond_docs()
        idx = build(docs)
        pg = ProvenanceGraph(docs)
        for t in "abcde":
            assert idx.upstream(t) == pg.upstream(t)
            assert idx.downstream(t) == pg.downstream(t)
            assert set(idx.parents(t)) == set(pg.parents(t))
            assert set(idx.children(t)) == set(pg.children(t))

    def test_out_of_order_arrival_parks_control_edges(self):
        docs = diamond_docs()
        idx = build(reversed(docs))  # every child arrives before its parent
        pg = ProvenanceGraph(docs)
        for t in "abcde":
            assert idx.upstream(t) == pg.upstream(t)
        assert idx.stats()["pending_control"] == 0

    def test_unknown_parent_stays_pending(self):
        idx = build([{"task_id": "x", "used": {"_upstream": ["ghost"]},
                      "generated": {}}])
        assert idx.upstream("x") == set()
        assert idx.stats()["pending_control"] == 1
        idx.apply({"task_id": "ghost", "used": {}, "generated": {}})
        assert idx.upstream("x") == {"ghost"}
        assert idx.stats()["pending_control"] == 0

    def test_reupsert_retracts_old_contributions(self):
        idx = build(diamond_docs())
        assert idx.downstream("a") == {"b", "c", "d", "e"}
        # 'e' stops consuming the shared value: data edge must vanish
        idx.apply({"task_id": "e", "activity_id": "reader",
                   "workflow_id": "w2", "used": {}, "generated": {}})
        assert idx.downstream("a") == {"b", "c", "d"}

    def test_idempotent_redelivery(self):
        docs = diamond_docs()
        idx = build(docs)
        edges = idx.edge_count
        changed = idx.apply_many(docs)  # keeper + service double-feeding
        assert changed == 0
        assert idx.edge_count == edges

    def test_upsert_merges_like_database(self):
        idx = LineageIndex()
        idx.apply({"task_id": "t", "status": "RUNNING",
                   "used": {"_upstream": ["p"]}, "generated": {}})
        idx.apply({"task_id": "p", "used": {}, "generated": {}})
        # FINISHED update without used must not erase the upstream link
        # (None fields merge, present fields replace)
        idx.apply({"task_id": "t", "status": "FINISHED", "used": None,
                   "generated": {"out": "v9"}})
        assert idx.upstream("t") == {"p"}
        assert idx.node("t")["status"] == "FINISHED"

    def test_string_upstream_coerced(self):
        idx = build([
            {"task_id": "p", "used": {}, "generated": {}},
            {"task_id": "q", "used": {"_upstream": "p"}, "generated": {}},
        ])
        assert idx.children("p") == ["q"]

    def test_duplicate_upstream_declarations_collapse(self):
        idx = build([
            {"task_id": "p", "used": {}, "generated": {}},
            {"task_id": "q", "used": {"_upstream": ["p", "p"]}, "generated": {}},
        ])
        assert idx.parents("q") == ["p"]
        assert idx.edge_count == 1

    def test_non_task_records_ignored_by_default(self):
        idx = build([
            {"task_id": "t", "type": "task", "used": {}, "generated": {}},
            {"task_id": "w/run", "type": "workflow", "used": {}, "generated": {}},
            {"task_id": "tool-1", "type": "tool_execution", "used": {},
             "generated": {}},
        ])
        assert len(idx) == 1
        assert "w/run" not in idx

    def test_record_types_none_accepts_everything(self):
        idx = LineageIndex(record_types=None)
        idx.apply({"task_id": "w/run", "type": "workflow", "used": {},
                   "generated": {}})
        assert "w/run" in idx

    def test_workflows_tracked_incrementally(self):
        idx = build(diamond_docs())
        assert set(idx.workflows()) == {"w1", "w2"}
        # re-upsert moving the only w2 task to w1 must retire w2
        idx.apply({"task_id": "e", "activity_id": "reader",
                   "workflow_id": "w1", "used": {}, "generated": {}})
        assert idx.workflows() == ["w1"]


class TestTraversalSurface:
    def test_depth_limited_walks(self):
        idx = build(diamond_docs())
        assert idx.upstream("d", max_depth=1) == {"b", "c"}
        assert idx.upstream("d", max_depth=2) == {"a", "b", "c"}
        assert idx.downstream("a", max_depth=1) == {"b", "c", "e"}

    def test_causal_chain_and_unrelated(self):
        idx = build(diamond_docs())
        chain = idx.causal_chain("a", "d")
        assert chain[0] == "a" and chain[-1] == "d" and len(chain) == 3
        assert idx.causal_chain("e", "d") is None
        assert idx.causal_chain("a", "a") == ["a"]

    def test_roots_and_leaves(self):
        idx = build(diamond_docs())
        assert set(idx.roots()) == {"a"}
        assert set(idx.leaves()) == {"d", "e"}

    def test_critical_path_per_workflow(self):
        idx = build(diamond_docs())
        assert len(idx.critical_path()) == 3  # a -> {b,c} -> d
        assert idx.critical_path(workflow_id="w2") == ["e"]
        assert idx.critical_path(workflow_id="missing") == []

    def test_critical_path_ties_break_on_arrival_order(self):
        """Equally long chains: the earliest-arrived tail and parents win,
        whatever order the ids hash in (the path itself is pinned, and
        its length stays the scan-graph oracle's)."""
        import random

        names = [f"{wf}{step}" for wf in "qzmbxk" for step in range(3)]
        for seed in range(5):
            # same chains, ids relabelled so string hashes fall differently
            relabel = dict(zip(names, random.Random(seed).sample(names, len(names))))
            docs = []
            for wf in "qzmbxk":
                for step in range(3):
                    upstream = [relabel[f"{wf}{step - 1}"]] if step else []
                    docs.append({"task_id": relabel[f"{wf}{step}"], "workflow_id": wf,
                                 "used": {"_upstream": upstream}, "generated": {}})
            # a late-arriving extra parent of the first chain's tail, as long
            docs.append({"task_id": "late0", "workflow_id": "q",
                         "used": {}, "generated": {}})
            docs.append({"task_id": "late1", "workflow_id": "q",
                         "used": {"_upstream": ["late0"]}, "generated": {}})
            docs.append({"task_id": relabel["q2"], "workflow_id": "q",
                         "used": {"_upstream": ["late1", relabel["q1"]]},
                         "generated": {}})
            idx = build(docs)
            assert idx.critical_path() == [relabel[f"q{step}"] for step in range(3)]
            assert len(idx.critical_path()) == len(ProvenanceGraph(docs).critical_path())

    def test_cycle_rejected_for_critical_path(self):
        idx = build([
            {"task_id": "a", "used": {"_upstream": ["b"]}, "generated": {}},
            {"task_id": "b", "used": {"_upstream": ["a"]}, "generated": {}},
        ])
        assert not idx.is_acyclic()
        with pytest.raises(ProvenanceError):
            idx.critical_path()

    def test_impact_sizes(self):
        idx = build(diamond_docs())
        sizes = idx.impact_sizes()
        assert sizes["a"] == 4 and sizes["d"] == 0

    def test_unknown_task_raises(self):
        idx = build(diamond_docs())
        with pytest.raises(ProvenanceError):
            idx.upstream("ghost")

    def test_empty_index(self):
        idx = LineageIndex()
        assert len(idx) == 0
        assert idx.roots() == [] and idx.leaves() == []
        assert idx.critical_path() == []
        assert idx.is_acyclic()

    def test_snapshot_export_matches_scan_graph(self):
        docs = diamond_docs()
        idx = build(docs)
        pg = ProvenanceGraph(docs)
        snap = idx.to_provenance_graph()
        assert set(snap.graph.nodes) == set(pg.graph.nodes)
        assert set(snap.graph.edges) == set(pg.graph.edges)
        for edge in pg.graph.edges:
            assert snap.graph.edges[edge]["kind"] == pg.graph.edges[edge]["kind"]
        # the export is a full ProvenanceGraph: its API answers identically
        assert snap.upstream("d") == idx.upstream("d")
