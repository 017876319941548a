"""Sharded store: routing decisions, scatter-gather edge cases, parity."""

from __future__ import annotations

import threading

import pytest

from repro.errors import DatabaseError
from repro.storage import ProvenanceDatabase, ShardedProvenanceStore


def make_doc(i, workflow="w0", **overrides):
    doc = {
        "type": "task",
        "task_id": f"t{i}",
        "workflow_id": workflow,
        "campaign_id": "c1",
        "activity_id": f"a{i % 3}",
        "status": ("FINISHED", "FAILED", "RUNNING")[i % 3],
        "started_at": float((i * 37) % 100),
        "duration": float(i % 5) or None,
        "used": {},
        "generated": {"y": i},
    }
    doc.update(overrides)
    return doc


def mirrored(n=30, workflows=("w0", "w1", "w2", "w3", "w4")):
    """A single-node and a sharded store fed identical documents."""
    single, sharded = ProvenanceDatabase(), ShardedProvenanceStore(4)
    docs = [make_doc(i, workflows[i % len(workflows)]) for i in range(n)]
    single.upsert_many(docs)
    sharded.upsert_many(docs)
    return single, sharded


class TestRouting:
    def test_workflow_equality_routes_to_one_shard(self):
        _, sharded = mirrored()
        plan = sharded.explain({"workflow_id": "w1"})
        assert plan["strategy"] == "targeted"
        assert len(plan["shards"]) == 1
        assert plan["routing_values"] == ["w1"]

    def test_in_filter_spanning_shards_routes_to_their_union(self):
        single, sharded = mirrored()
        filt = {"workflow_id": {"$in": ["w0", "w1", "w2", "w3", "w4"]}}
        plan = sharded.explain(filt)
        homes = {
            sharded.explain({"workflow_id": w})["shards"][0]
            for w in ("w0", "w1", "w2", "w3", "w4")
        }
        assert set(plan["shards"]) == homes
        assert sharded.find(filt) == single.find(filt)

    def test_or_of_equalities_routes_to_union(self):
        _, sharded = mirrored()
        plan = sharded.explain(
            {"$or": [{"workflow_id": "w0"}, {"workflow_id": "w1"}]}
        )
        u = set(sharded.explain({"workflow_id": "w0"})["shards"]) | set(
            sharded.explain({"workflow_id": "w1"})["shards"]
        )
        assert set(plan["shards"]) == u

    def test_and_intersects_routing(self):
        _, sharded = mirrored()
        plan = sharded.explain(
            {"$and": [{"workflow_id": "w0"}, {"workflow_id": {"$in": ["w0", "w1"]}}]}
        )
        assert plan["shards"] == sharded.explain({"workflow_id": "w0"})["shards"]

    def test_unroutable_shapes_scatter(self):
        _, sharded = mirrored()
        for filt in (
            {"status": "FINISHED"},
            {"workflow_id": {"$regex": "w"}},
            {"workflow_id": {"$gt": "w0"}},
            {"workflow_id": None},
            {"workflow_id": {"$in": ["w0", None]}},
            {"$or": [{"workflow_id": "w0"}, {"status": "FAILED"}]},
        ):
            assert sharded.explain(filt)["strategy"] == "scatter", filt

    def test_unroutable_stored_workflow_still_reachable_by_equal_literal(self):
        # Decimal(5) == 5 but Decimal cannot route; targeted queries for
        # the routable literal must still visit the shard hosting it
        from decimal import Decimal

        single, sharded = ProvenanceDatabase(), ShardedProvenanceStore(4)
        for store in (single, sharded):
            store.upsert(make_doc(0, workflow=Decimal(5)))
            store.upsert(make_doc(1, workflow=5))
        for filt in (
            {"workflow_id": 5},
            {"workflow_id": 5.0},
            {"workflow_id": {"$in": [5]}},
        ):
            assert sharded.find(filt) == single.find(filt), filt
        # same via a re-delivery that changes to an unroutable value
        s2, sh2 = ProvenanceDatabase(), ShardedProvenanceStore(4)
        for store in (s2, sh2):
            store.upsert(make_doc(2, workflow="plain"))
            store.upsert({"type": "task", "task_id": "t2", "workflow_id": Decimal(7)})
        assert sh2.find({"workflow_id": 7}) == s2.find({"workflow_id": 7})

    def test_cross_type_numeric_workflow_ids_route_together(self):
        sharded = ShardedProvenanceStore(4)
        sharded.upsert(make_doc(0, workflow=1))
        assert sharded.find({"workflow_id": 1.0}) == sharded.find(
            {"workflow_id": 1}
        )
        assert len(sharded.find({"workflow_id": True})) == 1

    def test_empty_in_routes_nowhere(self):
        _, sharded = mirrored()
        assert sharded.find({"workflow_id": {"$in": []}}) == []
        assert sharded.count({"workflow_id": {"$in": []}}) == 0

    def test_malformed_filter_rejected_even_when_routed_to_nothing(self):
        _, sharded = mirrored()
        with pytest.raises(DatabaseError):
            sharded.find({"workflow_id": {"$in": []}, "status": {"$bogus": 1}})


class TestRedelivery:
    def test_redelivery_lands_on_home_shard(self):
        sharded = ShardedProvenanceStore(4)
        sharded.upsert(make_doc(1, workflow="alpha", status="RUNNING"))
        sharded.upsert(make_doc(1, workflow="alpha", status="FINISHED"))
        assert len(sharded) == 1
        assert sharded.find_one({"task_id": "t1"})["status"] == "FINISHED"

    def test_workflow_first_seen_on_redelivery_stays_findable(self):
        sharded = ShardedProvenanceStore(4)
        doc = make_doc(2)
        del doc["workflow_id"]
        sharded.upsert(doc)  # routed by key: workflow unknown yet
        sharded.upsert(make_doc(2, workflow="late-wf"))
        assert len(sharded) == 1
        hits = sharded.find({"workflow_id": "late-wf"})
        assert [d["task_id"] for d in hits] == ["t2"]
        # the stray shard is part of the targeted route, not a scatter
        assert sharded.explain({"workflow_id": "late-wf"})["strategy"] in (
            "targeted",
            "scatter",  # only if the stray union happens to cover all shards
        )

    def test_workflow_change_keeps_both_queries_exact(self):
        single, sharded = ProvenanceDatabase(), ShardedProvenanceStore(4)
        for store in (single, sharded):
            store.upsert(make_doc(3, workflow="old-wf"))
            store.upsert({"type": "task", "task_id": "t3", "workflow_id": "new-wf"})
        for filt in ({"workflow_id": "old-wf"}, {"workflow_id": "new-wf"}):
            assert sharded.find(filt) == single.find(filt)

    def test_upsert_without_key_raises_like_single_node(self):
        sharded = ShardedProvenanceStore(2)
        with pytest.raises(DatabaseError, match="task_id"):
            sharded.upsert({"workflow_id": "w0"})


class TestScatterGatherEdgeCases:
    def test_empty_shards_are_harmless(self):
        # one workflow -> every doc on one shard, three shards empty
        single, sharded = ProvenanceDatabase(), ShardedProvenanceStore(4)
        docs = [make_doc(i, "only-wf") for i in range(10)]
        single.upsert_many(docs)
        sharded.upsert_many(docs)
        sizes = sorted(len(s) for s in sharded.shards)
        assert sizes == [0, 0, 0, 10]
        assert sharded.find({"status": "FINISHED"}) == single.find(
            {"status": "FINISHED"}
        )
        assert sharded.find({}, sort=[("started_at", -1)], limit=3) == single.find(
            {}, sort=[("started_at", -1)], limit=3
        )
        assert sharded.field_counts("status") == single.field_counts("status")

    def test_empty_store_queries(self):
        sharded = ShardedProvenanceStore(4)
        assert sharded.find({"status": "FINISHED"}) == []
        assert sharded.all() == []
        assert sharded.count() == 0
        assert sharded.distinct("workflow_id") == []
        assert sharded.field_counts("status") == {}

    def test_unsorted_results_preserve_global_insertion_order(self):
        single, sharded = mirrored(40)
        assert sharded.find({}) == single.find({})
        assert sharded.all() == single.all()

    def test_sort_ties_break_by_global_insertion_order(self):
        single, sharded = ProvenanceDatabase(), ShardedProvenanceStore(4)
        docs = [make_doc(i, f"w{i % 4}", started_at=1.0) for i in range(12)]
        single.upsert_many(docs)
        sharded.upsert_many(docs)
        key = [("started_at", 1)]
        assert sharded.find({}, sort=key) == single.find({}, sort=key)
        assert sharded.find({}, sort=key, limit=5) == single.find(
            {}, sort=key, limit=5
        )

    def test_limit_without_sort_is_global_prefix(self):
        single, sharded = mirrored(25)
        for limit in (0, 1, 3, 24, 100):
            assert sharded.find({}, limit=limit) == single.find({}, limit=limit)

    def test_projection_parity(self):
        single, sharded = mirrored()
        proj = ["task_id", "generated.y"]
        assert sharded.find({"status": "FAILED"}, projection=proj) == single.find(
            {"status": "FAILED"}, projection=proj
        )
        # single-shard route with projection
        assert sharded.find(
            {"workflow_id": "w1"}, projection=proj
        ) == single.find({"workflow_id": "w1"}, projection=proj)

    def test_mixed_type_sort_merges_exactly(self):
        # one shard sorts numerically, the merge sees mixed types: the
        # coordinator must reproduce the single-node string fallback
        single, sharded = ProvenanceDatabase(), ShardedProvenanceStore(4)
        docs = [
            make_doc(0, "w0", started_at=30.0),
            make_doc(1, "w0", started_at=9.0),
            make_doc(2, "w1", started_at="almost-now"),
            make_doc(3, "w2", started_at=None),
        ]
        for d in docs:
            single.upsert(d)
            sharded.upsert(d)
        key = [("started_at", 1)]
        for limit in (1, 2, 4):
            assert sharded.find({}, sort=key, limit=limit) == single.find(
                {}, sort=key, limit=limit
            )

    def test_distinct_same_values_and_counts_match(self):
        single, sharded = mirrored(30)
        assert set(sharded.distinct("workflow_id")) == set(
            single.distinct("workflow_id")
        )
        assert set(sharded.distinct("status", {"workflow_id": "w2"})) == set(
            single.distinct("status", {"workflow_id": "w2"})
        )
        assert sharded.field_counts("status") == single.field_counts("status")
        assert sharded.field_counts("duration") == single.field_counts("duration")


class TestLifecycle:
    def test_clear_resets_everything(self):
        _, sharded = mirrored()
        sharded.clear()
        assert len(sharded) == 0
        assert sharded.find({"workflow_id": "w0"}) == []
        sharded.upsert(make_doc(0, "w0"))
        assert len(sharded) == 1

    def test_single_shard_degenerate_store(self):
        single, sharded = ProvenanceDatabase(), ShardedProvenanceStore(1)
        docs = [make_doc(i, f"w{i}") for i in range(8)]
        single.upsert_many(docs)
        sharded.upsert_many(docs)
        assert sharded.find({}, sort=[("started_at", 1)]) == single.find(
            {}, sort=[("started_at", 1)]
        )

    def test_zero_shards_rejected(self):
        with pytest.raises(DatabaseError):
            ShardedProvenanceStore(0)

    def test_insert_without_key_round_trips(self):
        single, sharded = ProvenanceDatabase(), ShardedProvenanceStore(3)
        rows = [{"workflow_id": f"w{i % 2}", "v": i} for i in range(6)]
        rows.append({"v": 99})  # no workflow either
        for r in rows:
            single.insert(r)
            sharded.insert(r)
        assert sharded.all() == single.all()
        assert sharded.find({"workflow_id": "w1"}) == single.find(
            {"workflow_id": "w1"}
        )

    def test_context_manager_closes_pool(self):
        # the pool exists only once a re-delivery batch of at least
        # ingest_parallel_min documents spans shards, as in production
        docs = [make_doc(i, f"w{i}") for i in range(64)]
        with ShardedProvenanceStore(2) as store:
            store.upsert_many(docs)
            assert store._pool is None  # first delivery inserts inline
            assert store.upsert_many(docs) == 64  # re-delivery: all merges
            pool = store._pool
            assert pool is not None
            assert store.find({"status": "FINISHED"}) != []
        assert store._pool is None
        with pytest.raises(RuntimeError):
            pool.submit(len, ())  # shut down, not merely dropped
        # close() is idempotent
        store.close()


class TestConcurrentIngest:
    def test_concurrent_bulk_loads_keep_position_sequence_invariant(self):
        # unsorted limit pushdown takes each shard's positional prefix,
        # which is only sound if every shard's local order follows the
        # global sequence stamps — including when bulk loads race
        sharded = ShardedProvenanceStore(4)
        batches = [
            [{"workflow_id": f"w{(w * 31 + j) % 9}", "v": f"{w}-{j}"} for j in range(50)]
            for w in range(8)
        ]
        threads = [
            threading.Thread(target=sharded.insert_many, args=(b,))
            for b in batches
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(sharded) == 400
        for shard in sharded.shards:
            seqs = [d["__shard_seq__"] for d in shard._docs]
            assert seqs == sorted(seqs)
        assert sharded.find({}, limit=7) == sharded.find({})[:7]


    def test_parallel_writers_converge(self):
        sharded = ShardedProvenanceStore(4, ingest_parallel_min=1)
        single = ProvenanceDatabase()
        docs = [make_doc(i, f"w{i % 8}") for i in range(400)]
        single.upsert_many(docs)
        chunks = [docs[i::4] for i in range(4)]

        def writer(chunk):
            for j in range(0, len(chunk), 25):
                sharded.upsert_many(chunk[j : j + 25])

        threads = [threading.Thread(target=writer, args=(c,)) for c in chunks]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(sharded) == 400
        # content parity (order across writers is nondeterministic)
        key = [("task_id", 1)]
        assert sharded.find({}, sort=key) == single.find({}, sort=key)
        assert sharded.field_counts("workflow_id") == single.field_counts(
            "workflow_id"
        )
