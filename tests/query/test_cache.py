"""QueryCache: versioned memoisation, canonical keys, API/tool wiring."""

from __future__ import annotations

import threading

import pytest

from repro.agent.context_manager import ContextManager
from repro.agent.tools.db_query import DatabaseQueryTool
from repro.capture.context import CaptureContext
from repro.llm.service import LLMServer
from repro.provenance.query_api import QueryAPI, store_version
from repro.query import parse_query
from repro.query.cache import MISS, QueryCache, canonical_filter_key
from repro.storage import ProvenanceDatabase, ShardedProvenanceStore


def _doc(i: int, **extra) -> dict:
    return dict(
        {
            "type": "task",
            "task_id": f"t{i}",
            "workflow_id": f"wf-{i % 3}",
            "activity_id": "square",
            "status": "FINISHED",
            "started_at": 1000.0 + i,
            "ended_at": 1001.0 + i,
            "duration": 1.0,
            "used": {"x": i},
            "generated": {"y": i * i},
        },
        **extra,
    )


class TestQueryCacheCore:
    def test_miss_then_hit(self):
        cache = QueryCache()
        assert cache.get("k", 1) is MISS
        cache.put("k", 1, "value")
        assert cache.get("k", 1) == "value"
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_version_bump_invalidates(self):
        cache = QueryCache()
        cache.put("k", 1, "old")
        assert cache.get("k", 2) is MISS  # write happened: version moved
        assert cache.stats()["invalidations"] == 1
        cache.put("k", 2, "new")
        assert cache.get("k", 2) == "new"

    def test_none_key_bypasses(self):
        cache = QueryCache()
        cache.put(None, 1, "x")
        assert cache.get(None, 1) is MISS
        assert len(cache) == 0

    def test_cached_none_distinguished_from_miss(self):
        cache = QueryCache()
        cache.put("k", 1, None)
        assert cache.get("k", 1) is None

    def test_stale_put_does_not_clobber_fresher_entry(self):
        cache = QueryCache()
        cache.put("k", 5, "fresh")
        cache.put("k", 3, "stale")  # a slow executor finishing late
        assert cache.get("k", 5) == "fresh"

    def test_lru_bound(self):
        cache = QueryCache(max_entries=2)
        cache.put("a", 1, 1)
        cache.put("b", 1, 2)
        assert cache.get("a", 1) == 1  # refresh a
        cache.put("c", 1, 3)  # evicts b
        assert cache.get("b", 1) is MISS
        assert cache.get("a", 1) == 1
        assert cache.get("c", 1) == 3

    def test_thread_safety_smoke(self):
        cache = QueryCache(max_entries=64)
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            try:
                for i in range(500):
                    k = f"k{(seed * 31 + i) % 100}"
                    if cache.get(k, i % 7) is MISS:
                        cache.put(k, i % 7, i)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 64


class TestReadThrough:
    """``read_through`` is the version-before-read discipline itself."""

    def test_miss_computes_and_stores_then_hit_skips_compute(self):
        db = ProvenanceDatabase()
        db.insert(_doc(1))
        cache, calls = QueryCache(), []

        def compute():
            calls.append(1)
            return "value"

        assert cache.read_through("k", db, compute) == ("value", False, db.version())
        assert cache.read_through("k", db, compute) == ("value", True, db.version())
        assert len(calls) == 1
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_version_is_read_before_compute_reads_the_store(self):
        # a write landing DURING the computation must strand the entry
        # under the pre-read stamp: the next read recomputes
        db = ProvenanceDatabase()
        db.insert(_doc(1))
        cache = QueryCache()

        def racing_compute():
            rows = len(db.find({}))
            db.insert(_doc(2))  # the concurrent writer
            return rows

        value, hit, version = cache.read_through("k", db, racing_compute)
        assert (value, hit) == (1, False) and version == db.version() - 1
        value, hit, version = cache.read_through("k", db, lambda: len(db.find({})))
        assert (value, hit, version) == (2, False, db.version())
        assert cache.stats()["invalidations"] == 1

    def test_none_key_and_versionless_store_bypass(self):
        db = ProvenanceDatabase()
        cache = QueryCache()
        assert cache.read_through(None, db, lambda: 1) == (1, False, db.version())
        assert cache.read_through("k", object(), lambda: 2) == (2, False, None)
        assert len(cache) == 0 and cache.stats()["misses"] == 0

    def test_failed_compute_caches_nothing(self):
        db = ProvenanceDatabase()
        cache = QueryCache()

        def boom():
            raise RuntimeError("store read failed")

        with pytest.raises(RuntimeError):
            cache.read_through("k", db, boom)
        assert len(cache) == 0
        assert cache.read_through("k", db, lambda: "ok") == ("ok", False, db.version())


class TestCanonicalFilterKey:
    def test_order_insensitive(self):
        assert canonical_filter_key({"a": 1, "b": 2}) == canonical_filter_key(
            {"b": 2, "a": 1}
        )

    def test_nested_and_lists(self):
        k1 = canonical_filter_key({"a": {"$in": [1, 2]}, "b": {"$gt": 0}})
        k2 = canonical_filter_key({"b": {"$gt": 0}, "a": {"$in": [1, 2]}})
        assert k1 == k2
        # list order is semantic for $in dedup purposes? no — but keys
        # must at least distinguish different value sets
        assert k1 != canonical_filter_key({"a": {"$in": [2, 3]}, "b": {"$gt": 0}})

    def test_scalar_type_tagging(self):
        assert canonical_filter_key({"a": 1}) != canonical_filter_key({"a": 1.0})
        assert canonical_filter_key({"a": 1}) != canonical_filter_key({"a": True})

    def test_none_and_empty(self):
        assert canonical_filter_key(None) == canonical_filter_key({})

    def test_unhashable_returns_none(self):
        import numpy as np

        # sets are unordered and unhashable, numpy arrays unhashable:
        # such filters bypass the cache instead of mis-keying
        assert canonical_filter_key({"a": {"$in": {1, 2}}}) is None
        assert canonical_filter_key({"a": np.array([1, 2])}) is None


class TestStoreVersion:
    def test_memory_store_bumps_on_every_write(self):
        db = ProvenanceDatabase()
        v0 = db.version()
        db.insert(_doc(1))
        v1 = db.version()
        db.upsert(_doc(1, status="RUNNING"))
        v2 = db.version()
        db.upsert_many([_doc(2), _doc(3)])
        v3 = db.version()
        db.insert_many([_doc(4)])
        v4 = db.version()
        assert v0 < v1 < v2 < v3 < v4

    def test_reads_do_not_bump(self):
        db = ProvenanceDatabase()
        db.upsert_many([_doc(i) for i in range(5)])
        v = db.version()
        db.find({"status": "FINISHED"})
        db.count()
        db.distinct("workflow_id")
        db.field_counts("status")
        db.explain({"task_id": "t1"})
        assert db.version() == v

    def test_clear_bumps_never_resets(self):
        db = ProvenanceDatabase()
        db.upsert_many([_doc(i) for i in range(5)])
        v = db.version()
        db.clear()
        assert db.version() > v

    def test_sharded_store_aggregates_shards(self):
        sharded = ShardedProvenanceStore(4)
        v0 = sharded.version()
        sharded.upsert_many([_doc(i) for i in range(20)])
        v1 = sharded.version()
        assert v1 > v0
        sharded.upsert(_doc(3, status="RUNNING"))
        assert sharded.version() > v1
        v2 = sharded.version()
        sharded.clear()
        assert sharded.version() > v2  # clear bumps, never resets

    def test_store_version_helper(self):
        assert store_version(ProvenanceDatabase()) == 0
        assert store_version(object()) is None


class TestQueryAPICaching:
    def test_to_frame_cached_until_write(self):
        db = ProvenanceDatabase()
        db.upsert_many([_doc(i) for i in range(10)])
        api = QueryAPI(db)
        f1 = api.to_frame({"type": "task"})
        f2 = api.to_frame({"type": "task"})
        assert f1 is f2  # identical object: served from cache
        db.upsert(_doc(99))
        f3 = api.to_frame({"type": "task"})
        assert f3 is not f2
        assert len(f3) == len(f2) + 1

    def test_filter_order_shares_entry(self):
        db = ProvenanceDatabase()
        db.upsert_many([_doc(i) for i in range(4)])
        api = QueryAPI(db)
        f1 = api.to_frame({"type": "task", "status": "FINISHED"})
        f2 = api.to_frame({"status": "FINISHED", "type": "task"})
        assert f1 is f2

    def test_explain_reports_cache(self):
        db = ProvenanceDatabase()
        db.upsert_many([_doc(i) for i in range(4)])
        api = QueryAPI(db)
        api.to_frame()
        api.to_frame()
        plan = api.explain({"task_id": "t1"})
        assert plan["cache"]["hits"] == 1
        assert plan["cache"]["misses"] == 1
        assert plan["cache"]["store_version"] == db.version()

    def test_uncacheable_backend_still_works(self):
        class Minimal:
            def find(self, filt=None, *, sort=None, limit=None, projection=None):
                return [dict(_doc(1))]

            def explain(self, filt=None):
                return {"backend": "minimal"}

        api = QueryAPI(Minimal())
        f1 = api.to_frame()
        f2 = api.to_frame()
        assert f1 is not f2  # no version(): cache bypassed
        assert "cache" not in api.explain()


class TestDatabaseToolCaching:
    def _tool(self, db):
        ctx = CaptureContext()
        cm = ContextManager(ctx.broker).start()
        ctx.broker.publish_batch("provenance.task", db.all())
        api = QueryAPI(db)
        tool = DatabaseQueryTool(api, cm, LLMServer())
        assert tool.cache is api.cache  # shared accounting
        return tool

    def test_write_version_bump_miss_then_hit(self):
        db = ProvenanceDatabase()
        db.upsert_many([_doc(i) for i in range(8)])
        tool = self._tool(db)
        q = "How many tasks have finished?"
        first = tool.invoke(question=q)
        assert first.ok and first.details["cache"] == "miss"
        second = tool.invoke(question=q)
        assert second.ok and second.details["cache"] == "hit"
        assert second.data == first.data and second.summary == first.summary

        db.upsert(_doc(100))  # write -> version bump -> miss
        third = tool.invoke(question=q)
        assert third.ok and third.details["cache"] == "miss"
        assert third.data == first.data + 1  # the new FINISHED task counts
        fourth = tool.invoke(question=q)
        assert fourth.details["cache"] == "hit"

    def test_phrasings_with_same_ir_share_entry(self):
        db = ProvenanceDatabase()
        db.upsert_many([_doc(i) for i in range(8)])
        tool = self._tool(db)
        a = tool.invoke(question="How many tasks have finished?")
        b = tool.invoke(question="how many tasks have FINISHED?")
        assert a.ok and b.ok
        if parse_query(a.code) == parse_query(b.code):
            assert b.details["cache"] == "hit"

    def test_cached_list_results_are_copies(self):
        db = ProvenanceDatabase()
        db.upsert_many([_doc(i) for i in range(8)])
        tool = self._tool(db)
        q = "What are the distinct activities?"
        first = tool.invoke(question=q)
        if not first.ok or not isinstance(first.data, list):
            pytest.skip("question did not produce a list result")
        first.data.append("tampered")
        second = tool.invoke(question=q)
        assert "tampered" not in second.data


class TestUnhashableQueryIR:
    def test_unhashable_pipeline_literal_bypasses_cache(self):
        """A model emitting a list literal must degrade, not crash the turn."""
        from repro.llm.service import ChatResponse

        class CannedLLM:
            def complete(self, request):
                return ChatResponse(
                    model=request.model,
                    text='df[df["used.x"] == [1, 2]]',
                    prompt_tokens=10,
                    output_tokens=5,
                    latency_s=0.1,
                    truncated=False,
                )

        db = ProvenanceDatabase()
        db.upsert_many([_doc(i) for i in range(4)])
        ctx = CaptureContext()
        cm = ContextManager(ctx.broker).start()
        ctx.broker.publish_batch("provenance.task", db.all())
        tool = DatabaseQueryTool(QueryAPI(db), cm, CannedLLM())
        result = tool.invoke(question="weird list comparison")
        # graceful ToolResult either way — never a TypeError escape
        assert result.details.get("cache") != "hit"
        assert result.summary


class TestUnhashableFilterToFrame:
    def test_unhashable_filters_never_share_a_cache_entry(self):
        db = ProvenanceDatabase()
        db.upsert_many([_doc(0, status="A"), _doc(1, status="B")])
        api = QueryAPI(db)
        fa = api.to_frame({"status": {"$in": {"A"}}})  # set: unhashable key
        fb = api.to_frame({"status": {"$in": {"B"}}})
        assert fa.column("task_id").to_list() == ["t0"]
        assert fb.column("task_id").to_list() == ["t1"]  # not A's cached frame
        # and nothing was cached for either
        assert api.cache.stats()["entries"] == 0


class TestExplicitEmptyCacheIsKept:
    def test_query_api_keeps_a_shared_empty_cache(self):
        """Regression: ``cache or QueryCache()`` dropped an explicitly
        shared cache whenever it was (still) empty — len() == 0 is falsy
        — silently unsharing every facade handed a fresh cache (the
        normal way one is shared, e.g. across a durable-store restart)."""
        shared = QueryCache()
        api = QueryAPI(ProvenanceDatabase(), cache=shared)
        assert api.cache is shared

    def test_agent_service_keeps_a_shared_empty_cache(self):
        from repro.agent.service import AgentService
        from repro.llm.service import LLMServer

        shared = QueryCache()
        ctx = CaptureContext()
        service = AgentService(
            ctx,
            llm=LLMServer(),
            query_api=QueryAPI(ProvenanceDatabase()),
            query_cache=shared,
        )
        try:
            assert service.query_cache is shared
        finally:
            service.close()
