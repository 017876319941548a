"""Tests for the Query API facade."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.provenance.query_api import QueryAPI
from repro.storage import ProvenanceDatabase


@pytest.fixture
def api() -> QueryAPI:
    db = ProvenanceDatabase()
    db.insert_many(
        [
            {
                "task_id": "t1",
                "workflow_id": "w1",
                "campaign_id": "c1",
                "activity_id": "square",
                "status": "FINISHED",
                "type": "task",
                "used": {},
                "generated": {"y": 4},
                "duration": 1.0,
            },
            {
                "task_id": "t2",
                "workflow_id": "w1",
                "campaign_id": "c1",
                "activity_id": "average",
                "status": "FAILED",
                "type": "task",
                "used": {"_upstream": ["t1"]},
                "generated": {},
                "duration": 2.0,
            },
            {
                "task_id": "tool-1",
                "workflow_id": "w1",
                "campaign_id": "c1",
                "activity_id": "in_memory_query",
                "status": "FINISHED",
                "type": "tool_execution",
                "used": {"query": "..." },
                "generated": {},
            },
        ]
    )
    return QueryAPI(db)


class TestTaskReads:
    def test_tasks_excludes_agent_records(self, api):
        assert {t["task_id"] for t in api.tasks()} == {"t1", "t2"}

    def test_tasks_with_filter(self, api):
        assert api.tasks({"status": "FAILED"})[0]["task_id"] == "t2"

    def test_single_task(self, api):
        assert api.task("t1")["activity_id"] == "square"
        assert api.task("ghost") is None

    def test_workflows_campaigns_activities(self, api):
        assert api.workflows() == ["w1"]
        assert api.campaigns() == ["c1"]
        assert set(api.activities("w1")) == {"square", "average", "in_memory_query"}

    def test_status_counts(self, api):
        counts = api.status_counts()
        assert counts["FINISHED"] == 2 and counts["FAILED"] == 1

    def test_failed_tasks(self, api):
        assert [t["task_id"] for t in api.failed_tasks()] == ["t2"]

    def test_agent_interactions(self, api):
        assert [t["task_id"] for t in api.agent_interactions()] == ["tool-1"]


class TestCounts:
    def test_counts_matches_group_aggregation(self, api):
        assert api.counts("status") == {"FINISHED": 2, "FAILED": 1}
        oracle = Counter(d.get("status") for d in api.database.find())
        assert api.counts("status") == dict(oracle)

    def test_counts_includes_null_bucket(self, api):
        api.database.upsert({"task_id": "t9", "type": "task"})
        assert api.counts("status")[None] == 1

    def test_counts_with_filter(self, api):
        assert api.counts("status", {"type": "task"}) == {
            "FINISHED": 1,
            "FAILED": 1,
        }

    def test_catalogue_reads_skip_materialisation(self, api, monkeypatch):
        # workflows()/campaigns()/counts() must answer from the index,
        # never by walking documents (the scan fallback and every find
        # funnel through _execute_filter, so poisoning it proves the
        # fast path was taken)
        def boom(*a, **k):  # pragma: no cover - fails the test if called
            raise AssertionError("scanned documents for a catalogue read")

        monkeypatch.setattr(api.database, "_execute_filter", boom)
        assert api.workflows() == ["w1"]
        assert api.campaigns() == ["c1"]
        assert api.counts("status")["FINISHED"] == 2
        # a filtered read is allowed (and expected) to scan
        with pytest.raises(AssertionError):
            api.counts("status", {"type": "task"})

    def test_counts_over_sharded_store(self):
        from repro.storage import ShardedProvenanceStore

        store = ShardedProvenanceStore(3)
        store.upsert_many(
            [
                {"task_id": f"t{i}", "workflow_id": f"w{i % 4}", "type": "task",
                 "status": "FINISHED" if i % 2 else "FAILED"}
                for i in range(12)
            ]
        )
        api = QueryAPI(store)
        assert api.counts("status") == {"FAILED": 6, "FINISHED": 6}
        assert set(api.workflows()) == {"w0", "w1", "w2", "w3"}


class TestViews:
    def test_to_frame_flattens(self, api):
        frame = api.to_frame({"type": "task"})
        assert "generated.y" in frame.columns
        assert len(frame) == 2


class TestCachedTallies:
    """counts()/status_counts()/failed_tasks() ride the versioned cache."""

    def _monitored(self):
        db = ProvenanceDatabase()
        db.upsert_many(
            [
                {"task_id": f"t{i}", "workflow_id": "w1", "type": "task",
                 "status": "FAILED" if i % 4 == 1 else "FINISHED"}
                for i in range(16)
            ]
        )
        return QueryAPI(db), db

    def test_repeated_counts_hit_cache(self):
        api, db = self._monitored()
        first = api.counts("status")
        before = api.cache.stats()
        second = api.counts("status")
        after = api.cache.stats()
        assert second == first
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_status_counts_shares_the_counts_entry(self):
        api, db = self._monitored()
        api.counts("status")
        before = api.cache.stats()["hits"]
        assert api.status_counts() == {"FINISHED": 12, "FAILED": 4}
        assert api.cache.stats()["hits"] == before + 1

    def test_version_bump_invalidates_counts(self):
        api, db = self._monitored()
        assert api.counts("status")["FAILED"] == 4
        db.upsert({"task_id": "t-new", "workflow_id": "w1", "type": "task",
                   "status": "FAILED"})
        invalidations = api.cache.stats()["invalidations"]
        # the very next read re-executes against the bumped version ...
        assert api.counts("status")["FAILED"] == 5
        assert api.cache.stats()["invalidations"] == invalidations + 1
        # ... and repeats hit again
        before = api.cache.stats()["hits"]
        assert api.counts("status")["FAILED"] == 5
        assert api.cache.stats()["hits"] == before + 1

    def test_failed_tasks_cached_and_invalidated(self):
        api, db = self._monitored()
        first = api.failed_tasks()
        before = api.cache.stats()["hits"]
        second = api.failed_tasks()
        assert second == first
        assert api.cache.stats()["hits"] == before + 1
        # a caller mutating its answer must not poison later reads —
        # neither the list itself nor the documents inside it
        second.append({"task_id": "bogus"})
        second[0]["acknowledged"] = True
        third = api.failed_tasks()
        assert len(third) == len(first)
        assert "acknowledged" not in third[0]
        # new provenance invalidates exactly once
        db.upsert({"task_id": "t-bad", "workflow_id": "w1", "type": "task",
                   "status": "FAILED"})
        assert {t["task_id"] for t in api.failed_tasks()} == (
            {t["task_id"] for t in first} | {"t-bad"}
        )

    def test_filtered_counts_key_separately(self):
        api, db = self._monitored()
        all_counts = api.counts("status")
        filtered = api.counts("status", {"status": "FAILED"})
        assert filtered == {"FAILED": 4}
        assert all_counts != filtered
        # both entries live side by side and both hit on repeat
        before = api.cache.stats()["hits"]
        api.counts("status")
        api.counts("status", {"status": "FAILED"})
        assert api.cache.stats()["hits"] == before + 2

    def test_unversioned_store_bypasses_cache(self):
        class Min:
            """A minimal backend without version(): no caching possible."""

            def __init__(self, db):
                self._db = db

            def field_counts(self, field, filt=None):
                return self._db.field_counts(field, filt)

            def find(self, filt=None, **kw):
                return self._db.find(filt, **kw)

        api, db = self._monitored()
        bare = QueryAPI(Min(db))
        assert bare.counts("status")["FINISHED"] == 12
        assert bare.failed_tasks()
        assert bare.cache.stats()["hits"] == 0
        assert bare.cache.stats()["misses"] == 0
