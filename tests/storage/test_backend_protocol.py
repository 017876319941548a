"""The StorageBackend seam: conformance, top-level exports, drop-in consumers."""

from __future__ import annotations

import pytest

from repro.messaging.broker import InProcessBroker
from repro.provenance.graph import ProvenanceGraph
from repro.provenance.keeper import ProvenanceKeeper, TASK_TOPIC
from repro.provenance.query_api import QueryAPI
from repro.storage import (
    ProvenanceDatabase,
    ShardedProvenanceStore,
    StorageBackend,
)


def task_payload(task_id="t1", workflow_id="w1", **overrides):
    doc = {
        "task_id": task_id,
        "campaign_id": "c1",
        "workflow_id": workflow_id,
        "activity_id": "square",
        "used": {"x": 3},
        "generated": {"y": 9},
        "started_at": 1.0,
        "ended_at": 2.0,
        "status": "FINISHED",
        "type": "task",
    }
    doc.update(overrides)
    return doc


class TestProtocolConformance:
    def test_single_node_conforms(self):
        assert isinstance(ProvenanceDatabase(), StorageBackend)

    def test_sharded_conforms(self):
        assert isinstance(ShardedProvenanceStore(4), StorageBackend)

    def test_non_backend_rejected(self):
        assert not isinstance(object(), StorageBackend)

    def test_every_protocol_method_present_on_both(self):
        for method in (
            "insert",
            "insert_many",
            "upsert",
            "upsert_many",
            "find",
            "find_one",
            "count",
            "distinct",
            "field_counts",
            "explain",
            "all",
            "clear",
        ):
            assert callable(getattr(ProvenanceDatabase(), method))
            assert callable(getattr(ShardedProvenanceStore(2), method))


class TestCompatAliases:
    def test_top_level_exports(self):
        import repro

        assert repro.ShardedProvenanceStore is ShardedProvenanceStore
        assert repro.StorageBackend is StorageBackend


@pytest.fixture(params=["single", "sharded"])
def backend(request):
    if request.param == "single":
        return ProvenanceDatabase()
    return ShardedProvenanceStore(3)


class TestDropInConsumers:
    def test_keeper_ingests_into_any_backend(self, backend):
        broker = InProcessBroker()
        keeper = ProvenanceKeeper(broker, backend)
        keeper.start()
        broker.publish_batch(
            TASK_TOPIC,
            [task_payload(f"t{i}", workflow_id=f"w{i % 3}") for i in range(9)],
        )
        broker.publish(TASK_TOPIC, task_payload("t0", status="FAILED"))
        assert keeper.processed_count == 10
        assert len(backend) == 9  # t0 re-delivery collapsed
        assert backend.find_one({"task_id": "t0"})["status"] == "FAILED"

    def test_query_api_over_any_backend(self, backend):
        backend.upsert_many(
            [task_payload(f"t{i}", workflow_id=f"w{i % 2}") for i in range(6)]
        )
        api = QueryAPI(backend)
        assert {t["task_id"] for t in api.tasks()} == {f"t{i}" for i in range(6)}
        assert set(api.workflows()) == {"w0", "w1"}
        assert api.status_counts() == {"FINISHED": 6}
        assert api.counts("workflow_id") == {"w0": 3, "w1": 3}
        assert api.task("t3")["workflow_id"] == "w1"
        # the graph oracle builds from the same find() surface
        assert ProvenanceGraph.from_database(backend).is_acyclic()

    def test_explain_reports_a_plan_everywhere(self, backend):
        backend.upsert_many([task_payload(f"t{i}") for i in range(4)])
        plan = QueryAPI(backend).explain({"workflow_id": "w1"})
        assert plan["total_docs"] == 4
        assert plan["candidates"] == 4
        if isinstance(backend, ShardedProvenanceStore):
            assert plan["backend"] == "sharded"
            assert plan["strategy"] in ("targeted", "scatter")
            assert plan["shards"]
        else:
            assert plan["strategy"] == "index"


class TestDurableConformance:
    def test_durable_conforms(self, tmp_path):
        from repro.storage import DurableStore

        store = DurableStore(str(tmp_path / "store"))
        try:
            assert isinstance(store, StorageBackend)
        finally:
            store.close()

    def test_durable_sharded_conforms(self, tmp_path):
        from repro.storage import open_durable_sharded

        store = open_durable_sharded(str(tmp_path / "store"), 3)
        try:
            assert isinstance(store, StorageBackend)
        finally:
            store.close()


class TestVersionContract:
    """The version() persistence clause every backend must honour.

    Monotonic within a process for every backend; for persistent
    backends additionally monotonic *across* reopen and never reset to
    zero — the property QueryCache keys and gateway cursors lean on.
    """

    def _all_backends(self, tmp_path):
        from repro.storage import DurableStore, open_durable_sharded

        return [
            ProvenanceDatabase(),
            ShardedProvenanceStore(3),
            DurableStore(str(tmp_path / "durable")),
            open_durable_sharded(str(tmp_path / "durable-sharded"), 2),
        ]

    def test_every_write_bumps_every_backend(self, tmp_path):
        for backend in self._all_backends(tmp_path):
            seen = [backend.version()]
            backend.upsert(task_payload("t1"))
            seen.append(backend.version())
            backend.upsert(task_payload("t1", status="FAILED"))  # re-delivery
            seen.append(backend.version())
            backend.insert_many([{"type": "note"}])
            seen.append(backend.version())
            backend.clear()  # a wipe is a write: cached results go stale
            seen.append(backend.version())
            assert seen == sorted(seen) and len(set(seen)) == len(seen), backend
            if hasattr(backend, "close"):
                backend.close()

    def test_reads_never_bump(self, tmp_path):
        for backend in self._all_backends(tmp_path):
            backend.upsert_many([task_payload(f"t{i}") for i in range(4)])
            v = backend.version()
            backend.find({"workflow_id": "w1"}, sort=[("started_at", 1)])
            backend.count({})
            backend.distinct("workflow_id")
            backend.field_counts("status")
            backend.explain({})
            assert backend.version() == v, backend
            if hasattr(backend, "close"):
                backend.close()

    def test_durable_version_survives_reopen_never_resets(self, tmp_path):
        from repro.storage import DurableStore

        path = str(tmp_path / "store")
        store = DurableStore(path)
        assert store.version() == 0  # brand-new directory only
        for i in range(5):
            store.upsert(task_payload(f"t{i}"))
        v_pre = store.version()
        store.close()
        observed = [v_pre]
        for _ in range(3):  # every reopen stays past all prior observations
            store = DurableStore(path)
            assert store.version() > observed[-1]
            observed.append(store.version())
            store.upsert(task_payload("t9"))
            observed.append(store.version())
            store.close()
        assert observed == sorted(observed)

    def test_durable_sharded_version_survives_reopen(self, tmp_path):
        from repro.storage import open_durable_sharded

        path = str(tmp_path / "store")
        store = open_durable_sharded(path, 2)
        store.upsert_many([task_payload(f"t{i}", workflow_id=f"w{i % 3}") for i in range(8)])
        v_pre = store.version()
        store.close()
        store = open_durable_sharded(path, 2)
        try:
            assert store.version() > v_pre
            assert store.version() > 0
        finally:
            store.close()
