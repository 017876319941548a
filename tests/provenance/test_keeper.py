"""Tests for the Provenance Keeper service."""

from __future__ import annotations

import pytest

from repro.messaging.broker import InProcessBroker
from repro.provenance.keeper import ProvenanceKeeper, TASK_TOPIC
from repro.provenance.prov import RelationKind


def task_payload(task_id="t1", **overrides):
    doc = {
        "task_id": task_id,
        "campaign_id": "c1",
        "workflow_id": "w1",
        "activity_id": "square",
        "used": {"x": 3},
        "generated": {"y": 9},
        "started_at": 1.0,
        "ended_at": 2.0,
        "hostname": "node-1",
        "status": "FINISHED",
        "type": "task",
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def setup():
    broker = InProcessBroker()
    keeper = ProvenanceKeeper(broker)
    keeper.start()
    return broker, keeper


class TestIngestion:
    def test_message_lands_in_database(self, setup):
        broker, keeper = setup
        broker.publish(TASK_TOPIC, task_payload())
        assert keeper.processed_count == 1
        assert keeper.database.find_one({"task_id": "t1"})["generated"] == {"y": 9}

    def test_batch_ingestion(self, setup):
        broker, keeper = setup
        broker.publish_batch(TASK_TOPIC, [task_payload(f"t{i}") for i in range(5)])
        assert len(keeper.database) == 5

    def test_batch_flush_uses_batched_upsert_path(self, setup):
        broker, keeper = setup
        calls = []
        original = keeper.database.upsert_many

        def spy(docs, key_field="task_id"):
            docs = list(docs)
            calls.append(len(docs))
            return original(docs, key_field=key_field)

        keeper.database.upsert_many = spy
        broker.publish_batch(TASK_TOPIC, [task_payload(f"t{i}") for i in range(8)])
        assert calls == [8]
        assert keeper.processed_count == 8
        assert len(keeper.database) == 8

    def test_batch_with_rejects_keeps_valid_messages(self, setup):
        broker, keeper = setup
        payloads = [
            task_payload("t1"),
            {"task_id": "", "status": "FINISHED"},  # schema violation
            task_payload("t2"),
        ]
        broker.publish_batch(TASK_TOPIC, payloads)
        assert keeper.processed_count == 2
        assert len(keeper.rejected) == 1
        assert {d["task_id"] for d in keeper.database.all()} == {"t1", "t2"}

    def test_malformed_payload_rejected_same_on_single_path(self, setup):
        broker, keeper = setup
        broker.publish(TASK_TOPIC, task_payload("t-bad", used=5))
        assert keeper.processed_count == 0
        assert len(keeper.rejected) == 1 and "malformed" in keeper.rejected[0][1]
        assert broker.delivery_errors == []

    def test_structurally_malformed_payload_does_not_discard_batch(self, setup):
        broker, keeper = setup
        payloads = [
            task_payload("t1"),
            task_payload("t-bad", used=5),  # from_dict raises, not a schema error
            task_payload("t2"),
        ]
        broker.publish_batch(TASK_TOPIC, payloads)
        assert {d["task_id"] for d in keeper.database.all()} == {"t1", "t2"}
        assert len(keeper.rejected) == 1
        assert "malformed" in keeper.rejected[0][1]

    def test_ingest_batch_direct(self):
        keeper = ProvenanceKeeper(InProcessBroker())
        accepted = keeper.ingest_batch(
            [task_payload("a"), task_payload("a", status="FINISHED"), task_payload("b")]
        )
        assert accepted == 3
        assert len(keeper.database) == 2  # lifecycle collapse inside the batch

    def test_batch_prov_projection_still_built(self, setup):
        broker, keeper = setup
        broker.publish_batch(
            TASK_TOPIC,
            [task_payload("tool-9", type="tool_execution"), task_payload("t9")],
        )
        assert "tool-9" in keeper.prov
        assert "t9/generated/y" in keeper.prov

    def test_lifecycle_updates_collapse(self, setup):
        broker, keeper = setup
        broker.publish(TASK_TOPIC, task_payload(status="RUNNING", ended_at=None))
        broker.publish(TASK_TOPIC, task_payload(status="FINISHED"))
        assert len(keeper.database) == 1
        assert keeper.database.find_one({"task_id": "t1"})["status"] == "FINISHED"

    def test_invalid_message_rejected_not_fatal(self, setup):
        broker, keeper = setup
        broker.publish(TASK_TOPIC, {"task_id": "", "status": "FINISHED"})
        assert keeper.processed_count == 0
        assert len(keeper.rejected) == 1
        assert not broker.delivery_errors  # rejection is not an exception

    def test_stop_detaches(self, setup):
        broker, keeper = setup
        keeper.stop()
        broker.publish(TASK_TOPIC, task_payload())
        assert keeper.processed_count == 0

    def test_context_manager(self):
        broker = InProcessBroker()
        with ProvenanceKeeper(broker) as keeper:
            broker.publish(TASK_TOPIC, task_payload())
            assert keeper.processed_count == 1
        broker.publish(TASK_TOPIC, task_payload("t2"))
        assert keeper.processed_count == 1


class TestProvProjection:
    def test_activity_and_entities_created(self, setup):
        broker, keeper = setup
        broker.publish(TASK_TOPIC, task_payload())
        assert "t1" in keeper.prov
        assert "t1/used/x" in keeper.prov
        assert "t1/generated/y" in keeper.prov

    def test_agent_association_recorded(self, setup):
        broker, keeper = setup
        broker.publish(
            TASK_TOPIC,
            task_payload(type="tool_execution", agent_id="prov-agent"),
        )
        assert keeper.prov.activities_of_agent("prov-agent") == ["t1"]

    def test_informed_by_links_llm_to_tool(self, setup):
        broker, keeper = setup
        broker.publish(TASK_TOPIC, task_payload("tool-1", type="tool_execution"))
        broker.publish(
            TASK_TOPIC,
            task_payload("llm-1", type="llm_interaction", informed_by="tool-1"),
        )
        rels = keeper.prov.relations(RelationKind.WAS_INFORMED_BY)
        assert len(rels) == 1 and rels[0].subject == "llm-1"

    def test_prov_document_optional(self):
        broker = InProcessBroker()
        keeper = ProvenanceKeeper(broker, build_prov_document=False)
        keeper.start()
        broker.publish(TASK_TOPIC, task_payload())
        assert keeper.prov is None
        assert keeper.processed_count == 1


class TestProvViewIsPaidForByItsReader:
    """``keeper.prov`` replays accepted documents on access; what it shows
    must equal a ``ProvDocument`` grown eagerly, message by message."""

    @staticmethod
    def _eager(payloads):
        from repro.provenance.keeper import _record_prov, normalise_payload
        from repro.provenance.prov import ProvDocument

        prov = ProvDocument()
        for payload in payloads:
            doc, _reason = normalise_payload(payload)
            if doc is not None:
                _record_prov(prov, doc)
        return prov

    @staticmethod
    def _same(a, b):
        # nodes carry their attributes; both lists carry order
        assert a.nodes() == b.nodes()
        assert a.relations() == b.relations()

    @staticmethod
    def _stream():
        return [
            # llm-0 names an informer that has not arrived yet: no relation
            task_payload("llm-0", type="llm_interaction", informed_by="tool-1", agent_id="ag"),
            task_payload("tool-1", type="tool_execution", agent_id="ag"),
            task_payload("llm-1", type="llm_interaction", informed_by="tool-1", agent_id="ag"),
            task_payload("t1", status="RUNNING", ended_at=None, generated={}),
            task_payload("bad", status="DONE"),  # rejected: never projected
            task_payload("t1", used={"x": 4, "z": [1, 2]}),  # lifecycle re-delivery
            task_payload("t2", used={"blob": "v" * 300}),
        ]

    @pytest.mark.parametrize("batch_size", [1, 3, 100])
    def test_read_after_batches_equals_eager(self, setup, batch_size):
        broker, keeper = setup
        stream = self._stream()
        for i in range(0, len(stream), batch_size):
            broker.publish_batch(TASK_TOPIC, stream[i : i + batch_size])
        self._same(keeper.prov, self._eager(stream))
        informed = keeper.prov.relations(RelationKind.WAS_INFORMED_BY)
        assert [(r.subject, r.obj) for r in informed] == [("llm-1", "tool-1")]

    def test_reads_interleaved_with_ingest(self, setup):
        broker, keeper = setup
        stream = self._stream()
        document = keeper.prov
        assert len(document) == 0
        for i, payload in enumerate(stream):
            broker.publish(TASK_TOPIC, payload)
            if i % 2:
                self._same(keeper.prov, self._eager(stream[: i + 1]))
        assert keeper.prov is document  # one document, grown in place
        self._same(document, self._eager(stream))
        self._same(keeper.prov, self._eager(stream))  # a second read adds nothing

    def test_single_and_batch_ingest_project_alike(self):
        stream = self._stream()
        single = ProvenanceKeeper(InProcessBroker())
        for payload in stream:
            single.ingest(payload)
        batch = ProvenanceKeeper(InProcessBroker())
        batch.ingest_batch(stream)
        self._same(single.prov, batch.prov)

    def test_disabled_projection_stays_none_and_retains_nothing(self):
        keeper = ProvenanceKeeper(InProcessBroker(), build_prov_document=False)
        keeper.ingest_batch(self._stream())
        assert keeper.prov is None
        assert keeper._prov_pending == []

    def test_projection_holds_the_documents_handed_to_the_store(self):
        seen = []
        keeper = ProvenanceKeeper(InProcessBroker())
        original = keeper.database.upsert_many
        keeper.database.upsert_many = lambda docs, key_field="task_id": (
            seen.extend(docs), original(docs, key_field=key_field)
        )[1]
        keeper.ingest_batch(self._stream())
        assert [id(d) for d in keeper._prov_pending] == [id(d) for d in seen]

    def test_four_ingesting_threads_and_a_reader(self):
        import threading

        keeper = ProvenanceKeeper(InProcessBroker())
        per_thread = [
            [
                task_payload(f"w{w}-t{i}", used={"i": i}, agent_id=f"agent-{w}",
                             type="tool_execution")
                for i in range(120)
            ]
            for w in range(4)
        ]
        stop, sizes, errors = threading.Event(), [], []

        def ingest(payloads):
            try:
                for i in range(0, len(payloads), 8):
                    keeper.ingest_batch(payloads[i : i + 8])
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        def read():
            try:
                while not stop.is_set():
                    sizes.append(len(keeper.prov))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        reader = threading.Thread(target=read)
        writers = [threading.Thread(target=ingest, args=(p,)) for p in per_thread]
        reader.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join(timeout=60)
        stop.set()
        reader.join(timeout=60)
        assert not reader.is_alive() and not any(t.is_alive() for t in writers)
        assert errors == []
        assert sizes == sorted(sizes)  # the view only ever grows

        eager = self._eager([p for payloads in per_thread for p in payloads])
        key = lambda node: repr(node)  # noqa: E731 - acceptance order is racy
        assert sorted(keeper.prov.nodes(), key=key) == sorted(eager.nodes(), key=key)
        assert sorted(map(repr, keeper.prov.relations())) == sorted(
            map(repr, eager.relations())
        )
        for w in range(4):  # per producer, order is preserved
            assert keeper.prov.activities_of_agent(f"agent-{w}") == [
                f"w{w}-t{i}" for i in range(120)
            ]


class TestDistributedKeepers:
    def test_two_keepers_both_ingest(self):
        broker = InProcessBroker()
        k1 = ProvenanceKeeper(broker, keeper_id="k1")
        k2 = ProvenanceKeeper(broker, keeper_id="k2")
        k1.start(), k2.start()
        broker.publish(TASK_TOPIC, task_payload())
        assert k1.processed_count == 1
        assert k2.processed_count == 1


class TestIngestStats:
    def test_stats_snapshot_counts_accepted_and_rejected(self, setup):
        broker, keeper = setup
        broker.publish_batch(
            TASK_TOPIC,
            [
                task_payload("t1"),
                {"task_id": "", "status": "FINISHED"},  # schema violation
                task_payload("t-bad", used=5),  # malformed
                task_payload("t2"),
            ],
        )
        stats = keeper.stats()
        assert stats["keeper_id"] == keeper.keeper_id
        assert stats["accepted"] == 2
        assert stats["rejected"] == 2
        assert stats["rejection_reasons"]["malformed payload"] == 1
        assert sum(stats["rejection_reasons"].values()) == 2

    def test_stats_is_a_snapshot_not_a_live_view(self, setup):
        broker, keeper = setup
        broker.publish(TASK_TOPIC, task_payload())
        snap = keeper.stats()
        broker.publish(TASK_TOPIC, task_payload("t2"))
        assert snap["accepted"] == 1
        assert keeper.stats()["accepted"] == 2

    def test_schema_reasons_keep_their_message(self, setup):
        broker, keeper = setup
        broker.publish(TASK_TOPIC, {"task_id": "", "status": "FINISHED"})
        reasons = keeper.stats()["rejection_reasons"]
        assert len(reasons) == 1
        (reason,) = reasons
        assert "malformed" not in reason

    def test_reason_buckets_fold_embedded_payload_values(self, setup):
        # reasons embedding task ids / bad values must share one bucket,
        # not mint a new one per rejected message
        broker, keeper = setup
        for i in range(20):
            broker.publish(
                TASK_TOPIC,
                task_payload(f"skewed-{i}", started_at=10.0, ended_at=1.0),
            )
            broker.publish(TASK_TOPIC, task_payload(f"odd-{i}", status=f"BOGUS-{i}"))
        reasons = keeper.stats()["rejection_reasons"]
        assert len(reasons) == 2
        assert sum(reasons.values()) == 40

    def test_concurrent_batches_account_exactly(self):
        import threading

        keeper = ProvenanceKeeper(InProcessBroker())
        n_threads, per_thread = 4, 60

        def writer(worker):
            for i in range(0, per_thread, 10):
                keeper.ingest_batch(
                    [
                        task_payload(f"w{worker}-t{i + j}")
                        for j in range(8)
                    ]
                    + [{"task_id": "", "status": "FINISHED"}] * 2
                )

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = keeper.stats()
        assert stats["accepted"] == n_threads * (per_thread // 10) * 8
        assert stats["rejected"] == n_threads * (per_thread // 10) * 2
        assert len(keeper.database) == stats["accepted"]

    def test_keeper_over_sharded_store_groups_per_shard(self):
        from repro.storage import ShardedProvenanceStore

        store = ShardedProvenanceStore(4, ingest_parallel_min=1)
        keeper = ProvenanceKeeper(InProcessBroker(), store)
        keeper.ingest_batch(
            [task_payload(f"t{i}", workflow_id=f"wf-{i % 6}") for i in range(30)]
        )
        assert len(store) == 30
        assert sum(len(s) > 0 for s in store.shards) > 1  # actually spread
        assert keeper.stats()["accepted"] == 30
