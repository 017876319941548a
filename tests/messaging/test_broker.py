"""Tests for the in-process broker."""

from __future__ import annotations

import threading

import pytest

from repro.errors import BrokerClosedError
from repro.messaging.broker import (
    InProcessBroker,
    KAFKA_LIKE,
    MOFKA_LIKE,
    REDIS_LIKE,
)


@pytest.fixture
def broker() -> InProcessBroker:
    return InProcessBroker()


class TestPublishSubscribe:
    def test_delivery_to_matching_subscriber(self, broker):
        got = []
        broker.subscribe("provenance.task", got.append)
        broker.publish("provenance.task", {"x": 1})
        assert len(got) == 1
        assert got[0].payload == {"x": 1}

    def test_no_delivery_to_non_matching(self, broker):
        got = []
        broker.subscribe("provenance.anomaly", got.append)
        broker.publish("provenance.task", {"x": 1})
        assert got == []

    def test_wildcard_subscription(self, broker):
        got = []
        broker.subscribe("provenance.#", got.append)
        broker.publish("provenance.task", {"a": 1})
        broker.publish("provenance.anomaly", {"b": 2})
        assert len(got) == 2

    def test_unsubscribe_stops_delivery(self, broker):
        got = []
        sub = broker.subscribe("provenance.task", got.append)
        broker.unsubscribe(sub)
        broker.publish("provenance.task", {})
        assert got == []

    def test_multiple_subscribers_all_receive(self, broker):
        a, b = [], []
        broker.subscribe("t.x", a.append)
        broker.subscribe("t.#", b.append)
        broker.publish("t.x", {})
        assert len(a) == 1 and len(b) == 1

    def test_headers_carried(self, broker):
        got = []
        broker.subscribe("t.x", got.append)
        broker.publish("t.x", {}, anomaly="cpu-outlier")
        assert got[0].headers["anomaly"] == "cpu-outlier"

    def test_seq_monotone(self, broker):
        got = []
        broker.subscribe("t.#", got.append)
        broker.publish("t.a", {})
        broker.publish("t.b", {})
        assert got[1].seq > got[0].seq


class TestBatchAndCost:
    def test_publish_batch_delivers_all(self, broker):
        got = []
        broker.subscribe("t.x", got.append)
        broker.publish_batch("t.x", [{"i": i} for i in range(10)])
        assert len(got) == 10

    def test_batch_cheaper_than_singles_for_kafka(self):
        payloads = [{"i": i, "blob": "x" * 50} for i in range(100)]
        single = InProcessBroker(profile=KAFKA_LIKE)
        for p in payloads:
            single.publish("t.x", p)
        batched = InProcessBroker(profile=KAFKA_LIKE)
        batched.publish_batch("t.x", payloads)
        assert batched.simulated_cost_s < single.simulated_cost_s

    def test_mofka_cheapest_redis_middle(self):
        payloads = [{"i": i} for i in range(50)]
        costs = {}
        for profile in (REDIS_LIKE, KAFKA_LIKE, MOFKA_LIKE):
            b = InProcessBroker(profile=profile)
            for p in payloads:
                b.publish("t.x", p)
            costs[profile.name] = b.simulated_cost_s
        assert costs["mofka-like"] < costs["redis-like"] < costs["kafka-like"]


class TestCostIsSummedWhenRead:
    """``simulated_cost_s`` sizes the retained log on access; it must read
    what charging every publish call eagerly would have accrued."""

    @staticmethod
    def _traffic(broker):
        """Mixed singles and batches; returns the eager, call-by-call cost."""
        eager = 0.0
        for i in range(30):
            if i % 3 == 0:
                envs = [broker.publish("t.x", {"i": i, "pad": "p" * i}, tag=i)]
            else:
                envs = broker.publish_batch(
                    "t.y", [{"i": i, "j": j, "nested": {"k": [j] * j}} for j in range(i % 7)]
                )
            eager += broker.profile.batch_cost(e.size_bytes() for e in envs)
        return eager

    @pytest.mark.parametrize("profile", [REDIS_LIKE, KAFKA_LIKE, MOFKA_LIKE])
    def test_equals_the_eager_formula(self, profile):
        broker = InProcessBroker(profile=profile)
        eager = self._traffic(broker)
        assert broker.simulated_cost_s == pytest.approx(eager, rel=1e-12)
        assert broker.simulated_cost_s == broker.simulated_cost_s  # stable

    @pytest.mark.parametrize("profile", [REDIS_LIKE, KAFKA_LIKE, MOFKA_LIKE])
    def test_reads_between_publishes_change_nothing(self, profile):
        broker = InProcessBroker(profile=profile)
        eager = 0.0
        for _ in range(3):
            eager += self._traffic(broker)
            assert broker.simulated_cost_s == pytest.approx(eager, rel=1e-12)

    def test_nothing_published_costs_nothing_and_it_is_read_only(self, broker):
        assert broker.simulated_cost_s == 0.0
        with pytest.raises(AttributeError):
            broker.simulated_cost_s = 1.0

    def test_an_empty_batch_still_pays_the_round_trip(self):
        broker = InProcessBroker(profile=KAFKA_LIKE)
        broker.publish_batch("t.x", [])
        assert broker.simulated_cost_s == pytest.approx(KAFKA_LIKE.batch_cost([]))


class TestPublishedPayloadsAreNeverMutated:
    """The contract sizing-on-read rests on: after publish, nobody — keeper,
    lineage index, context manager, store — writes to a payload."""

    def test_history_equals_copies_taken_at_publish_time(self):
        import copy

        from repro.agent.context_manager import ContextManager
        from repro.agent.recorder import AgentProvenanceRecorder
        from repro.capture.context import CaptureContext
        from repro.lineage.index import LineageIndex
        from repro.lineage.service import LineageService
        from repro.provenance.keeper import ProvenanceKeeper
        from repro.workflows.synthetic import run_synthetic_campaign

        snapshots = []

        class Snapshotting(InProcessBroker):
            eager_cost_s = 0.0

            def _enqueue(self, envs, *, batched):
                snapshots.extend(copy.deepcopy(e.payload) for e in envs)
                self.eager_cost_s += self.profile.batch_cost(e.size_bytes() for e in envs)
                return super()._enqueue(envs, batched=batched)

        ctx = CaptureContext(Snapshotting(), seed="immutable")
        keeper = ProvenanceKeeper(ctx.broker, lineage_index=LineageIndex())
        keeper.start()
        LineageService(ctx.broker).start()
        manager = ContextManager(ctx.broker, record_types=("task", "tool_execution")).start()
        run_synthetic_campaign(ctx, n_inputs=5, seed="immutable")
        run_synthetic_campaign(ctx, n_inputs=2, seed="immutable")  # same inputs again
        AgentProvenanceRecorder(ctx, agent_id="a", workflow_id="s").record_tool_execution(
            "tool", {"q": {"deep": [1]}}, {"rows": 1}, started_at=1.0, ended_at=2.0
        )
        ctx.flush()
        manager.to_frame()
        assert keeper.prov is not None and len(keeper.database) > 0

        history = ctx.broker.history()
        assert len(history) == len(snapshots) == 7 * 10 + 1
        assert [e.payload for e in history] == snapshots
        # so sizing the log now reads the bytes that were sent then
        assert ctx.broker.simulated_cost_s == pytest.approx(
            ctx.broker.eager_cost_s, rel=1e-12
        )


class TestResilience:
    def test_subscriber_exception_isolated(self, broker):
        def bad(_env):
            raise RuntimeError("consumer crashed")

        got = []
        broker.subscribe("t.x", bad)
        broker.subscribe("t.x", got.append)
        broker.publish("t.x", {})  # must not raise
        assert len(got) == 1
        assert len(broker.delivery_errors) == 1

    def test_closed_broker_rejects_publish(self, broker):
        broker.close()
        with pytest.raises(BrokerClosedError):
            broker.publish("t.x", {})

    def test_thread_safety_counts(self, broker):
        got = []
        lock = threading.Lock()

        def cb(env):
            with lock:
                got.append(env)

        broker.subscribe("t.#", cb)

        def publish_many(tid):
            for i in range(200):
                broker.publish(f"t.w{tid}", {"i": i})

        threads = [threading.Thread(target=publish_many, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(got) == 800
        assert broker.published_count == 800


class TestBatchSubscribers:
    def test_batch_callback_gets_one_call_per_batch(self, broker):
        singles, batches = [], []
        broker.subscribe("t.#", singles.append, batch_callback=batches.append)
        broker.publish_batch("t.a", [{"i": 1}, {"i": 2}, {"i": 3}])
        assert singles == []
        assert len(batches) == 1 and len(batches[0]) == 3
        assert broker.delivered_count == 3

    def test_single_publish_uses_plain_callback(self, broker):
        singles, batches = [], []
        broker.subscribe("t.#", singles.append, batch_callback=batches.append)
        broker.publish("t.a", {"i": 1})
        assert len(singles) == 1 and batches == []

    def test_single_element_batch_still_uses_batch_callback(self, broker):
        singles, batches = [], []
        broker.subscribe("t.#", singles.append, batch_callback=batches.append)
        broker.publish_batch("t.a", [{"i": 1}])
        assert singles == []
        assert len(batches) == 1 and len(batches[0]) == 1

    def test_plain_subscriber_still_gets_per_message_delivery(self, broker):
        singles = []
        broker.subscribe("t.#", singles.append)
        broker.publish_batch("t.a", [{"i": 1}, {"i": 2}])
        assert [e.payload["i"] for e in singles] == [1, 2]

    def test_batch_only_matching_envelopes(self, broker):
        batches = []
        broker.subscribe("t.a", lambda e: None, batch_callback=batches.append)
        broker.publish_batch("t.b", [{"i": 1}, {"i": 2}])
        assert batches == []

    def test_batch_callback_error_is_isolated(self, broker):
        def boom(envs):
            raise RuntimeError("consumer died")

        got = []
        broker.subscribe("t.#", lambda e: None, batch_callback=boom)
        broker.subscribe("t.#", got.append)
        broker.publish_batch("t.a", [{"i": 1}, {"i": 2}])
        assert len(got) == 2  # second subscriber unaffected
        # every envelope of the failed batch is accounted as lost
        assert len(broker.delivery_errors) == 2


class TestHistoryReplay:
    def test_history_filtered_by_pattern(self, broker):
        broker.publish("t.a", {"i": 1})
        broker.publish("t.b", {"i": 2})
        assert len(broker.history("t.a")) == 1
        assert len(broker.history("#")) == 2

    def test_replay_to_late_subscriber(self, broker):
        broker.publish("t.a", {"i": 1})
        got = []
        n = broker.replay("t.#", got.append)
        assert n == 1 and got[0].payload == {"i": 1}


class TestEnvelope:
    def test_json_roundtrip(self, broker):
        env = broker.publish("t.x", {"a": [1, 2], "b": "s"})
        from repro.messaging.message import Envelope

        back = Envelope.from_json(env.to_json())
        assert back.topic == env.topic
        assert back.payload == {"a": [1, 2], "b": "s"}

    def test_size_bytes_positive(self, broker):
        env = broker.publish("t.x", {"a": 1})
        assert env.size_bytes() > 20


class TestOutOfLockDelivery:
    """Publish must not hold the broker lock through subscriber code."""

    def test_slow_subscriber_does_not_convoy_other_publishers(self, broker):
        import time

        started = threading.Event()
        release = threading.Event()

        def slow(env):
            started.set()
            release.wait(5)

        broker.subscribe("slow.#", slow)
        got_fast = []
        broker.subscribe("fast.#", got_fast.append)

        t = threading.Thread(target=lambda: broker.publish("slow.1", {}))
        t.start()
        try:
            assert started.wait(5), "slow delivery never started"
            # pre-refactor this publish blocked on the broker lock until
            # the slow callback returned; now it completes immediately
            t0 = time.perf_counter()
            broker.publish("fast.1", {"i": 1})
            elapsed = time.perf_counter() - t0
            assert elapsed < 2.0, f"publisher convoyed for {elapsed:.1f}s"
            assert len(got_fast) == 1
            assert not release.is_set()
        finally:
            release.set()
            t.join(5)
        assert not t.is_alive()

    def test_racing_publishers_preserve_per_subscription_order(self, broker):
        received = []
        broker.subscribe("t.#", received.append)
        n_each = 300

        def publisher(pid: int) -> None:
            for i in range(n_each):
                broker.publish(f"t.p{pid}", {"pid": pid, "i": i})

        threads = [threading.Thread(target=publisher, args=(p,)) for p in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(received) == 4 * n_each
        assert broker.delivered_count == 4 * n_each
        # delivery order equals the broker's global log order...
        log_keys = [(e.payload["pid"], e.payload["i"]) for e in broker.history("t.#")]
        got_keys = [(e.payload["pid"], e.payload["i"]) for e in received]
        assert got_keys == log_keys
        # ...and therefore each publisher's stream arrives in order
        for pid in range(4):
            stream = [i for p, i in got_keys if p == pid]
            assert stream == list(range(n_each))

    def test_racing_batch_publishers_keep_batches_intact(self, broker):
        batches = []
        broker.subscribe(
            "t.#", lambda e: None, batch_callback=batches.append
        )

        def publisher(pid: int) -> None:
            for i in range(50):
                broker.publish_batch(
                    f"t.p{pid}", [{"pid": pid, "i": i, "k": k} for k in range(4)]
                )

        threads = [threading.Thread(target=publisher, args=(p,)) for p in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(batches) == 200  # one callback per publish_batch call
        assert all(len(b) == 4 for b in batches)
        # batches from one publisher arrive in publish order
        for pid in range(4):
            seq = [b[0].payload["i"] for b in batches if b[0].payload["pid"] == pid]
            assert seq == sorted(seq)
        assert broker.delivered_count == 800

    def test_callback_publishing_reentrantly_still_delivers_in_order(self, broker):
        got = []

        def chain(env):
            got.append(env.topic)
            if env.payload.get("hop", 0) < 3:
                broker.publish("t.chain", {"hop": env.payload.get("hop", 0) + 1})

        broker.subscribe("t.#", chain)
        broker.publish("t.chain", {"hop": 0})
        assert got == ["t.chain"] * 4
