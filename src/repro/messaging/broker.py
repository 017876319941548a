"""Brokers: thread-safe topic pub/sub with pluggable cost profiles.

:class:`InProcessBroker` delivers synchronously to callback subscribers
(deterministic, easy to test) while remaining thread-safe for the
workflow engine's worker threads.  A :class:`BrokerProfile` attaches a
*simulated* cost model — per-publish latency, per-byte cost, and batch
amortisation — mirroring the trade-offs the paper names for Redis
(low-latency, minimal setup), Kafka (high-throughput batching), and
Mofka (RDMA-optimised transport).  Costs accrue on a virtual clock so
benchmarks can compare brokers without real network I/O.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.errors import BrokerClosedError
from repro.messaging.message import Envelope
from repro.messaging.pubsub import topic_matches, validate_pattern, validate_topic
from repro.utils.clock import Clock, VirtualClock

__all__ = [
    "Broker",
    "BrokerProfile",
    "InProcessBroker",
    "Subscription",
    "REDIS_LIKE",
    "KAFKA_LIKE",
    "MOFKA_LIKE",
]


@dataclass(frozen=True)
class BrokerProfile:
    """Simulated transport cost model.

    ``batch_overhead_s`` is paid once per publish *call* (request/ack
    round trip), ``per_message_s`` once per message inside the call, and
    ``per_byte_s`` scales with payload size.  Large batches therefore
    amortise the call overhead — which is exactly Kafka's trade-off:
    expensive round trips, cheap records.
    """

    name: str
    per_message_s: float
    per_byte_s: float
    batch_overhead_s: float

    def batch_cost(self, sizes: Iterable[int]) -> float:
        sizes = list(sizes)
        return (
            self.batch_overhead_s
            + len(sizes) * self.per_message_s
            + sum(sizes) * self.per_byte_s
        )


# Profiles express *relative* behaviour (paper §2.3): Redis — cheap
# round trips, fine for singles with minimal setup; Kafka — expensive
# round trips but tiny per-record cost, so batch amortisation wins at
# volume; Mofka — RDMA-like, cheapest overall on tightly coupled HPC
# networks.
REDIS_LIKE = BrokerProfile("redis-like", 50e-6, 2e-9, 10e-6)
KAFKA_LIKE = BrokerProfile("kafka-like", 10e-6, 0.5e-9, 400e-6)
MOFKA_LIKE = BrokerProfile("mofka-like", 5e-6, 0.2e-9, 2e-6)


@dataclass
class Subscription:
    """Handle returned by :meth:`Broker.subscribe`; use to unsubscribe.

    ``batch_callback`` is optional: subscribers that can consume a whole
    batch in one call (e.g. the Provenance Keeper's batched upsert path)
    receive one ``batch_callback(envelopes)`` per matching batch publish
    instead of N ``callback(envelope)`` invocations.

    The private fields implement out-of-lock delivery: matching
    envelopes are *enqueued* to ``_pending`` under the broker lock
    (which fixes the per-subscription order), then delivered outside it
    by whichever publisher thread owns the ``_delivering`` flag — so a
    slow consumer convoys neither other publishers nor other
    subscriptions.
    """

    pattern: str
    callback: Callable[[Envelope], None]
    sid: int
    batch_callback: Callable[[list[Envelope]], None] | None = None
    #: FIFO of ("single", Envelope) / ("batch", [Envelope, ...]) items
    _pending: deque = field(default_factory=deque, repr=False)
    #: True while one thread is draining ``_pending`` (others enqueue only)
    _delivering: bool = field(default=False, repr=False)
    _dlock: threading.Lock = field(default_factory=threading.Lock, repr=False)


class Broker(ABC):
    """Interface every hub backend implements."""

    @abstractmethod
    def publish(self, topic: str, payload: Mapping[str, Any], **headers: Any) -> Envelope:
        ...

    @abstractmethod
    def publish_batch(self, topic: str, payloads: Iterable[Mapping[str, Any]]) -> list[Envelope]:
        ...

    @abstractmethod
    def subscribe(
        self,
        pattern: str,
        callback: Callable[[Envelope], None],
        *,
        batch_callback: Callable[[list[Envelope]], None] | None = None,
    ) -> Subscription:
        ...

    @abstractmethod
    def unsubscribe(self, subscription: Subscription) -> None:
        ...

    @abstractmethod
    def close(self) -> None:
        ...


class InProcessBroker(Broker):
    """Synchronous-delivery, thread-safe in-process broker.

    Delivery happens inside :meth:`publish` on the caller's thread;
    subscriber exceptions are captured into :attr:`delivery_errors`
    rather than propagated to publishers (a failed consumer must not
    break a running HPC job — the capture layer is non-intrusive).
    """

    def __init__(self, profile: BrokerProfile = REDIS_LIKE, clock: Clock | None = None):
        self.profile = profile
        # explicit None check: a clock at time zero compares falsy
        self.clock = clock if clock is not None else VirtualClock()
        self._subs: dict[int, Subscription] = {}
        self._next_sid = 0
        self._lock = threading.RLock()
        self._closed = False
        self.published_count = 0
        self.delivered_count = 0
        self.delivery_errors: list[tuple[Envelope, BaseException]] = []
        self._log: list[Envelope] = []
        # simulated cost: counted here on publish, sized on read
        self._publish_calls = 0
        self._log_bytes = 0
        self._log_sized = 0  # how much of ``_log`` ``_log_bytes`` covers

    # -- publishing ------------------------------------------------------------
    #
    # Publish is split in two so the global lock is held only for
    # bookkeeping, never through subscriber code: under the lock the
    # envelopes are logged and *enqueued* onto each matching
    # subscription's FIFO (which pins the per-subscription delivery
    # order to the global publish order); outside the lock the caller
    # drains those queues, with a per-subscription ``_delivering`` flag
    # guaranteeing one drainer at a time.  Concurrent publishers
    # therefore serialise only on the cheap enqueue — a slow subscriber
    # blocks neither other publishers nor other subscriptions — while
    # each subscriber still observes every message exactly once, in
    # order, and (in the single-threaded case) synchronously within the
    # publish call, exactly as before.
    #
    # Consistency caveat: when ANOTHER thread currently owns a
    # subscription's drain, publish() returns after enqueueing and that
    # thread completes the delivery moments later.  Concurrent
    # publishers therefore get per-subscription ordered, at-most-
    # briefly-deferred delivery rather than strict read-your-writes —
    # the trade the paper's asynchronous bulk-streaming hub makes
    # anyway (capture must never block on consumers).  Single-threaded
    # publishers keep the old synchronous behaviour.
    def publish(self, topic: str, payload: Mapping[str, Any], **headers: Any) -> Envelope:
        validate_topic(topic)
        with self._lock:
            self._ensure_open()
            env = Envelope(
                topic=topic,
                payload=payload,
                published_at=self.clock.now(),
                headers=headers,
            )
            targets = self._enqueue([env], batched=False)
        for sub in targets:
            self._drain(sub)
        return env

    def publish_batch(
        self, topic: str, payloads: Iterable[Mapping[str, Any]]
    ) -> list[Envelope]:
        validate_topic(topic)
        with self._lock:
            self._ensure_open()
            now = self.clock.now()
            envs = [
                Envelope(topic=topic, payload=p, published_at=now) for p in payloads
            ]
            targets = self._enqueue(envs, batched=True)
        for sub in targets:
            self._drain(sub)
        return envs

    def _enqueue(
        self, envs: list[Envelope], *, batched: bool
    ) -> list[Subscription]:
        """Log the envelopes and queue matching delivery work (under lock).

        Returns the subscriptions that received new work, in
        registration order.  Batch publishes enqueue one ``("batch",
        envelopes)`` item for batch-capable subscribers — one callback
        per batch, regardless of size — and per-envelope items
        otherwise.
        """
        self.published_count += len(envs)
        self._log.extend(envs)
        self._publish_calls += 1
        targets: list[Subscription] = []
        for sub in self._subs.values():
            matched = [e for e in envs if topic_matches(sub.pattern, e.topic)]
            if not matched:
                continue
            if batched and sub.batch_callback is not None:
                sub._pending.append(("batch", matched))
            else:
                sub._pending.extend(("single", e) for e in matched)
            targets.append(sub)
        return targets

    def _drain(self, sub: Subscription) -> None:
        """Deliver ``sub``'s queued items until empty (outside the lock).

        The ``_delivering`` flag admits one drainer at a time; losing
        the race is fine because the winner cannot observe the queue
        empty (and release ownership) without seeing items we enqueued
        first — emptiness check and flag release happen in one
        ``_dlock`` section, and every enqueue precedes its ``_drain``
        call.
        """
        with sub._dlock:
            if sub._delivering or not sub._pending:
                return
            sub._delivering = True
        try:
            while True:
                with sub._dlock:
                    if not sub._pending:
                        sub._delivering = False
                        return
                    item = sub._pending.popleft()
                self._deliver_item(sub, item)
        except BaseException:  # pragma: no cover - interpreter shutdown paths
            with sub._dlock:
                sub._delivering = False
            raise

    def _deliver_item(self, sub: Subscription, item: tuple[str, Any]) -> None:
        kind, data = item
        if kind == "batch":
            try:
                sub.batch_callback(data)  # type: ignore[misc]
                with self._lock:
                    self.delivered_count += len(data)
            except Exception as exc:  # noqa: BLE001 - consumer isolation
                # every envelope in the failed batch is a lost message
                with self._lock:
                    self.delivery_errors.extend((env, exc) for env in data)
        else:
            self._deliver_one(sub, data)

    def _deliver_one(self, sub: Subscription, env: Envelope) -> None:
        try:
            sub.callback(env)
            with self._lock:
                self.delivered_count += 1
        except Exception as exc:  # noqa: BLE001 - consumer isolation
            with self._lock:
                self.delivery_errors.append((env, exc))

    # -- subscriptions ------------------------------------------------------------
    def subscribe(
        self,
        pattern: str,
        callback: Callable[[Envelope], None],
        *,
        batch_callback: Callable[[list[Envelope]], None] | None = None,
    ) -> Subscription:
        validate_pattern(pattern)
        with self._lock:
            self._ensure_open()
            sub = Subscription(pattern, callback, self._next_sid, batch_callback)
            self._subs[self._next_sid] = sub
            self._next_sid += 1
            return sub

    def unsubscribe(self, subscription: Subscription) -> None:
        with self._lock:
            self._subs.pop(subscription.sid, None)

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subs)

    # -- replay / introspection ------------------------------------------------------
    @property
    def simulated_cost_s(self) -> float:
        """Transport cost of everything published so far under ``profile``.

        Payloads are immutable once published (the :class:`Envelope`
        contract), so sizing them here, after the fact, reads the bytes
        that were sent.
        """
        with self._lock:
            unsized = self._log[self._log_sized:]
            self._log_bytes += sum(env.size_bytes() for env in unsized)
            self._log_sized = len(self._log)
            return (
                self._publish_calls * self.profile.batch_overhead_s
                + self.published_count * self.profile.per_message_s
                + self._log_bytes * self.profile.per_byte_s
            )

    def history(self, pattern: str = "#") -> list[Envelope]:
        """Messages retained by the broker that match ``pattern``."""
        validate_pattern(pattern)
        with self._lock:
            return [e for e in self._log if topic_matches(pattern, e.topic)]

    def replay(self, pattern: str, callback: Callable[[Envelope], None]) -> int:
        """Deliver retained history to a late subscriber; returns count."""
        matched = self.history(pattern)
        for env in matched:
            callback(env)
        return len(matched)

    # -- lifecycle -------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._subs.clear()

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise BrokerClosedError("broker is closed")
