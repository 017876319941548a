"""Client-side message buffering with configurable flush strategies.

To reduce interference with HPC applications, instrumented tasks do not
publish provenance per message: they append to an in-memory buffer that
flushes in bulk (paper §2.3 / §4.1).  Strategies:

* :class:`SizeFlush` — flush when the buffer holds N messages;
* :class:`IntervalFlush` — flush when the clock says the buffer is older
  than T seconds;
* :class:`HybridFlush` — whichever triggers first.

Flushes also happen explicitly on :meth:`MessageBuffer.flush` and on
:meth:`MessageBuffer.close` so no message is lost at workflow shutdown.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Any, Mapping

from repro.messaging.broker import Broker
from repro.utils.clock import Clock, VirtualClock

__all__ = ["FlushStrategy", "SizeFlush", "IntervalFlush", "HybridFlush", "MessageBuffer"]


class FlushStrategy(ABC):
    """Decides whether a buffer should flush after an append."""

    @abstractmethod
    def should_flush(self, pending: int, oldest_age_s: float) -> bool:
        ...


class SizeFlush(FlushStrategy):
    def __init__(self, max_messages: int):
        if max_messages < 1:
            raise ValueError("max_messages must be >= 1")
        self.max_messages = max_messages

    def should_flush(self, pending: int, oldest_age_s: float) -> bool:
        return pending >= self.max_messages


class IntervalFlush(FlushStrategy):
    def __init__(self, max_age_s: float):
        if max_age_s <= 0:
            raise ValueError("max_age_s must be positive")
        self.max_age_s = max_age_s

    def should_flush(self, pending: int, oldest_age_s: float) -> bool:
        return pending > 0 and oldest_age_s >= self.max_age_s


class HybridFlush(FlushStrategy):
    def __init__(self, max_messages: int, max_age_s: float):
        self._size = SizeFlush(max_messages)
        self._interval = IntervalFlush(max_age_s)

    def should_flush(self, pending: int, oldest_age_s: float) -> bool:
        return self._size.should_flush(pending, oldest_age_s) or (
            self._interval.should_flush(pending, oldest_age_s)
        )


class MessageBuffer:
    """Accumulates payloads for one topic and flushes them in batches."""

    def __init__(
        self,
        broker: Broker,
        topic: str,
        strategy: FlushStrategy | None = None,
        clock: Clock | None = None,
    ):
        self.broker = broker
        self.topic = topic
        # explicit None checks: a caller's strategy/clock may compare
        # falsy (e.g. a clock at time zero) and must not be replaced
        self.strategy = strategy if strategy is not None else SizeFlush(64)
        self.clock = clock if clock is not None else VirtualClock()
        self._pending: list[Mapping[str, Any]] = []
        self._oldest_at: float | None = None
        self._lock = threading.Lock()
        # flushed batches queue here and are published OUTSIDE the lock
        # (the broker delivers synchronously to subscriber callbacks; a
        # callback that re-enters this buffer must not deadlock on the
        # non-reentrant lock — same enqueue-then-drain split as
        # InProcessBroker)
        self._outbox: list[list[Mapping[str, Any]]] = []
        self._draining = False
        self.flush_count = 0
        self.appended_count = 0

    def append(self, payload: Mapping[str, Any]) -> bool:
        """Add a payload; returns True if this append triggered a flush."""
        with self._lock:
            self._pending.append(payload)
            self.appended_count += 1
            if self._oldest_at is None:
                self._oldest_at = self.clock.now()
            flushed = self.strategy.should_flush(
                len(self._pending), self._age()
            )
            if flushed:
                self._enqueue_flush_locked()
        if flushed:
            self._drain_outbox()
        return flushed

    def poll(self) -> bool:
        """Time-based check (call periodically); flushes if the buffer aged out."""
        with self._lock:
            flushed = bool(self._pending) and self.strategy.should_flush(
                len(self._pending), self._age()
            )
            if flushed:
                self._enqueue_flush_locked()
        if flushed:
            self._drain_outbox()
        return flushed

    def flush(self) -> int:
        """Flush unconditionally; returns the number of messages published."""
        with self._lock:
            n = len(self._pending)
            if n:
                self._enqueue_flush_locked()
        if n:
            self._drain_outbox()
        return n

    def close(self) -> None:
        self.flush()

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._pending)

    def _age(self) -> float:
        if self._oldest_at is None:
            return 0.0
        return self.clock.now() - self._oldest_at

    def _enqueue_flush_locked(self) -> None:
        """Move the pending batch to the outbox (caller holds the lock)."""
        self._outbox.append(self._pending)
        self._pending = []
        self._oldest_at = None
        self.flush_count += 1

    def _drain_outbox(self) -> None:
        """Publish queued batches with the lock released.

        Single-drainer: the thread that flips ``_draining`` publishes
        every batch in the outbox, including batches enqueued while it
        was publishing (a subscriber callback that re-enters ``append``
        only queues; its batch is delivered by the active drainer, in
        order, without re-acquiring the lock around broker delivery).
        """
        with self._lock:
            if self._draining:
                return
            self._draining = True
        try:
            while True:
                with self._lock:
                    if not self._outbox:
                        self._draining = False
                        return
                    batch = self._outbox.pop(0)
                self.broker.publish_batch(self.topic, batch)
        except BaseException:
            with self._lock:
                self._draining = False
            raise
