"""Tests for client-side buffering and flush strategies."""

from __future__ import annotations

import threading

import pytest

from repro.messaging.broker import InProcessBroker
from repro.messaging.buffer import (
    HybridFlush,
    IntervalFlush,
    MessageBuffer,
    SizeFlush,
)
from repro.utils.clock import VirtualClock


@pytest.fixture
def broker():
    return InProcessBroker()


class TestSizeFlush:
    def test_flushes_at_threshold(self, broker):
        buf = MessageBuffer(broker, "t.x", SizeFlush(3))
        assert buf.append({"i": 0}) is False
        assert buf.append({"i": 1}) is False
        assert buf.append({"i": 2}) is True
        assert buf.pending == 0
        assert broker.published_count == 3

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            SizeFlush(0)


class TestIntervalFlush:
    def test_flushes_when_aged(self, broker):
        clock = VirtualClock(start=0.0)
        buf = MessageBuffer(broker, "t.x", IntervalFlush(5.0), clock=clock)
        buf.append({"i": 0})
        assert broker.published_count == 0
        clock.advance(6.0)
        assert buf.poll() is True
        assert broker.published_count == 1

    def test_poll_before_age_is_noop(self, broker):
        clock = VirtualClock(start=0.0)
        buf = MessageBuffer(broker, "t.x", IntervalFlush(5.0), clock=clock)
        buf.append({"i": 0})
        clock.advance(1.0)
        assert buf.poll() is False

    def test_age_resets_after_flush(self, broker):
        clock = VirtualClock(start=0.0)
        buf = MessageBuffer(broker, "t.x", IntervalFlush(5.0), clock=clock)
        buf.append({"i": 0})
        clock.advance(6.0)
        buf.poll()
        buf.append({"i": 1})
        assert buf.poll() is False  # new epoch, not yet aged

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            IntervalFlush(0)


class TestHybridFlush:
    def test_size_triggers_first(self, broker):
        clock = VirtualClock(start=0.0)
        buf = MessageBuffer(broker, "t.x", HybridFlush(2, 100.0), clock=clock)
        buf.append({})
        assert buf.append({}) is True

    def test_age_triggers_when_small(self, broker):
        clock = VirtualClock(start=0.0)
        buf = MessageBuffer(broker, "t.x", HybridFlush(100, 5.0), clock=clock)
        buf.append({})
        clock.advance(10.0)
        assert buf.poll() is True


class TestExplicitFlush:
    def test_flush_returns_count(self, broker):
        buf = MessageBuffer(broker, "t.x", SizeFlush(100))
        buf.append({})
        buf.append({})
        assert buf.flush() == 2
        assert buf.flush() == 0

    def test_close_flushes_remainder(self, broker):
        buf = MessageBuffer(broker, "t.x", SizeFlush(100))
        buf.append({})
        buf.close()
        assert broker.published_count == 1

    def test_counters(self, broker):
        buf = MessageBuffer(broker, "t.x", SizeFlush(2))
        for i in range(5):
            buf.append({"i": i})
        buf.flush()
        assert buf.appended_count == 5
        assert buf.flush_count == 3  # 2 + 2 + 1


class TestReentrantDelivery:
    """Flush publishes outside the buffer lock (the provlint
    blocking-call-under-lock finding): a subscriber callback may
    re-enter the buffer without deadlocking on its non-reentrant lock.
    """

    def test_callback_appending_back_does_not_deadlock(self, broker):
        buf = MessageBuffer(broker, "t.x", SizeFlush(1))
        echoed = []

        def echo(env):
            # re-enter the buffer from inside delivery; this append
            # itself triggers another flush
            if not env.payload.get("echo"):
                echoed.append(env.payload["i"])
                buf.append({"i": env.payload["i"], "echo": True})

        broker.subscribe("t.x", echo)

        worker = threading.Thread(target=buf.append, args=({"i": 1},))
        worker.start()
        worker.join(timeout=5)
        assert not worker.is_alive(), "re-entrant append deadlocked"
        assert echoed == [1]
        assert broker.published_count == 2  # original + echo
        assert buf.pending == 0

    def test_reentrant_batches_drain_in_order(self, broker):
        buf = MessageBuffer(broker, "t.x", SizeFlush(1))
        seen = []

        def record(env):
            seen.append(env.payload["n"])
            n = env.payload["n"]
            if n < 3:
                buf.append({"n": n + 1})

        broker.subscribe("t.x", record)
        done = threading.Event()

        def kick():
            buf.append({"n": 0})
            done.set()

        worker = threading.Thread(target=kick)
        worker.start()
        worker.join(timeout=5)
        assert done.is_set(), "chained re-entrant flushes deadlocked"
        assert seen == [0, 1, 2, 3]

    def test_flush_failure_releases_the_drainer(self, broker):
        buf = MessageBuffer(broker, "t.x", SizeFlush(100))
        calls = []

        def explode(env):
            calls.append(env.payload)
            raise RuntimeError("subscriber bug")

        broker.subscribe("t.x", explode)
        buf.append({"i": 0})
        buf.flush()  # broker contains delivery errors; must not wedge
        assert calls
        # the drainer flag was reset: the next flush still publishes
        buf.append({"i": 1})
        assert buf.flush() == 1
        assert broker.published_count == 2
