"""Bounded most-recent latency samples with percentile snapshots.

The one reservoir behind ``gateway.stats()`` (per endpoint) and
``LLMServer.stats()``: a sorted list paired with a FIFO, so eviction
drops the *oldest* sample and percentiles are an index into the sorted
list.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque

__all__ = ["LatencyReservoir"]

#: reservoir bound: enough for stable tail percentiles, small enough
#: that insort stays cheap on the request path
_MAX_LATENCY_SAMPLES = 4096


class LatencyReservoir:
    """The last ``_MAX_LATENCY_SAMPLES`` samples, kept sorted.

    Not thread-safe on its own — owners call it under their stats lock.
    ``count`` is every sample ever added, evicted ones included.
    """

    __slots__ = ("_sorted", "_fifo", "count")

    def __init__(self) -> None:
        self._sorted: list[float] = []
        self._fifo: deque[float] = deque()
        self.count = 0

    def add(self, value: float) -> None:
        self.count += 1
        if len(self._fifo) >= _MAX_LATENCY_SAMPLES:
            oldest = self._fifo.popleft()
            i = bisect_left(self._sorted, oldest)
            if i < len(self._sorted) and self._sorted[i] == oldest:
                self._sorted.pop(i)
        self._fifo.append(value)
        insort(self._sorted, value)

    def snapshot(self) -> dict[str, float | None]:
        """Percentiles (seconds) over the retained samples; ``None`` when empty."""
        lat = self._sorted
        n = len(lat)
        return {
            "latency_p50_s": lat[int(0.50 * (n - 1))] if n else None,
            "latency_p90_s": lat[int(0.90 * (n - 1))] if n else None,
            "latency_p99_s": lat[int(0.99 * (n - 1))] if n else None,
            "latency_max_s": lat[-1] if n else None,
        }
