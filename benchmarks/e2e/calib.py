"""Reference-speed calibration: one frozen interpreter-bound kernel.

This box's speed drifts by whole runs (sizing runs: the same cache-hit
SQL loop read 343-408 ms per block across six back-to-back runs, while
the same blocks divided by this kernel's time read 19.6-20.4).  Every
timing the benchmark reports end to end is therefore divided by
``speed = kernel_time_now / REF_KERNEL_S``: what the reading would have
been on the reference machine state.  The kernel is sampled between
~0.1 s slices of work, because the box's speed also moves within a
second (see README "Noise control").

The kernel and ``REF_KERNEL_S`` are frozen.  Changing either silently
rescales every number in the committed trajectory, so later PRs must
never edit this file.
"""

from __future__ import annotations

from time import perf_counter

__all__ = ["REF_KERNEL_S", "kernel", "time_kernel"]

#: median kernel time on the pipeline box when the benchmark was defined
#: (41 samples, python 3.11, 2 cores); see README "Reference speed"
REF_KERNEL_S = 0.020023

_KERNEL_ITERS = 54_000


def kernel() -> int:
    """The mix the serving path is made of: dict get/set, %-formatting,
    list append and small-dict allocation — no I/O, no C-heavy calls."""
    table: dict[str, int] = {}
    rows: list[dict[str, object]] = []
    get = table.get
    for i in range(_KERNEL_ITERS):
        key = "k%d" % (i & 1023)
        table[key] = get(key, 0) + i
        rows.append({"i": i, "key": key})
        if len(rows) == 512:
            rows = []
    return len(table)


def time_kernel() -> float:
    """Wall time of one kernel run, in seconds."""
    start = perf_counter()
    kernel()
    return perf_counter() - start
