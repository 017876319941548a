"""Fixed-work block runner: calibration, estimators, spans, GC accounting.

A run is one warm-up block plus N timed blocks of *identical* work (a
time-boxed run measures a different amount of work on a slow minute
than on a fast one; that is what sank the previous attempt at this
benchmark).  A block is executed as ~0.1 s *slices*; the calibration
kernel is timed before every slice and after the last, a slice's
``speed`` is the mean of its two neighbouring kernel times over
:data:`~.calib.REF_KERNEL_S`, and every wall, CPU and latency reading
of the slice is divided by it.  (Calibrating once per 1 s block was
tried first: this box's speed moves within a second, and block-level
speeds added noise instead of removing it.)

Tracing is the harness's own: spans are recorded from timestamps the
load loop already takes, around calls into each layer's public
functions.  Nothing under ``src/`` is instrumented.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter, process_time
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .calib import REF_KERNEL_S, time_kernel

__all__ = [
    "Block",
    "CheckFailed",
    "PhaseClock",
    "Slice",
    "GcWatch",
    "RunResult",
    "Tracer",
    "Workload",
    "block_speed",
    "cache_hit_ratio",
    "optional_stat",
    "percentile",
    "pick_tail_pct",
    "position_sum",
    "run_workload",
    "self_times",
    "spread_pct",
    "summarise",
]

#: tail percentiles tried from the top; one is reported only when at
#: least this many samples lie beyond it
TAIL_CANDIDATES = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10
#: percentile taken across blocks at each slice position
POSITION_PCT = 25.0


class CheckFailed(RuntimeError):
    """A correctness check failed during set-up (nothing was measured)."""


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def block_speed(
    kernel_before_s: float, kernel_after_s: float, ref_s: float = REF_KERNEL_S
) -> float:
    """How much slower than the reference the machine ran a block (1.25 =
    25% slower); readings of that block are divided by it."""
    return (kernel_before_s + kernel_after_s) / 2.0 / ref_s


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def pick_tail_pct(n_samples: int) -> float | None:
    """Highest of p99.9/p99/p90 with >= 10 samples beyond it, else None."""
    for pct in TAIL_CANDIDATES:
        # per-mille integers: 10 000 * (100 - 99.9) / 100 is 9.99.. in floats
        if n_samples * (1000 - round(pct * 10)) >= TAIL_MIN_BEYOND * 1000:
            return pct
    return None


def spread_pct(values: Sequence[float]) -> float:
    """(p75 - p25) / median, in percent."""
    ordered = sorted(values)
    mid = percentile(ordered, 50)
    if not mid:
        return 0.0
    return (percentile(ordered, 75) - percentile(ordered, 25)) / mid * 100.0


def optional_stat(stats: Any, *path: str) -> Any:
    """``stats[path0][path1]...`` or ``None`` with a warning.

    ``stats()`` dicts are about to be reshaped (ROADMAP observability
    work); a missing key must cost one per-layer metric, not the run.
    """
    node = stats
    for key in path:
        if not isinstance(node, Mapping) or key not in node:
            print(
                f"warning: stats key {'.'.join(path)!r} is missing; "
                "the per-layer metric that reads it is null",
                file=sys.stderr,
            )
            return None
        node = node[key]
    return node


def cache_hit_ratio(before: Any, after: Any) -> float | None:
    """Hit share of the lookups between two ``QueryCache.stats()`` snapshots."""
    delta = []
    for key in ("hits", "misses"):
        a, b = optional_stat(before, key), optional_stat(after, key)
        if a is None or b is None:
            return None
        delta.append(b - a)
    hits, misses = delta
    return hits / (hits + misses) if hits + misses else None


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans ``(name, start, end, parent, op, slot, n)``.

    ``parent`` is the index of the span that caused this one (``None``
    for a client call), ``op`` the operation both belong to, ``slot``
    the slice or probe round it ran in (whose speed normalises it), ``n`` the number of
    items the span covered (documents, messages) for per-item metrics.

    Layer probes re-execute a layer's public function on the inputs of
    an op *after* the op returned, so a probe child lies outside its
    parent's interval; self time therefore subtracts child *durations*
    (see :func:`self_times`).
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int, int, int]] = []
        self.slot = 0
        self._next_op = 0

    def new_op(self) -> int:
        self._next_op += 1
        return self._next_op

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: int | None = None,
        op: int | None = None,
        n: int = 1,
    ) -> int:
        if op is None:
            op = self.spans[parent][4] if parent is not None else self.new_op()
        self.spans.append((name, start, end, parent, op, self.slot, n))
        return len(self.spans) - 1

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        *args: Any,
        parent: int | None = None,
        n: int = 1,
        **kwargs: Any,
    ) -> Any:
        """Time one call into a layer as a span; returns the call's result."""
        start = perf_counter()
        out = fn(*args, **kwargs)
        self.add(name, start, perf_counter(), parent=parent, n=n)
        return out

    def last(self) -> int:
        return len(self.spans) - 1

    def per_item(self, name: str, speeds: Mapping[int, float]) -> list[float]:
        """Reference-speed seconds per item of every span called ``name``."""
        return [
            (end - start) / n / speeds[slot]
            for span_name, start, end, _parent, _op, slot, n in self.spans
            if span_name == name
        ]

    def p50(
        self, name: str, speeds: Mapping[int, float], scale: float = 1e3
    ) -> float | None:
        samples = self.per_item(name, speeds)
        return median(samples) * scale if samples else None

    def write(self, path: Any, speeds: Mapping[int, float]) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op, slot, n in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "op": op, "n": n, "speed": speeds[slot],
                }) + "\n")


def self_times(
    spans: Iterable[tuple[str, float, float, int | None]],
) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    rows = list(spans)
    out = [row[2] - row[1] for row in rows]
    for row in rows:
        parent = row[3]
        if parent is not None:
            out[parent] -= row[2] - row[1]
    return out


class GcWatch:
    """Collector time and gen-2 passes inside timed blocks (``gc.callbacks``)."""

    def __init__(self) -> None:
        self.on = False
        self.seconds = 0.0
        self.gen2 = 0
        self._started = 0.0

    def __call__(self, phase: str, info: Mapping[str, int]) -> None:
        if not self.on:
            return
        if phase == "start":
            self._started = perf_counter()
        else:
            self.seconds += perf_counter() - self._started
            if info["generation"] == 2:
                self.gen2 += 1


# ---------------------------------------------------------------------------
# slices, blocks and workloads
# ---------------------------------------------------------------------------

#: what one slice body returns: per-op latencies and failed ops
SliceOutcome = tuple[list[float], int]


@dataclass
class Slice:
    """~0.1 s of a block's work, with the machine speed it ran at."""

    wall_s: float
    cpu_s: float
    latencies_s: list[float]
    speed: float
    kernel_before_s: float
    kernel_after_s: float


@dataclass
class Block:
    """One block of fixed work, as measured slices."""

    slices: list[Slice]
    failed: int = 0
    traced: bool = False
    gc_s: float = 0.0

    @property
    def wall_s(self) -> float:
        """Reference-speed wall time of the block's work."""
        return sum(s.wall_s / s.speed for s in self.slices)

    @property
    def raw_wall_s(self) -> float:
        return sum(s.wall_s for s in self.slices)

    @property
    def speed(self) -> float:
        return self.raw_wall_s / self.wall_s


class PhaseClock:
    """Reference-speed wall time of set-up, phase by phase.

    ``mark()`` closes the phase that started at the previous mark (or
    at process start), samples the kernel, and divides the phase by the
    mean of the kernel samples at its two ends.  Kernel time itself is
    not counted.
    """

    def __init__(self, started_at: float) -> None:
        self._phase_started = started_at
        self._kernel_s: float | None = None
        self.seconds = 0.0
        self.raw_seconds = 0.0
        #: (label, raw seconds, reference-speed seconds) per phase
        self.phases: list[tuple[str, float, float]] = []

    def _count(self, label: str, raw_s: float, seconds: float) -> None:
        self.seconds += seconds
        self.raw_seconds += raw_s
        self.phases.append((label, raw_s, seconds))
        self._phase_started = perf_counter()

    def mark(self, label: str = "") -> None:
        wall = perf_counter() - self._phase_started
        kernel_s = time_kernel()
        before = self._kernel_s if self._kernel_s is not None else kernel_s
        self._kernel_s = kernel_s
        self._count(label, wall, wall / block_speed(before, kernel_s))

    def add_block(self, block: Block) -> None:
        """Count a measured block (the warm-up) as set-up time."""
        self._kernel_s = block.slices[-1].kernel_after_s
        self._count("warm-up block", block.raw_wall_s, block.wall_s)

    @property
    def speed(self) -> float:
        return self.raw_seconds / self.seconds


class Workload:
    """One closed-loop workload; subclasses live in the ``w_*`` modules."""

    name = ""
    #: concurrent closed-loop callers (stated in the output)
    clients = 1
    ops_per_block = 0

    def __init__(self, seed: int, *, smoke: bool = False, trace: bool = False):
        self.seed = seed
        self.smoke = smoke
        self.trace = trace

    def setup(self, clock: PhaseClock) -> None:
        """Generate inputs from the seed, build the stack, compute references.

        Call ``clock.mark()`` between phases so each is normalised by the
        machine speed it actually ran at.
        """

    def slices(
        self, index: int, tracer: Tracer | None
    ) -> Iterator[Callable[[], SliceOutcome]]:
        """The block's work as slice bodies; block 0 is the warm-up."""
        raise NotImplementedError

    def check_block(self, index: int) -> int:
        """Untimed verification after a block; returns failed ops."""
        return 0

    def after_warmup(self, tracer: Tracer | None) -> None:
        """Set-up work that needs the warm-up block's state."""

    def probe(self, tracer: Tracer) -> None:
        """Layer probes: direct calls into layers on this workload's inputs."""

    def layer_metrics(
        self, tracer: Tracer, speeds: Mapping[int, float]
    ) -> dict[str, float | None]:
        return {}

    def describe(self) -> dict[str, Any]:
        return {}

    def close(self) -> None:
        """Stop servers, remove temp stores.  Must be safe after a failure."""


class Slots:
    """Numbers slices and probe rounds; remembers each one's speed."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.speeds: dict[int, float] = {}
        self._next = 0

    def open(self) -> int:
        self._next += 1
        if self.tracer is not None:
            self.tracer.slot = self._next
        return self._next


def measure_block(
    workload: Workload,
    index: int,
    tracer: Tracer | None,
    slots: Slots,
    watch: GcWatch,
) -> Block:
    """Run one block slice by slice, the kernel sampled around each."""
    slices: list[Slice] = []
    failed = 0
    kernel_s = time_kernel()
    for body in workload.slices(index, tracer):
        slot = slots.open()
        watch.on = True
        cpu0 = process_time()
        wall0 = perf_counter()
        latencies, slice_failed = body()
        wall = perf_counter() - wall0
        cpu = process_time() - cpu0
        watch.on = False
        after_s = time_kernel()
        speed = slots.speeds[slot] = block_speed(kernel_s, after_s)
        slices.append(Slice(wall, cpu, latencies, speed, kernel_s, after_s))
        failed += slice_failed
        kernel_s = after_s
    return Block(slices, failed)


@dataclass
class RunResult:
    workload: str
    correct: bool
    attempted: int
    failed: int
    end_to_end: dict[str, float]
    per_layer: dict[str, float | None] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)
    #: per slice: block, kernel before/after, wall, cpu, ops (for re-analysis)
    slices: list[list[float]] = field(default_factory=list)
    setup_phases: list[tuple[str, float, float]] = field(default_factory=list)


def position_sum(
    blocks: Sequence[Block], reading: Callable[[Slice], float]
) -> float:
    """One block's worth of ``reading``: per slice position, the lower
    quartile across blocks, summed over positions.

    Slices at the same position do the same work in every block, and
    the noise on this box is one-sided (a neighbour only ever slows a
    slice down, and the kernel does not see all of it), so the lower
    quartile is the steadiest view of what the code costs; taking it
    per position keeps one bad slice per block from touching every
    block's sum.
    """
    n_positions = len(blocks[0].slices)
    if any(len(b.slices) != n_positions for b in blocks):
        raise ValueError("blocks of one workload must have equal slice counts")
    return sum(
        percentile(sorted(reading(b.slices[p]) for b in blocks), POSITION_PCT)
        for p in range(n_positions)
    )


def typical_latency(
    blocks: Sequence[Block], scale: Callable[[Slice], float]
) -> float:
    """Median op latency: per slice the median op (divided by
    ``scale(slice)``), per position the lower quartile across blocks,
    then the median over positions."""
    n_positions = len(blocks[0].slices)
    per_position = [
        percentile(
            sorted(median(b.slices[p].latencies_s) / scale(b.slices[p]) for b in blocks),
            POSITION_PCT,
        )
        for p in range(n_positions)
    ]
    return median(per_position)


def summarise(blocks: Sequence[Block], ops_per_block: int) -> dict[str, float]:
    """Reference-speed and raw estimators over the timed blocks."""
    lat = sorted(
        l / s.speed for b in blocks for s in b.slices for l in s.latencies_s
    )
    out = {
        "throughput_ops_s": (
            ops_per_block / position_sum(blocks, lambda s: s.wall_s / s.speed)
        ),
        "latency_p50_ms": typical_latency(blocks, lambda s: s.speed) * 1e3,
        "cpu_ms_per_op": (
            position_sum(blocks, lambda s: s.cpu_s / s.speed) / ops_per_block * 1e3
        ),
        "harness.speed_factor": median(b.speed for b in blocks),
        "harness.raw_throughput_ops_s": (
            ops_per_block / position_sum(blocks, lambda s: s.wall_s)
        ),
        "harness.raw_latency_p50_ms": typical_latency(blocks, lambda s: 1.0) * 1e3,
        "harness.raw_cpu_ms_per_op": (
            position_sum(blocks, lambda s: s.cpu_s) / ops_per_block * 1e3
        ),
        "harness.block_spread_pct": spread_pct([b.wall_s for b in blocks]),
        "latency_samples": float(len(lat)),
    }
    tail = pick_tail_pct(len(lat))
    if tail is not None:
        out["client.latency_tail_pct"] = tail
        out["client.latency_tail_ms"] = percentile(lat, tail) * 1e3
    return out


def run_workload(
    workload: Workload, n_blocks: int, clock: PhaseClock
) -> tuple[RunResult, Tracer | None, dict[int, float]]:
    """Set up, warm up, run ``n_blocks`` timed blocks, summarise.

    In trace mode odd blocks carry spans and are followed by layer
    probes; even blocks run untraced so the same run yields the tracing
    overhead.
    """
    tracer = Tracer() if workload.trace else None
    slots = Slots(tracer)
    watch = GcWatch()
    if tracer is not None:
        gc.callbacks.append(watch)
    try:
        workload.setup(clock)
        clock.mark("set-up tail")
        warm = measure_block(workload, 0, None, slots, watch)
        clock.add_block(warm)
        if warm.failed + workload.check_block(0):
            raise CheckFailed(f"{workload.name}: warm-up block failed its check")
        if tracer is not None:
            tracer.slot = 0  # set-up spans: the set-up's overall speed
        workload.after_warmup(tracer)
        clock.mark("warm-up check")
        slots.speeds[0] = clock.speed

        blocks: list[Block] = []
        for index in range(1, n_blocks + 1):
            gc.collect()
            traced = tracer is not None and index % 2 == 1
            watch.seconds = 0.0
            block = measure_block(
                workload, index, tracer if traced else None, slots, watch
            )
            block.traced, block.gc_s = traced, watch.seconds / block.speed
            block.failed += workload.check_block(index)
            if traced:
                slot = slots.open()
                before_s = time_kernel()
                workload.probe(tracer)
                slots.speeds[slot] = block_speed(before_s, time_kernel())
            blocks.append(block)
    finally:
        if tracer is not None:
            gc.callbacks.remove(watch)

    stats = summarise(blocks, workload.ops_per_block)
    attempted = workload.ops_per_block * n_blocks
    failed = sum(b.failed for b in blocks)
    end_to_end = {
        "setup_s": clock.seconds,
        "throughput_ops_s": stats["throughput_ops_s"],
        "latency_p50_ms": stats["latency_p50_ms"],
        "cpu_ms_per_op": stats["cpu_ms_per_op"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_layer: dict[str, float | None] = {
        k: v for k, v in stats.items() if "." in k
    }
    per_layer["harness.raw_setup_s"] = clock.raw_seconds
    if tracer is not None:
        per_layer["runtime.gc_ms_per_op"] = (
            sum(b.gc_s for b in blocks) / attempted * 1e3
        )
        per_layer["runtime.gc_gen2_count"] = float(watch.gen2)
        traced = [b for b in blocks if b.traced]
        plain = [b for b in blocks if not b.traced]
        if traced and plain:
            wall = lambda s: s.wall_s / s.speed  # noqa: E731
            per_layer["harness.trace_overhead_pct"] = (
                position_sum(traced, wall) / position_sum(plain, wall) - 1.0
            ) * 100.0
        per_layer.update(workload.layer_metrics(tracer, slots.speeds))
    info = {
        "blocks": n_blocks,
        "ops_per_block": workload.ops_per_block,
        "slices_per_block": len(blocks[0].slices),
        "clients": workload.clients,
        "latency_samples": int(stats["latency_samples"]),
        **workload.describe(),
    }
    result = RunResult(
        workload.name, failed == 0, attempted, failed, end_to_end, per_layer, info,
        slices=[
            [i + 1, s.kernel_before_s, s.kernel_after_s, s.wall_s, s.cpu_s,
             len(s.latencies_s)]
            for i, b in enumerate(blocks) for s in b.slices
        ],
        setup_phases=clock.phases,
    )
    return result, tracer, slots.speeds
