"""Durable vs in-memory store: ingest overhead, recovery time.

The durable backend's pitch is "durability as a tax, not a rewrite":
the WAL rides in front of the same in-memory engine, so the questions a
deployment actually asks are *how much slower is ingest* and *how long
does a cold start take*.  Three legs:

* **ingest overhead** — batch lifecycle ingest (the keeper's
  ``upsert_many`` fast path) through the WAL with the default
  ``fsync="rotate"`` policy must stay within 2x of the bare in-memory
  store (>= 0.5x its throughput).  Serialising every batch to JSON and
  appending one framed record is the whole tax; paying more than the
  store itself costs would mean the framing, not the durability, is the
  bottleneck;
* **recovery time** — a cold start over the full WAL (worst case: no
  snapshot yet) and over snapshot + empty tail (the steady state after
  compaction) are both timed at 100k tasks.  Recovery parity with the
  in-memory reference is asserted at every scale;
* **snapshot leverage** — post-compaction recovery must beat full-WAL
  replay: loading materialised state has to be cheaper than re-running
  history, or compaction serves no purpose.

``DURABLE_BENCH_N`` scales the task count down for CI smoke runs; the
throughput/recovery floors are asserted at full scale (>= 100k tasks),
below that the run still checks parity and reports the measurements.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time

from benchmarks.conftest import write_result
from repro.storage import DurableStore, ProvenanceDatabase
from repro.viz.ascii import series_table

N_TASKS = int(os.environ.get("DURABLE_BENCH_N", "100000"))
BATCH = 200
MIN_INGEST_RATIO = 0.5  # durable throughput >= 0.5x memory throughput
#: floors only hold once fixed costs are amortised; smoke runs report
FULL_SCALE = N_TASKS >= 100_000

N_WORKFLOWS = max(8, min(64, N_TASKS // 1000))


def _lifecycle_batches(n_tasks: int, seed: int = 11) -> list[list[dict]]:
    """Keeper-shaped ingest: per-task lifecycles, delivered in batches."""
    rng = random.Random(seed)
    messages: list[dict] = []
    for i in range(n_tasks):
        started = 1000.0 + rng.random() * 10_000
        base = {
            "type": "task",
            "task_id": f"t{i}",
            "workflow_id": f"wf-{i % N_WORKFLOWS:03d}",
            "activity_id": f"a{i % 7}",
            "campaign_id": "bench",
            "used": {},
            "generated": {},
        }
        messages.append(dict(base, status="RUNNING", started_at=started))
        messages.append(
            dict(
                base,
                status="FINISHED",
                started_at=started,
                ended_at=started + 1.0,
                duration=1.0,
                generated={"y": i % 97},
            )
        )
    rng.shuffle(messages)
    return [messages[i : i + BATCH] for i in range(0, len(messages), BATCH)]


def _ingest(store, batches: list[list[dict]]) -> float:
    t0 = time.perf_counter()
    for batch in batches:
        store.upsert_many(batch)
    return time.perf_counter() - t0


def _check_recovery_parity(recovered, reference) -> None:
    assert len(recovered) == len(reference)
    assert recovered.field_counts("status") == reference.field_counts("status")
    wf = f"wf-{N_WORKFLOWS // 2:03d}"
    assert recovered.find(
        {"workflow_id": wf}, sort=[("started_at", 1)]
    ) == reference.find({"workflow_id": wf}, sort=[("started_at", 1)])


def test_durable_ingest_and_recovery(results_dir):
    batches = _lifecycle_batches(N_TASKS)
    n_messages = sum(len(b) for b in batches)
    tmp = tempfile.mkdtemp(prefix="bench-durable-")
    try:
        memory = ProvenanceDatabase()
        memory_s = _ingest(memory, batches)

        path = os.path.join(tmp, "store")
        durable = DurableStore(path)  # default fsync="rotate"
        durable_s = _ingest(durable, batches)
        ratio = memory_s / durable_s  # durable throughput as x of memory
        wal_bytes = sum(
            os.path.getsize(os.path.join(path, f)) for f in os.listdir(path)
        )
        durable.close()

        # cold start, worst case: full-WAL replay (never compacted)
        t0 = time.perf_counter()
        recovered = DurableStore(path)
        replay_s = time.perf_counter() - t0
        _check_recovery_parity(recovered, memory)

        # steady state: snapshot + empty tail
        recovered.snapshot()
        recovered.close()
        t0 = time.perf_counter()
        recovered = DurableStore(path)
        snap_s = time.perf_counter() - t0
        _check_recovery_parity(recovered, memory)
        recovered.close()

        rows = [
            {
                "store": "memory",
                "ingest_s": round(memory_s, 2),
                "throughput_msg_s": int(n_messages / memory_s),
                "recovery_s": "-",
            },
            {
                "store": "durable(fsync=rotate)",
                "ingest_s": round(durable_s, 2),
                "throughput_msg_s": int(n_messages / durable_s),
                "recovery_s": f"{replay_s:.2f} wal / {snap_s:.2f} snap",
            },
        ]
        if FULL_SCALE:  # smoke runs must not overwrite the published numbers
            write_result(
                results_dir,
                "durable_store_ingest.txt",
                series_table(
                    rows,
                    ["store", "ingest_s", "throughput_msg_s", "recovery_s"],
                    title=(
                        f"Durable ingest + recovery, {n_messages:,} messages / "
                        f"{N_TASKS:,} tasks, WAL {wal_bytes / 1e6:.0f} MB "
                        f"(floor at full scale: {MIN_INGEST_RATIO}x memory "
                        f"throughput)"
                    ),
                ),
            )
            assert ratio >= MIN_INGEST_RATIO, (
                f"durable ingest at {ratio:.2f}x memory throughput, "
                f"floor is {MIN_INGEST_RATIO}x "
                f"(memory {memory_s:.2f}s vs durable {durable_s:.2f}s)"
            )
            # compaction must buy something: materialised state loads
            # faster than re-running the whole history
            assert snap_s < replay_s, (
                f"snapshot recovery {snap_s:.2f}s not faster than "
                f"full-WAL replay {replay_s:.2f}s"
            )
    finally:
        shutil.rmtree(tmp)


def test_fsync_policy_spectrum(results_dir):
    """Report the cost of each fsync policy on a small fixed workload.

    Informational at every scale (the policies trade durability for
    latency by design, so there is no floor to assert) — but all three
    must recover to identical contents.
    """
    batches = _lifecycle_batches(min(N_TASKS, 5_000), seed=13)
    reference = ProvenanceDatabase()
    _ingest(reference, batches)
    rows = []
    tmp = tempfile.mkdtemp(prefix="bench-fsync-")
    try:
        for policy in ("never", "rotate", "always"):
            path = os.path.join(tmp, policy)
            store = DurableStore(path, fsync=policy)
            elapsed = _ingest(store, batches)
            store.close()
            recovered = DurableStore(path)
            _check_recovery_parity(recovered, reference)
            recovered.close()
            rows.append(
                {
                    "fsync": policy,
                    "ingest_s": round(elapsed, 3),
                    "batches_s": int(len(batches) / elapsed),
                }
            )
        if FULL_SCALE:
            write_result(
                results_dir,
                "durable_store_fsync.txt",
                series_table(
                    rows,
                    ["fsync", "ingest_s", "batches_s"],
                    title=(
                        f"fsync policy cost, {sum(len(b) for b in batches):,} "
                        f"messages in {len(batches)} batches"
                    ),
                ),
            )
    finally:
        shutil.rmtree(tmp)
