"""``ingest_durable``: the write path, emit to queryable, into a WAL-backed store.

Per block: a fresh ``CaptureContext`` -> ``ProvenanceKeeper`` over a
fresh ``DurableStore`` (``fsync="rotate"``, 1 MiB segments, so a block
rotates and fsyncs three times) with a ``LineageIndex`` attached, fed
500 synthetic workflow instances.  One op is one instance: 8 task
messages and 2 workflow messages through workflows -> capture ->
messaging -> keeper -> durable store -> lineage, and nothing of the
query path.  A fresh store per block keeps the blocks identical.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, BinaryIO, Callable, Iterator, Mapping

from repro.capture.context import CaptureContext
from repro.lineage.index import LineageIndex
from repro.messaging.broker import InProcessBroker
from repro.provenance.keeper import TASK_TOPIC, ProvenanceKeeper
from repro.storage.durable import DurableStore, FileOps
from repro.storage.memory import ProvenanceDatabase

from .campaign import (
    DOCS_PER_WORKFLOW,
    MESSAGES_PER_WORKFLOW,
    TASKS_PER_WORKFLOW,
    Campaign,
    run_campaign,
)
from .harness import (
    CheckFailed, PhaseClock, SliceOutcome, Tracer, Workload, optional_stat,
)

__all__ = ["IngestDurable", "CountingFileOps"]

FSYNC_POLICY = "rotate"
SEGMENT_MAX_BYTES = 1 << 20
#: temp stores live under the benchmark's own output directory (the
#: benchmark writes only inside its checkout), one directory per process
TMP_ROOT = Path(__file__).resolve().parent / "out" / "tmp"


class CountingFileOps(FileOps):
    """The store's public ``file_ops=`` seam, counting and timing fsyncs."""

    def __init__(self) -> None:
        self.fsyncs = 0
        self.fsync_s = 0.0

    def fsync(self, fobj: BinaryIO) -> None:
        start = perf_counter()
        super().fsync(fobj)
        self.fsync_s += perf_counter() - start
        self.fsyncs += 1


class IngestDurable(Workload):
    name = "ingest_durable"
    clients = 1

    def __init__(self, seed: int, *, smoke: bool = False, trace: bool = False):
        super().__init__(seed, smoke=smoke, trace=trace)
        self.n_inputs = 50 if smoke else 500
        self.ops_per_block = self.n_inputs
        self.ops_per_slice = 25 if smoke else 50
        self.tmp = TMP_ROOT / f"ingest-{os.getpid()}"
        self._open: list[Any] = []  # stores to close if a block dies
        self._last: dict[str, Any] = {}
        self._payloads: list[list[Mapping[str, Any]]] = []
        self._fsyncs: list[int] = []
        self._fsync_s: list[float] = []  # seconds per fsync, one entry per block
        self._wal_bytes: list[int] = []
        self._rejected: list[Any] = []

    # -- set-up ------------------------------------------------------------------
    def setup(self, clock: PhaseClock) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)

    def open_store(self, path: Path, file_ops: FileOps | None = None) -> Any:
        """The block's store; a seam so tests can break it."""
        return DurableStore(
            str(path), fsync=FSYNC_POLICY, segment_max_bytes=SEGMENT_MAX_BYTES,
            file_ops=file_ops,
        )

    # -- the block ---------------------------------------------------------------
    def slices(
        self, index: int, tracer: Tracer | None
    ) -> Iterator[Callable[[], SliceOutcome]]:
        path = self.tmp / f"block-{index}"
        files = CountingFileOps()
        seed = ("e2e-ingest", self.seed, index)
        context = CaptureContext(seed=seed)
        store = self.open_store(path, files)
        self._open.append(store)
        lineage = LineageIndex()
        keeper = ProvenanceKeeper(context.broker, store, lineage_index=lineage)
        keeper.start()
        if self.trace and index == 0:
            # record what the broker carried, for the layer probes
            context.broker.subscribe(
                "provenance.#", lambda _env: None,
                batch_callback=lambda envs: self._payloads.append(
                    [env.payload for env in envs]
                ),
            )
        self._last = {
            "path": path, "store": store, "lineage": lineage, "keeper": keeper,
            "files": files,
        }
        campaign = Campaign(context, self.n_inputs, seed)

        def body() -> SliceOutcome:
            times = campaign.run(self.ops_per_slice)
            if tracer is not None:
                for t0, t1 in times:
                    tracer.add("client.execute_workflow", t0, t1)
            return [t1 - t0 for t0, t1 in times], 0

        for _ in range(0, self.n_inputs, self.ops_per_slice):
            yield body
        keeper.stop()

    def check_block(self, index: int) -> int:
        """Document, lineage and reject counts; then close and remove."""
        last, self._last = self._last, {}
        store, files = last["store"], last["files"]
        rejected = optional_stat(last["keeper"].stats(), "rejected")
        problems = [
            len(store) != self.n_inputs * DOCS_PER_WORKFLOW,
            len(last["lineage"]) != self.n_inputs * TASKS_PER_WORKFLOW,
            len(last["keeper"].rejected) != 0,
        ]
        wal_bytes = sum(
            entry.stat().st_size for entry in last["path"].glob("wal-*.log")
        )
        if index == 0:
            self._warm_docs = _by_task_id(store.all())
        store.close()
        self._open.remove(store)
        if index > 0:
            self._fsyncs.append(files.fsyncs)
            if files.fsyncs:
                self._fsync_s.append(files.fsync_s / files.fsyncs)
            self._wal_bytes.append(wal_bytes)
            self._rejected.append(rejected)
            shutil.rmtree(last["path"], ignore_errors=True)
        # a block that lost or invented documents failed every op in it
        return self.n_inputs if any(problems) else 0

    def after_warmup(self, tracer: Tracer | None) -> None:
        """Re-open the warm-up store: WAL recovery must return exactly the
        acknowledged documents (its time is part of ``setup_s``)."""
        path = self.tmp / "block-0"
        start = perf_counter()
        store = self.open_store(path)
        recovered_at = perf_counter()
        try:
            recovered = _by_task_id(store.all())
        finally:
            store.close()
        shutil.rmtree(path, ignore_errors=True)
        if recovered != self._warm_docs:
            raise CheckFailed(
                f"recovery returned {len(recovered)} documents that differ from "
                f"the {len(self._warm_docs)} acknowledged ones"
            )
        self._warm_docs = []
        if tracer is not None:
            tracer.add("storage.durable.recover", start, recovered_at)

    # -- layer probes ------------------------------------------------------------
    def probe(self, tracer: Tracer) -> None:
        """Each layer alone, on the batches the warm-up block's broker carried."""
        batches = self._payloads
        n_msgs = sum(len(batch) for batch in batches)

        def each_batch(fn: Any) -> None:
            for batch in batches:
                fn(batch)

        # capture + workflows: the campaign with nobody subscribed
        quiet = CaptureContext(seed=("e2e-ingest", self.seed, 0))
        tracer.call(
            "capture.emit", run_campaign, quiet, self.n_inputs,
            ("e2e-ingest", self.seed, 0),
            n=self.n_inputs * MESSAGES_PER_WORKFLOW,
        )
        broker = InProcessBroker()
        broker.subscribe(
            "provenance.#", lambda _env: None, batch_callback=lambda _envs: None
        )
        tracer.call(
            "messaging.publish", each_batch,
            lambda batch: broker.publish_batch(TASK_TOPIC, batch), n=n_msgs,
        )
        keeper = ProvenanceKeeper(InProcessBroker(), ProvenanceDatabase())
        tracer.call(
            "provenance.keeper.ingest", each_batch, keeper.ingest_batch, n=n_msgs
        )
        path = self.tmp / "probe"
        store = self.open_store(path)
        try:
            tracer.call(
                "storage.durable.upsert_many", each_batch, store.upsert_many,
                n=n_msgs,
            )
        finally:
            store.close()
            shutil.rmtree(path, ignore_errors=True)
        lineage = LineageIndex()
        tracer.call("lineage.apply", each_batch, lineage.apply_many, n=n_msgs)

    def layer_metrics(
        self, tracer: Tracer, speeds: Mapping[int, float]
    ) -> dict[str, float | None]:
        per = lambda name: tracer.p50(name, speeds, 1e6)  # noqa: E731
        n_docs = self.n_inputs * MESSAGES_PER_WORKFLOW
        rejected = [r for r in self._rejected if r is not None]
        return {
            "capture.emit_us_per_msg": per("capture.emit"),
            "messaging.publish_us_per_msg": per("messaging.publish"),
            "provenance.keeper.ingest_us_per_msg": per("provenance.keeper.ingest"),
            "provenance.keeper.rejected": float(sum(rejected)) if rejected else None,
            "storage.durable.upsert_many_us_per_doc": per(
                "storage.durable.upsert_many"
            ),
            "storage.durable.wal_bytes_per_doc": (
                self._wal_bytes[0] / n_docs if self._wal_bytes else None
            ),
            "storage.durable.fsyncs_per_block": (
                float(self._fsyncs[0]) if self._fsyncs else None
            ),
            # device time, not interpreter time: reported raw
            "storage.durable.fsync_ms": (
                median(self._fsync_s) * 1e3 if self._fsync_s else None
            ),
            "storage.durable.recover_s": tracer.p50(
                "storage.durable.recover", speeds, 1.0
            ),
            "lineage.apply_us_per_doc": per("lineage.apply"),
        }

    def describe(self) -> dict[str, Any]:
        return {
            "workflows_per_block": self.n_inputs,
            "messages_per_op": MESSAGES_PER_WORKFLOW,
            "fsync": FSYNC_POLICY,
            "segment_max_bytes": SEGMENT_MAX_BYTES,
            "tmpdir": str(self.tmp.relative_to(Path(__file__).resolve().parent)),
        }

    def close(self) -> None:
        for store in self._open:
            store.close()
        self._open = []
        shutil.rmtree(self.tmp, ignore_errors=True)


def _by_task_id(docs: list[dict[str, Any]]) -> list[dict[str, Any]]:
    return sorted(docs, key=lambda doc: doc["task_id"])
