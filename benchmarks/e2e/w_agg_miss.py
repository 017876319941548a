"""``agg_miss_sharded``: read-after-write aggregates over a 4-shard store.

Each op upserts one document (bumping ``version()``, so the query that
follows cannot hit the cache: the paper's live-campaign case) and then
runs one statement of a five-class rotation.  Storage reads, operator
pushdown, the partial merge and the DataFrame do the work; transport
does none.  Store size and status mix stay constant (upserts rewrite
``duration`` of existing documents), so every block is the same work.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Any, Callable, Iterator, Mapping

from repro.api.client import GatewayClient
from repro.api.schemas import from_json
from repro.dataframe.frame import DataFrame
from repro.provenance.query_api import QueryAPI
from repro.query.cache import QueryCache
from repro.query.engine import run_cached_pipeline
from repro.query.executor import execute_query
from repro.query.partial import combine_partials
from repro.query.pushdown import plan_pushdown
from repro.sql.compiler import compile_sql
from repro.storage.memory import ProvenanceDatabase
from repro.storage.sharded import ShardedProvenanceStore

from . import data
from .harness import (
    CheckFailed, PhaseClock, SliceOutcome, Tracer, Workload, cache_hit_ratio,
    optional_stat,
)
from .metrics import MISS_CLASSES

__all__ = ["AggMissSharded"]

NUM_SHARDS = 4
#: the classic-path probes materialise this subset (the rotation's own
#: indexed filter), not the whole store: ~100 us/doc x 20 000 would
#: dwarf the blocks they sit between
CLASSIC_FILTER = {"type": "task", "status": "FAILED"}


class AggMissSharded(Workload):
    name = "agg_miss_sharded"
    clients = 1

    def __init__(self, seed: int, *, smoke: bool = False, trace: bool = False):
        super().__init__(seed, smoke=smoke, trace=trace)
        self.n_docs = 2_000 if smoke else 20_000
        self.ops_per_block = 5 if smoke else 10
        self.service: Any = None
        self.ref_service: Any = None
        self.store: Any = None

    # -- set-up ------------------------------------------------------------------
    def setup(self, clock: PhaseClock) -> None:
        self.docs = data.task_documents(self.n_docs, self.seed)
        clock.mark("generate documents")
        self.store = ShardedProvenanceStore(NUM_SHARDS)
        self.store.upsert_many(self.docs)
        clock.mark("load sharded store")
        self.service, self.gateway = data.build_gateway(self.store, self.seed)
        self.client: Any = GatewayClient(self.gateway)
        # single-node reference, fed the same upserts after every block
        self.ref_store = ProvenanceDatabase()
        self.ref_store.upsert_many(self.docs)
        clock.mark("load reference store")
        self.ref_service, ref_gateway = data.build_gateway(self.ref_store, self.seed)
        self.ref_client = GatewayClient(ref_gateway)
        self.requests = data.sql_requests(data.MISS_STATEMENTS)
        self._pending: list[tuple[dict[str, Any], int, str]] = []
        self._cache_before = self.service.query_cache.stats()
        self._payload_cells: list[float] = []
        self._pushed: list[bool] = []

    def _upsert_for(self, block: int, op: int) -> dict[str, Any]:
        """The seeded write of one op: a new duration for an existing task."""
        rng = random.Random(f"e2e-upsert/{self.seed}/{block}/{op}")
        doc = dict(self.docs[rng.randrange(self.n_docs)])
        doc["duration"] = round(0.02 + rng.random() * 0.08, 6)
        doc["ended_at"] = doc["started_at"] + doc["duration"]
        return doc

    # -- the block ---------------------------------------------------------------
    def slices(
        self, index: int, tracer: Tracer | None
    ) -> Iterator[Callable[[], SliceOutcome]]:
        """One op per slice: ops run 3-300 ms, the kernel is sampled between."""
        n = len(self.requests)
        pending = self._pending = []

        def body(doc: dict[str, Any], which: int) -> SliceOutcome:
            t0 = perf_counter()
            self.store.upsert(doc)
            t1 = perf_counter()
            got = self.client.query_json(self.requests[which])
            t2 = perf_counter()
            pending.append((doc, which, got))
            if tracer is not None:
                op = tracer.add("client.op", t0, t2)
                tracer.add("storage.sharded.upsert", t0, t1, parent=op)
                tracer.add(
                    f"client.query_json.{MISS_CLASSES[which]}", t1, t2, parent=op
                )
            return [t2 - t0], 0

        for op in range(self.ops_per_block):
            doc = self._upsert_for(index, op)
            yield lambda doc=doc, which=op % n: body(doc, which)

    def check_block(self, index: int) -> int:
        """Replay the block on the single-node reference and compare bytes."""
        failed = 0
        for doc, which, got in self._pending:
            self.ref_store.upsert(doc)
            if got != self.ref_client.query_json(self.requests[which]):
                failed += 1
        if index == 0:
            for _doc, _which, got in self._pending:
                if getattr(from_json(got), "kind", None) not in ("frame", "scalar"):
                    raise CheckFailed(f"agg_miss_sharded answered {got[:200]}")
        self._pending = []
        return failed

    # -- layer probes ------------------------------------------------------------
    def probe(self, tracer: Tracer) -> None:
        gateway, store = self.gateway, self.store
        base_filter = gateway.base_filter
        for label, request in zip(MISS_CLASSES, self.requests):
            pipeline = compile_sql(request.sql)
            # a private empty cache forces the miss path without a write
            tracer.call(
                f"query.engine.miss.{label}", run_cached_pipeline,
                gateway.query_api, pipeline, base_filter=base_filter,
                cache=QueryCache(),
            )
            miss = tracer.last()
            plan = tracer.call(
                f"query.pushdown.plan.{label}", plan_pushdown, pipeline,
                base_filter, parent=miss,
            )
            if plan is None:
                self._pushed.append(False)
                continue
            partials = tracer.call(
                f"storage.sharded.execute_partial.{label}", store.execute_partial,
                plan, parent=miss,
            )
            combined = tracer.call(
                f"query.partial.combine.{label}", combine_partials, plan, partials,
                parent=miss,
            )
            self._pushed.append(bool(combined.ok))
            cells = optional_stat(combined.stats, "payload_cells")
            if cells is not None:
                self._payload_cells.append(float(cells))
        # the classic (gather-everything) path, on the FAILED subset
        n = max(store.count(CLASSIC_FILTER), 1)
        found = tracer.call("storage.sharded.find", store.find, CLASSIC_FILTER, n=n)
        tracer.call("storage.memory.find", self.ref_store.find, CLASSIC_FILTER, n=n)
        frame = tracer.call(
            "dataframe.from_records", DataFrame.from_records, found, flatten=True,
            n=n,
        )
        tracer.call(
            "dataframe.execute", execute_query,
            compile_sql(data.MISS_STATEMENTS[0]), frame,
        )
        tracer.call(
            "provenance.query_api.to_frame",
            QueryAPI(store, cache=QueryCache()).to_frame, CLASSIC_FILTER,
        )

    def layer_metrics(
        self, tracer: Tracer, speeds: Mapping[int, float]
    ) -> dict[str, float | None]:
        p50 = lambda name, scale=1e3: tracer.p50(name, speeds, scale)  # noqa: E731
        designated = MISS_CLASSES[0]
        out: dict[str, float | None] = {
            f"query.engine.miss_ms.{label}": p50(f"query.engine.miss.{label}")
            for label in MISS_CLASSES
        }
        out.update({
            "query.pushdown.plan_ms": p50(f"query.pushdown.plan.{designated}"),
            "storage.sharded.execute_partial_ms": p50(
                f"storage.sharded.execute_partial.{designated}"
            ),
            "query.partial.combine_ms": p50(f"query.partial.combine.{designated}"),
            "query.pushdown.pushed_share": (
                sum(self._pushed) / len(self._pushed) if self._pushed else None
            ),
            "query.partial.payload_cells_per_op": (
                sum(self._payload_cells) / len(self._payload_cells)
                if self._payload_cells else None
            ),
            "storage.sharded.upsert_ms": p50("storage.sharded.upsert"),
            "storage.sharded.find_us_per_doc": p50("storage.sharded.find", 1e6),
            "storage.memory.find_us_per_doc": p50("storage.memory.find", 1e6),
            "dataframe.from_records_us_per_doc": p50("dataframe.from_records", 1e6),
            "dataframe.execute_ms": p50("dataframe.execute"),
            "provenance.query_api.to_frame_ms": p50("provenance.query_api.to_frame"),
            "query.cache.hit_ratio": cache_hit_ratio(
                self._cache_before, self.service.query_cache.stats()
            ),
        })
        return out

    def describe(self) -> dict[str, Any]:
        return {
            "documents": self.n_docs,
            "shards": NUM_SHARDS,
            "statements": len(data.MISS_STATEMENTS),
            "p50_class": MISS_CLASSES[0],
        }

    def close(self) -> None:
        for service in (self.service, self.ref_service):
            if service is not None:
                service.close()
        if self.store is not None:
            self.store.close()
