"""``sql_hit_inproc`` and ``sql_hit_http``: cached SQL, with and without transport.

No writes happen after set-up, so the store version is constant and
every op answers from the shared ``QueryCache``: the gateway, the SQL
compiler, the schema codec and the cache lookup are the whole op.  The
HTTP variant puts the asyncio transport and ``RemoteClient`` in front
of the same stack; a gateway-only change that doubles the in-process
number is predicted to move the HTTP one by less than 10%.
"""

from __future__ import annotations

import threading
from statistics import median
from time import perf_counter
from typing import Any, Callable, Iterator, Mapping

from repro.api.aio import AsyncGatewayServer
from repro.api.client import GatewayClient, RemoteClient
from repro.api.schemas import from_json, to_json
from repro.errors import ReproError
from repro.query.engine import run_cached_pipeline
from repro.sql.compiler import compile_sql
from repro.storage.memory import ProvenanceDatabase

from . import data
from .harness import (
    CheckFailed, PhaseClock, SliceOutcome, Tracer, Workload, cache_hit_ratio,
    optional_stat,
)

__all__ = ["SqlHitInproc", "SqlHitHttp"]


class SqlHitInproc(Workload):
    name = "sql_hit_inproc"
    clients = 1

    def __init__(self, seed: int, *, smoke: bool = False, trace: bool = False):
        super().__init__(seed, smoke=smoke, trace=trace)
        self.n_docs = 2_000 if smoke else 20_000
        self.ops_per_block = 500 if smoke else 5_000
        self.ops_per_slice = 250 if smoke else 500
        self.service: Any = None

    # -- set-up ------------------------------------------------------------------
    def setup(self, clock: PhaseClock) -> None:
        docs = data.task_documents(self.n_docs, self.seed)
        clock.mark("generate documents")
        self.store = ProvenanceDatabase()
        self.store.upsert_many(docs)
        clock.mark("load store")
        self.service, self.gateway = data.build_gateway(self.store, self.seed)
        self.inproc = GatewayClient(self.gateway)
        self.client: Any = self.inproc
        self.requests = data.sql_requests(data.HIT_STATEMENTS)
        # the correctness reference: the in-process reply, computed once
        # (this first pass also fills the cache)
        self.expected = []
        for request in self.requests:
            self.expected.append(self.inproc.query_json(request))
            clock.mark("reference reply")
        for request, text in zip(self.requests, self.expected):
            reply = from_json(text)
            if getattr(reply, "kind", None) not in ("frame", "scalar"):
                raise CheckFailed(f"{request.sql!r} answered {text[:200]}")
        self._cache_before = self.service.query_cache.stats()

    def _rotation(self, start: int, stop: int, step: int = 1):
        """(request, expected reply) for ops ``start..stop`` of a block."""
        n = len(self.requests)
        for i in range(start, stop, step):
            yield self.requests[i % n], self.expected[i % n]

    # -- the block ---------------------------------------------------------------
    def slices(
        self, index: int, tracer: Tracer | None
    ) -> Iterator[Callable[[], SliceOutcome]]:
        add = tracer.add if tracer is not None else None

        def body(start: int) -> SliceOutcome:
            query_json = self.client.query_json
            latencies: list[float] = []
            failed = 0
            for request, want in self._rotation(start, start + self.ops_per_slice):
                t0 = perf_counter()
                got = query_json(request)
                t1 = perf_counter()
                latencies.append(t1 - t0)
                if add is not None:
                    add("client.query_json", t0, t1)
                if got != want:
                    failed += 1
            return latencies, failed

        for start in range(0, self.ops_per_block, self.ops_per_slice):
            yield lambda start=start: body(start)

    # -- layer probes ------------------------------------------------------------
    def probe(self, tracer: Tracer) -> None:
        """Each rotation statement once, layer by layer, on a warm cache."""
        gateway, cache = self.gateway, self.service.query_cache
        for request in self.requests:
            body = to_json(request)
            tracer.call("api.schemas.request_decode", from_json, body)
            reply_text = tracer.call("probe.query_json", self.inproc.query_json, request)
            op = tracer.last()
            reply = tracer.call(
                "api.gateway.execute", gateway.execute_query, request, parent=op
            )
            execute = tracer.last()
            pipeline = tracer.call(
                "sql.compile", compile_sql, request.sql, parent=execute
            )
            tracer.call(
                "query.engine.hit", run_cached_pipeline, gateway.query_api,
                pipeline, base_filter=gateway.base_filter, cache=cache,
                parent=execute,
            )
            tracer.call("api.schemas.encode", to_json, reply, parent=op)
            tracer.call("api.client.decode", from_json, reply_text)

    def layer_metrics(
        self, tracer: Tracer, speeds: Mapping[int, float]
    ) -> dict[str, float | None]:
        p50 = lambda name: tracer.p50(name, speeds)  # noqa: E731
        execute, compile_, hit = (
            p50("api.gateway.execute"), p50("sql.compile"), p50("query.engine.hit")
        )
        return {
            "api.schemas.request_decode_ms": p50("api.schemas.request_decode"),
            "api.schemas.encode_ms": p50("api.schemas.encode"),
            "api.client.decode_ms": p50("api.client.decode"),
            "api.schemas.reply_bytes": median(
                len(text.encode()) for text in self.expected
            ),
            "api.gateway.execute_ms": execute,
            "api.gateway.self_ms": execute - compile_ - hit,
            "sql.compile_ms": compile_,
            "sql.stmt_chars": median(len(r.sql) for r in self.requests),
            "query.engine.hit_ms": hit,
            "query.cache.hit_ratio": cache_hit_ratio(
                self._cache_before, self.service.query_cache.stats()
            ),
        }

    def describe(self) -> dict[str, Any]:
        return {"documents": self.n_docs, "statements": len(data.HIT_STATEMENTS)}

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


class SqlHitHttp(SqlHitInproc):
    name = "sql_hit_http"
    #: two keep-alive connections on two threads.  They, the server's
    #: loop thread and its executor share one GIL, so at equal
    #: throughput latency reads ~2x the one-connection figure
    clients = 2

    def __init__(self, seed: int, *, smoke: bool = False, trace: bool = False):
        super().__init__(seed, smoke=smoke, trace=trace)
        self.ops_per_block = 100 if smoke else 900
        self.ops_per_slice = 50 if smoke else 90
        self.server: AsyncGatewayServer | None = None
        self.remotes: list[Any] = []

    def setup(self, clock: PhaseClock) -> None:
        super().setup(clock)
        self.server = AsyncGatewayServer(self.gateway).start()
        self.remotes = [
            RemoteClient.for_server(self.server) for _ in range(self.clients)
        ]

    def slices(
        self, index: int, tracer: Tracer | None
    ) -> Iterator[Callable[[], SliceOutcome]]:
        def caller(slot: int, start: int, out: list[Any]) -> None:
            query_json = self.remotes[slot].query_json
            times: list[tuple[float, float]] = []
            failed = 0
            for request, want in self._rotation(
                start + slot, start + self.ops_per_slice, self.clients
            ):
                t0 = perf_counter()
                try:
                    got = query_json(request)
                except ReproError:  # transport failure: the op failed
                    got = None
                times.append((t0, perf_counter()))
                if got != want:
                    failed += 1
            out[slot] = (times, failed)

        def body(start: int) -> SliceOutcome:
            out: list[Any] = [None] * self.clients
            threads = [
                threading.Thread(
                    target=caller, args=(slot, start, out), name=f"e2e-client-{slot}"
                )
                for slot in range(self.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            latencies: list[float] = []
            failed = 0
            for done in out:
                if done is None:  # the caller thread died: its share failed
                    failed += self.ops_per_slice // self.clients
                    continue
                times, caller_failed = done
                failed += caller_failed
                latencies.extend(t1 - t0 for t0, t1 in times)
                if tracer is not None:
                    for t0, t1 in times:
                        tracer.add("client.remote_query_json", t0, t1)
            return latencies, failed

        for start in range(0, self.ops_per_block, self.ops_per_slice):
            yield lambda start=start: body(start)

    def layer_metrics(
        self, tracer: Tracer, speeds: Mapping[int, float]
    ) -> dict[str, float | None]:
        out = super().layer_metrics(tracer, speeds)
        remote = tracer.p50("client.remote_query_json", speeds)
        inproc = tracer.p50("probe.query_json", speeds)
        out["api.transport.self_ms"] = remote - inproc
        snapshot = self.server.admission.snapshot() if self.server else {}
        shed = [
            optional_stat(snapshot, key)
            for key in ("rate_limited", "overloaded", "drained")
        ]
        out["api.admission.shed"] = None if None in shed else float(sum(shed))
        return out

    def describe(self) -> dict[str, Any]:
        return {**super().describe(), "transport": "asyncio loopback, keep-alive"}

    def close(self) -> None:
        for remote in self.remotes:
            remote.close()
        if self.server is not None:
            self.server.stop()
        super().close()
