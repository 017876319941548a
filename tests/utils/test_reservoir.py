"""LatencyReservoir against a sorted-list reference, and the two
``stats()`` dicts it backs against the same reference."""

from __future__ import annotations

import random

import pytest

from repro.agent.service import AgentService
from repro.api import gateway as gateway_module
from repro.api.gateway import ProvenanceGateway
from repro.api.schemas import LineageRequest, QueryRequest
from repro.capture.context import CaptureContext
from repro.llm.service import ChatRequest, LLMServer
from repro.provenance.query_api import QueryAPI
from repro.storage import ProvenanceDatabase
from repro.utils.reservoir import _MAX_LATENCY_SAMPLES, LatencyReservoir

BOUND = _MAX_LATENCY_SAMPLES


def reference(samples: list[float]) -> dict[str, float | None]:
    """Percentiles of the last ``BOUND`` samples, from a plain sort."""
    lat = sorted(samples[-BOUND:])
    n = len(lat)
    if not n:
        return dict.fromkeys(
            ("latency_p50_s", "latency_p90_s", "latency_p99_s", "latency_max_s")
        )
    return {
        "latency_p50_s": lat[int(0.50 * (n - 1))],
        "latency_p90_s": lat[int(0.90 * (n - 1))],
        "latency_p99_s": lat[int(0.99 * (n - 1))],
        "latency_max_s": lat[-1],
    }


def filled(samples: list[float]) -> LatencyReservoir:
    reservoir = LatencyReservoir()
    for value in samples:
        reservoir.add(value)
    return reservoir


class TestLatencyReservoir:
    def test_bound(self):
        assert BOUND == 4096

    @pytest.mark.parametrize("n", [0, 1, BOUND, BOUND + 1])
    def test_percentiles_match_reference(self, n):
        rng = random.Random(n)
        samples = [rng.random() for _ in range(n)]
        reservoir = filled(samples)
        assert reservoir.snapshot() == reference(samples)
        assert list(reservoir.snapshot()) == list(reference(samples))  # key order
        assert reservoir.count == n

    def test_eviction_drops_the_oldest_not_the_smallest(self):
        # oldest sample is the LARGEST: evicting the smallest would keep it
        samples = [1e9] + [float(i) for i in range(1, BOUND)]
        reservoir = filled(samples)
        assert reservoir.snapshot()["latency_max_s"] == 1e9
        reservoir.add(0.5)
        assert reservoir.snapshot()["latency_max_s"] == float(BOUND - 1)
        assert reservoir.snapshot() == reference(samples + [0.5])

    def test_duplicates_evict_one_copy(self):
        samples = [1.0] * BOUND + [2.0]
        snapshot = filled(samples).snapshot()
        # one 1.0 left, BOUND - 1 stayed: the median is still 1.0
        assert snapshot == reference(samples)
        assert snapshot["latency_p50_s"] == 1.0
        assert snapshot["latency_p99_s"] == 1.0
        assert snapshot["latency_max_s"] == 2.0

    def test_matches_reference_after_every_add_with_duplicates(self):
        rng = random.Random(7)
        # few distinct values, so nearly every eviction hits a duplicate
        samples = [float(rng.randrange(12)) for _ in range(BOUND + 600)]
        reservoir = LatencyReservoir()
        for i, value in enumerate(samples, 1):
            reservoir.add(value)
            if i % 97 == 0 or i > BOUND - 3:
                assert reservoir.snapshot() == reference(samples[:i]), i
        assert reservoir.count == len(samples)


class TestStatsBackedByTheReservoir:
    """Keys, key order and values of the two ``stats()`` dicts for a fixed
    request sequence — written against the inline reservoirs these
    classes used to carry, and unchanged by the move to the shared one."""

    def test_llm_server_stats(self):
        server = LLMServer()
        server.keep_history = True
        for i in range(60):
            server.complete(
                ChatRequest(
                    model="gpt-4" if i % 3 else "llama3-8b",
                    prompt=f"User query: How many tasks have finished? v{i % 17}",
                    query_id=f"q{i % 17}",
                    rep=i % 2,
                )
            )
        responses = [response for _, response in server.history]
        latencies = [r.latency_s for r in responses]
        prompt_tokens = sum(r.prompt_tokens for r in responses)
        output_tokens = sum(r.output_tokens for r in responses)
        expected = {
            "requests": 60,
            "prompt_tokens": prompt_tokens,
            "output_tokens": output_tokens,
            "total_tokens": prompt_tokens + output_tokens,
            "simulated_latency_total_s": server.stats()["simulated_latency_total_s"],
            **reference(latencies),
            "prefix_hits": 60 - 17,
            "prefix_misses": 17,
        }
        stats = server.stats()
        assert stats == expected
        assert list(stats) == list(expected)
        assert stats["simulated_latency_total_s"] == pytest.approx(sum(latencies))

    def test_gateway_stats_endpoints(self, monkeypatch):
        # a clock that reads 0.0 when a request starts and its scripted
        # latency when it ends, so every observed latency is exact
        scripted = iter(random.Random(3).choices([0.25, 0.5, 1.0, 2.0, 4.0], k=80))
        observed: list[float] = []
        state = {"running": False}

        def clock() -> float:
            state["running"] = not state["running"]
            if state["running"]:
                return 0.0
            observed.append(next(scripted))
            return observed[-1]

        monkeypatch.setattr(gateway_module, "perf_counter", clock)
        store = ProvenanceDatabase()
        store.upsert_many(
            [
                {"type": "task", "task_id": f"t{i}", "status": "FINISHED",
                 "used": {"_upstream": [f"t{i - 1}"] if i else []}}
                for i in range(6)
            ]
        )
        ctx = CaptureContext()
        service = AgentService(ctx, llm=LLMServer(), query_api=QueryAPI(store))
        ctx.broker.publish_batch("provenance.task", store.all())
        try:
            gateway = ProvenanceGateway(service)
            by_endpoint: dict[str, list[float]] = {
                "lineage": [], "query": [], "stats": [],
            }
            for i in range(40):
                seen = len(observed)
                if i % 5 == 4:
                    gateway.stats()
                    name = "stats"
                elif i % 2:
                    gateway.lineage_view(LineageRequest(task_id=f"t{i % 6}"))
                    name = "lineage"
                else:
                    gateway.execute_query(
                        QueryRequest(dialect="filter", filter={"task_id": f"t{i % 6}"})
                    )
                    name = "query"
                assert len(observed) == seen + 1  # one timed span per request
                by_endpoint[name].append(observed[-1])
            endpoints = gateway.stats().endpoints
        finally:
            service.close()
        expected = {
            name: {"requests": len(latencies), **reference(latencies)}
            for name, latencies in by_endpoint.items()
        }
        assert endpoints == expected
        assert list(endpoints) == ["lineage", "query", "stats"]
        for name, snapshot in endpoints.items():
            assert list(snapshot) == list(expected[name]), name
