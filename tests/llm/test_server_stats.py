"""LLMServer: thread-safe accounting, latency percentiles, virtual latency."""

from __future__ import annotations

import threading
import time

import pytest

from repro.llm.service import ChatRequest, LLMServer


def _request(i: int = 0, model: str = "gpt-4") -> ChatRequest:
    return ChatRequest(
        model=model,
        prompt=f"User query: How many tasks have finished? v{i}",
        query_id=f"q{i}",
    )


class TestStats:
    def test_counts_and_token_totals(self):
        server = LLMServer()
        responses = [server.complete(_request(i)) for i in range(5)]
        stats = server.stats()
        assert stats["requests"] == 5
        assert stats["prompt_tokens"] == sum(r.prompt_tokens for r in responses)
        assert stats["output_tokens"] == sum(r.output_tokens for r in responses)
        assert stats["total_tokens"] == (
            stats["prompt_tokens"] + stats["output_tokens"]
        )
        assert stats["simulated_latency_total_s"] == pytest.approx(
            sum(r.latency_s for r in responses)
        )

    def test_latency_percentiles_ordered(self):
        server = LLMServer()
        for i in range(40):
            server.complete(_request(i))
        stats = server.stats()
        assert (
            0
            < stats["latency_p50_s"]
            <= stats["latency_p90_s"]
            <= stats["latency_p99_s"]
            <= stats["latency_max_s"]
        )

    def test_empty_stats(self):
        stats = LLMServer().stats()
        assert stats["requests"] == 0
        assert stats["latency_p50_s"] is None

    def test_concurrent_completions_account_exactly(self):
        server = LLMServer()
        errors: list[BaseException] = []

        def worker(seed: int) -> None:
            try:
                for i in range(20):
                    server.complete(_request(seed * 100 + i))
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = server.stats()
        assert stats["requests"] == 160
        assert server.request_count == 160

    def test_history_kept_under_concurrency(self):
        server = LLMServer()
        server.keep_history = True

        def worker(seed: int) -> None:
            for i in range(10):
                server.complete(_request(seed * 50 + i))

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(server.history) == 40


class TestVirtualLatency:
    def test_latency_is_simulated_not_slept(self):
        server = LLMServer()
        t0 = time.perf_counter()
        response = server.complete(_request())
        elapsed = time.perf_counter() - t0
        # simulated latency is seconds; real time must stay far below it
        assert response.latency_s > 0.1
        assert elapsed < response.latency_s / 2
