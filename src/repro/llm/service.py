"""The LLM server: chat-completion facade over the simulation pipeline.

Mirrors the paper's deployment: the agent talks to an "LLM Server" over
a request/response API; which model serves the request is configuration.
A request carries the fully assembled prompt; the response carries the
generated query code (or prose, when the model failed the format gate),
token accounting, and simulated latency.  Temperature is accepted for
interface fidelity; the paper pins it to zero, and reps still vary
slightly through the seeded rep coordinate — matching the paper's
observation that "LLMs can still produce slight variations even with
the temperature set to zero".

The server is **shared infrastructure**: one instance serves every
session behind the agent gateway, with concurrent ``complete`` calls
from the serving worker pool.  Request accounting (counts, token
totals, a latency reservoir with percentiles) lives behind a lock and
is exposed as a :meth:`stats` snapshot; the generation pipeline itself
is pure, so no lock is held while a request is being served.

Between turns a prompt changes only in its last section, the question,
so the server keeps a small **prefix cache** the way a real serving
stack keeps a KV prefix cache: the text before the user-query section
is looked up, and its token count and :class:`PerceivedContext` are
reused (shared, read-only); only the question is tokenised and parsed
per request.  A cached prefix still *counts* as prompt tokens — the
accounting is about what was sent, not what was re-read.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

from repro.errors import ContextWindowExceededError
from repro.llm.generation import GenerationResult, QueryTraits, generate_query_code
from repro.llm.latency import simulate_latency
from repro.llm.profiles import ModelProfile, get_profile
from repro.llm.prompt_format import split_user_query
from repro.llm.prompt_reading import perceive_prefix, with_question
from repro.llm.tokenizer import count_tokens
from repro.utils.reservoir import LatencyReservoir

__all__ = ["ChatRequest", "ChatResponse", "LLMServer"]

#: distinct prompt prefixes kept (one per live prompt config x schema
#: revision x session guideline set; ~15 KB of text and its parse each)
_MAX_PREFIXES = 32


@dataclass
class ChatRequest:
    """One chat-completion request."""

    model: str
    prompt: str
    temperature: float = 0.0
    rep: int = 0
    query_id: str = ""
    traits: QueryTraits | None = None
    #: refuse (like a real API) instead of truncating when True
    strict_context_window: bool = False


@dataclass
class ChatResponse:
    """The model's reply plus accounting."""

    model: str
    text: str
    prompt_tokens: int
    output_tokens: int
    latency_s: float
    truncated: bool
    failures: list[str] = field(default_factory=list)

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.output_tokens


class LLMServer:
    """Serves chat completions for all registered simulated models.

    Thread-safe: many sessions' turns may call :meth:`complete`
    concurrently.  Generation is pure computation; only the accounting
    update takes the stats lock.
    """

    def __init__(self) -> None:
        self.request_count = 0
        self.history: list[tuple[ChatRequest, ChatResponse]] = []
        self.keep_history = False
        self._stats_lock = threading.Lock()
        #: prefix text -> what it carries (thread-safe LRU; two threads
        #: missing on one prefix may both read it)
        self._read_prefix = lru_cache(maxsize=_MAX_PREFIXES)(perceive_prefix)
        self._prompt_tokens_total = 0
        self._output_tokens_total = 0
        self._simulated_latency_total_s = 0.0
        #: the most recent simulated latencies
        self._latencies = LatencyReservoir()

    def complete(self, request: ChatRequest) -> ChatResponse:
        profile = get_profile(request.model)
        prefix, question = split_user_query(request.prompt)
        perceived = with_question(
            self._read_prefix(prefix), prefix, question, profile.context_window
        )
        prompt_tokens = perceived.prompt_tokens
        if request.strict_context_window and perceived.truncated:
            raise ContextWindowExceededError(
                profile.name, prompt_tokens, profile.context_window
            )

        result: GenerationResult = generate_query_code(
            profile,
            perceived,
            traits=request.traits,
            rep=request.rep,
            query_id=request.query_id,
        )
        output_tokens = result.output_tokens_hint or count_tokens(result.text)  # provlint: disable=falsy-or-default - a 0 hint means "no hint"
        latency = simulate_latency(
            profile,
            prompt_tokens,
            output_tokens,
            rep=request.rep,
            key=request.query_id or perceived.user_query,
        )
        response = ChatResponse(
            model=profile.name,
            text=result.text,
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
            latency_s=latency,
            truncated=perceived.truncated,
            failures=list(result.failures),
        )
        with self._stats_lock:
            self.request_count += 1
            self._prompt_tokens_total += prompt_tokens
            self._output_tokens_total += output_tokens
            self._simulated_latency_total_s += latency
            self._latencies.add(latency)
            if self.keep_history:
                self.history.append((request, response))
        return response

    # -- stats -----------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Consistent snapshot of request accounting (thread-safe).

        Latency percentiles are over the simulated per-request
        latencies (seconds) in a bounded most-recent reservoir; token
        totals and request counts are exact since construction.  Prefix
        hits and misses count lookups: one per request, refused ones
        (``strict_context_window``) included.
        """
        prefixes = self._read_prefix.cache_info()
        with self._stats_lock:
            return {
                "requests": self.request_count,
                "prompt_tokens": self._prompt_tokens_total,
                "output_tokens": self._output_tokens_total,
                "total_tokens": (
                    self._prompt_tokens_total + self._output_tokens_total
                ),
                "simulated_latency_total_s": self._simulated_latency_total_s,
                **self._latencies.snapshot(),
                "prefix_hits": prefixes.hits,
                "prefix_misses": prefixes.misses,
            }

    # -- convenience ----------------------------------------------------------
    def models(self) -> list[str]:
        from repro.llm.profiles import MODEL_ORDER

        return list(MODEL_ORDER)
