"""``chat_session``: the agent turn, end to end, on one session.

A 25-turn script — the paper's 20 golden natural-language questions,
two lineage traversals, one ``SELECT``, one "in the database" question
and a greeting — replayed 12 times per block through
``GatewayClient.chat_json``.  The keeper ingests the paper's 100-input
synthetic campaign during set-up and is then stopped: the agent's own
tool/LLM records are not ``type="task"``, so the 800-task context frame
and the 900-document store are the same in every block.  Router, prompt
assembly, the simulated LLM and the DataFrame over the in-memory
context dominate; storage and transport are bypassed.
"""

from __future__ import annotations

from statistics import mean
from time import perf_counter
from typing import Any, Callable, Iterator, Mapping

from repro.agent.service import AgentService
from repro.api.client import GatewayClient
from repro.api.gateway import ProvenanceGateway
from repro.api.schemas import ChatReply, from_json
from repro.capture.context import CaptureContext
from repro.evaluation.query_set import build_query_set
from repro.lineage.index import LineageIndex
from repro.llm.service import LLMServer
from repro.provenance.keeper import ProvenanceKeeper
from repro.provenance.query_api import QueryAPI
from repro.storage.memory import ProvenanceDatabase

from .campaign import run_campaign
from .harness import CheckFailed, PhaseClock, SliceOutcome, Tracer, Workload
from .metrics import TURN_KINDS

__all__ = ["ChatSession"]

SESSION = "e2e"
#: reply intent -> the ``agent.turn_ms.<kind>`` it is reported under
_KIND_OF_INTENT = {
    "monitoring_query": "monitoring",
    "historical_query": "historical",
    "lineage_query": "lineage",
    "sql_query": "sql",
    "greeting": "greeting",
}


class ChatSession(Workload):
    name = "chat_session"
    clients = 1

    def __init__(self, seed: int, *, smoke: bool = False, trace: bool = False):
        super().__init__(seed, smoke=smoke, trace=trace)
        self.n_inputs = 100
        self.passes = 1 if smoke else 12
        self.service: AgentService | None = None
        self.script: list[str] = []
        self.ops_per_block = 25 * self.passes

    # -- set-up ------------------------------------------------------------------
    def setup(self, clock: PhaseClock) -> None:
        context = CaptureContext(seed=("e2e-chat", self.seed))
        store = ProvenanceDatabase()
        self.lineage = LineageIndex()
        keeper = ProvenanceKeeper(context.broker, store, lineage_index=self.lineage)
        keeper.start()
        self.llm = LLMServer()
        self.service = AgentService(
            context, llm=self.llm, query_api=QueryAPI(store), keeper=keeper
        )
        run_campaign(context, self.n_inputs, ("e2e-chat", self.seed))
        keeper.stop()
        clock.mark("ingest campaign")
        self.client: Any = GatewayClient(ProvenanceGateway(self.service))
        created = self.client.create_session(SESSION)
        if getattr(created, "session_id", None) != SESSION:
            raise CheckFailed(f"create_session answered {created!r}")

        frame = self.service.context_manager.to_frame()
        ordered = frame.sort_values("started_at")
        # the last task of the sixth workflow: 7 ancestors to walk
        self.lineage_task = ordered.row(5 * 8 + 7)["task_id"]
        self.script = [q.nl for q in build_query_set(frame)] + [
            f"What is upstream of task '{self.lineage_task}'?",
            "What is the critical path?",
            "SELECT activity_id, AVG(duration) AS avg_duration FROM tasks "
            "GROUP BY activity_id",
            "In the database, how many tasks finished?",
            "hello",
        ]
        self.ops_per_block = len(self.script) * self.passes
        self.stored_docs = len(store)
        self.context_rows = len(frame)
        self.expected: list[str] = []
        self.kinds: list[str] = []
        self.llm.keep_history = self.trace  # the warm-up block's LLM calls

    # -- the block ---------------------------------------------------------------
    def slices(
        self, index: int, tracer: Tracer | None
    ) -> Iterator[Callable[[], SliceOutcome]]:
        """One pass over the script per slice."""
        self._replies: list[str] = []

        def body() -> SliceOutcome:
            chat_json, expected = self.client.chat_json, self.expected
            latencies: list[float] = []
            failed = 0
            for position, message in enumerate(self.script):
                t0 = perf_counter()
                got = chat_json(SESSION, message)
                t1 = perf_counter()
                latencies.append(t1 - t0)
                if tracer is not None:
                    tracer.add(f"agent.turn.{self.kinds[position]}", t0, t1)
                if index == 0:
                    self._replies.append(got)
                elif got != expected[position]:
                    failed += 1
            return latencies, failed

        for _ in range(self.passes):
            yield body

    def check_block(self, index: int) -> int:
        if index == 0:
            replies, self._replies = self._replies, []
            return self._record_warmup(replies)
        return 0

    def _record_warmup(self, replies: list[str]) -> int:
        """First pass becomes the reference; every turn must be ``ok``."""
        self.llm.keep_history = False
        # keep the first pass's LLM calls only: one per LLM-backed turn
        del self.llm.history[len(self.llm.history) // self.passes:]
        n = len(self.script)
        self.expected = replies[:n]
        self.kinds = []
        for message, text in zip(self.script, self.expected):
            reply = from_json(text)
            if not isinstance(reply, ChatReply) or not reply.ok:
                raise CheckFailed(f"turn {message!r} answered {text[:200]}")
            self.kinds.append(_KIND_OF_INTENT[reply.intent])
        if set(self.kinds) != set(TURN_KINDS):
            raise CheckFailed(f"script covers {sorted(set(self.kinds))} only")
        return sum(
            got != self.expected[i % n] for i, got in enumerate(replies)
        )

    # -- layer probes ------------------------------------------------------------
    def probe(self, tracer: Tracer) -> None:
        service = self.service
        for message in self.script:
            tracer.call("agent.router.classify", service.router.classify, message)
        tracer.call("agent.context.to_frame", service.context_manager.to_frame)
        for request, _response in self.llm.history:
            tracer.call("llm.complete", self.llm.complete, request)
        tracer.call("lineage.upstream", self.lineage.upstream, self.lineage_task)
        tracer.call("lineage.critical_path", self.lineage.critical_path)

    def layer_metrics(
        self, tracer: Tracer, speeds: Mapping[int, float]
    ) -> dict[str, float | None]:
        p50 = lambda name, scale=1e3: tracer.p50(name, speeds, scale)  # noqa: E731
        out: dict[str, float | None] = {
            f"agent.turn_ms.{kind}": p50(f"agent.turn.{kind}") for kind in TURN_KINDS
        }
        complete, to_frame = p50("llm.complete"), p50("agent.context.to_frame")
        # one LLM call per LLM-backed turn of the warm-up pass
        history = self.llm.history
        out.update({
            "agent.router.classify_us": p50("agent.router.classify", 1e6),
            "agent.context.to_frame_ms": to_frame,
            "llm.complete_ms": complete,
            "llm.prompt_tokens_per_turn": (
                mean(r.prompt_tokens for _q, r in history) if history else None
            ),
            "llm.output_tokens_per_turn": (
                mean(r.output_tokens for _q, r in history) if history else None
            ),
            "agent.turn_self_ms": out["agent.turn_ms.monitoring"] - complete - to_frame,
            "lineage.upstream_ms": p50("lineage.upstream"),
            "lineage.critical_path_ms": p50("lineage.critical_path"),
        })
        return out

    def describe(self) -> dict[str, Any]:
        return {
            "script_turns": len(self.script),
            "passes_per_block": self.passes,
            "stored_docs": getattr(self, "stored_docs", None),
            "context_rows": getattr(self, "context_rows", None),
        }

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
