"""Experiment runner: models x configurations x queries x repetitions.

Each run builds the *actual prompt* for (configuration, query) from the
live context manager, sends it through the simulated LLM service, and
scores the generated code with both judges (plus the rule-based scorer
for reference).  Prompts are cached per (configuration, query) — they
are model-independent — and every repetition re-queries the model with
a different rep coordinate (temperature 0, slight variation), median-of-3
being taken downstream.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.agent.context_manager import ContextManager
from repro.evaluation.configs import CONFIGURATIONS
from repro.evaluation.judges import JUDGES, LLMJudge, RuleBasedScorer
from repro.evaluation.query_set import EvalQuery
from repro.llm.profiles import MODEL_ORDER
from repro.llm.service import ChatRequest, LLMServer

__all__ = ["EvaluationRecord", "ExperimentRunner", "median_by"]


@dataclass(frozen=True)
class EvaluationRecord:
    """One (model, config, query, rep) outcome with all scores."""

    model: str
    config: str
    qid: str
    rep: int
    generated_code: str
    prompt_tokens: int
    output_tokens: int
    latency_s: float
    truncated: bool
    scores: dict[str, float]  # judge name -> score
    rule_score: float
    failures: tuple[str, ...]


@dataclass
class ExperimentRunner:
    """Drives the full §5.2 evaluation against a live context."""

    context_manager: ContextManager
    queries: Sequence[EvalQuery]
    llm: LLMServer = field(default_factory=LLMServer)
    judges: dict[str, LLMJudge] = field(
        default_factory=lambda: {name: LLMJudge(p) for name, p in JUDGES.items()}
    )
    n_reps: int = 3

    def __post_init__(self) -> None:
        self._rule = RuleBasedScorer()

    # -- prompt assembly ---------------------------------------------------------
    def prompt_for(self, config_label: str, query: EvalQuery) -> str:
        return self.context_manager.prompt(CONFIGURATIONS[config_label], query.nl)

    # -- execution --------------------------------------------------------------------
    def run(
        self,
        *,
        models: Iterable[str] = MODEL_ORDER,
        configs: Iterable[str] = ("Full",),
        queries: Iterable[EvalQuery] | None = None,
        n_reps: int | None = None,
    ) -> list[EvaluationRecord]:
        queries = list(queries if queries is not None else self.queries)
        reps = n_reps if n_reps is not None else self.n_reps
        frame = self.context_manager.to_frame()
        known = self.context_manager.known_fields()
        records: list[EvaluationRecord] = []
        for config_label in configs:
            for query in queries:
                prompt = self.prompt_for(config_label, query)
                for model in models:
                    for rep in range(reps):
                        response = self.llm.complete(
                            ChatRequest(
                                model=model,
                                prompt=prompt,
                                rep=rep,
                                query_id=f"{query.qid}:{config_label}",
                                traits=query.traits,
                            )
                        )
                        scores = {
                            name: judge.score(
                                query.gold,
                                response.text,
                                frame=frame,
                                known_fields=known,
                                model_under_test=model,
                                query_id=query.qid,
                                rep=rep,
                            )
                            for name, judge in self.judges.items()
                        }
                        records.append(
                            EvaluationRecord(
                                model=model,
                                config=config_label,
                                qid=query.qid,
                                rep=rep,
                                generated_code=response.text,
                                prompt_tokens=response.prompt_tokens,
                                output_tokens=response.output_tokens,
                                latency_s=response.latency_s,
                                truncated=response.truncated,
                                scores=scores,
                                rule_score=self._rule.score(
                                    query.gold,
                                    response.text,
                                    frame=frame,
                                    known_fields=known,
                                ),
                                failures=tuple(response.failures),
                            )
                        )
        return records


def median_by(
    records: Sequence[EvaluationRecord],
    *,
    judge: str,
    keys: tuple[str, ...] = ("model", "config", "qid"),
) -> dict[tuple, float]:
    """Median score over reps, grouped by the given record attributes."""
    buckets: dict[tuple, list[float]] = {}
    for r in records:
        key = tuple(getattr(r, k) for k in keys)
        buckets.setdefault(key, []).append(r.scores[judge])
    return {k: statistics.median(v) for k, v in buckets.items()}
