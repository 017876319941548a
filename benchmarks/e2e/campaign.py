"""The synthetic campaign, driven one workflow instance at a time.

``repro.workflows.synthetic.run_synthetic_campaign`` runs the whole
campaign in one call, which hides the per-instance latency the ingest
workload reports (``engine.execute`` call to return = emit to
queryable, because ``WorkflowRun.__exit__`` flushes through the
synchronous broker).  This is the same loop — same seeded inputs, same
DAG, same engine — with a clock around each instance and seeded
workflow ids, so one seed always yields the same documents.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from repro.capture.context import CaptureContext
from repro.utils.ids import new_workflow_id
from repro.utils.seeding import derive_rng
from repro.workflows.engine import WorkflowEngine
from repro.workflows.synthetic import synthetic_dag

__all__ = [
    "Campaign",
    "run_campaign",
    "MESSAGES_PER_WORKFLOW",
    "DOCS_PER_WORKFLOW",
    "TASKS_PER_WORKFLOW",
]

#: 8 task messages + the workflow record's RUNNING and FINISHED messages
MESSAGES_PER_WORKFLOW = 10
#: the two workflow messages share one ``task_id`` and collapse on upsert
DOCS_PER_WORKFLOW = 9
TASKS_PER_WORKFLOW = 8


class Campaign:
    """``n_inputs`` seeded workflow instances, runnable a few at a time."""

    def __init__(self, context: CaptureContext, n_inputs: int, seed: Any) -> None:
        self.context = context
        self.n_inputs = n_inputs
        self.seed = seed
        self.done = 0
        self._engine = WorkflowEngine(context)
        self._rng = derive_rng("synthetic", seed, n_inputs)

    def run(self, count: int) -> list[tuple[float, float]]:
        """Run the next ``count`` instances; returns each one's (start, end).

        The context is flushed when the campaign completes, as
        ``run_synthetic_campaign`` does.
        """
        rng, engine = self._rng, self._engine
        times: list[tuple[float, float]] = []
        for i in range(self.done, min(self.done + count, self.n_inputs)):
            x = float(rng.uniform(0.5, 10.0))
            dag = synthetic_dag(x, {"factor": float(rng.uniform(1.0, 3.0))})
            workflow_id = new_workflow_id(self.seed, i)
            t0 = perf_counter()
            engine.execute(
                dag, workflow_name="synthetic_math_workflow",
                workflow_id=workflow_id,
            )
            times.append((t0, perf_counter()))
        self.done += len(times)
        if self.done == self.n_inputs:
            self.context.flush()
        return times


def run_campaign(
    context: CaptureContext, n_inputs: int, seed: Any
) -> list[tuple[float, float]]:
    """The whole campaign in one call."""
    return Campaign(context, n_inputs, seed).run(n_inputs)
