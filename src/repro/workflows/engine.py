"""A small provenance-integrated DAG workflow engine.

Tasks declare inputs as literal values or :class:`Ref` references to
upstream outputs; the dependency graph is derived from the references
(plus explicit ``after`` edges for pure control dependencies).  The
engine runs tasks in topological order, assigns each to a simulated
cluster node (least-loaded-first), advances the virtual clock by the
task's ``cost_s``, and emits one task-provenance message per execution
through the capture core ``@flow_task`` runs on — including
``used._upstream`` edges that the provenance graph understands.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable

import networkx as nx

from repro.capture.context import CaptureContext, WorkflowRun
from repro.capture.instrumentation import binder_for, capture_call
from repro.errors import CyclicDependencyError, TaskFailedError, WorkflowError

__all__ = ["Ref", "TaskSpec", "WorkflowEngine", "WorkflowResult"]


@dataclass(frozen=True)
class Ref:
    """Reference to an upstream task's output.

    ``Ref("minimize")`` passes the task's whole result;
    ``Ref("minimize", "energy")`` passes one field of a dict result.
    """

    task: str
    field: str | None = None


@dataclass
class TaskSpec:
    """Declarative description of one task in the DAG."""

    name: str
    fn: Callable[..., Any]
    inputs: dict[str, Any] = field(default_factory=dict)
    after: tuple[str, ...] = ()
    activity_id: str | None = None
    cost_s: float = 0.01
    host: str | None = None

    def dependencies(self) -> set[str]:
        deps = {v.task for v in self.inputs.values() if isinstance(v, Ref)}
        deps.update(self.after)
        return deps


@dataclass
class WorkflowResult:
    """Execution outcome: per-task results, ids, and placements."""

    workflow_id: str
    results: dict[str, Any]
    task_ids: dict[str, str]
    hosts: dict[str, str]
    order: list[str]

    def __getitem__(self, task_name: str) -> Any:
        return self.results[task_name]


class WorkflowEngine:
    """Executes task DAGs on a simulated cluster with provenance capture."""

    def __init__(
        self,
        context: CaptureContext | None = None,
        *,
        cluster_hosts: tuple[str, ...] = ("node-0", "node-1", "node-2", "node-3"),
    ):
        self.context = context if context is not None else CaptureContext.default()
        if not cluster_hosts:
            raise WorkflowError("cluster needs at least one host")
        self.cluster_hosts = cluster_hosts
        self._host_load: dict[str, float] = {h: 0.0 for h in cluster_hosts}

    # -- graph handling -----------------------------------------------------------
    @staticmethod
    def build_graph(tasks: list[TaskSpec]) -> nx.DiGraph:
        """The dependency DAG; ``graph.graph["order"]`` is its execution order."""
        g = nx.DiGraph()
        for t in tasks:
            if t.name in g:
                raise WorkflowError(f"duplicate task name {t.name!r}")
            g.add_node(t.name, spec=t)
        for t in tasks:
            for dep in t.dependencies():
                if dep not in g:
                    raise WorkflowError(
                        f"task {t.name!r} depends on unknown task {dep!r}"
                    )
                g.add_edge(dep, t.name)
        try:
            g.graph["order"] = list(nx.topological_sort(g))
        except nx.NetworkXUnfeasible:
            raise CyclicDependencyError(
                f"dependency cycle: {nx.find_cycle(g)}"
            ) from None
        return g

    # -- scheduling ------------------------------------------------------------------
    def _assign_host(self, spec: TaskSpec) -> str:
        if spec.host is not None:
            # pinned tasks still occupy their host: without this the
            # least-loaded choice below under-counts any host that also
            # runs pinned work
            self._host_load[spec.host] = (
                self._host_load.get(spec.host, 0.0) + spec.cost_s
            )
            return spec.host
        host = min(
            self.cluster_hosts, key=lambda h: (self._host_load.get(h, 0.0), h)
        )
        self._host_load[host] += spec.cost_s
        return host

    # -- execution -------------------------------------------------------------------
    def execute(
        self,
        tasks: list[TaskSpec],
        *,
        workflow_name: str = "workflow",
        workflow_id: str | None = None,
    ) -> WorkflowResult:
        graph = self.build_graph(tasks)
        order: list[str] = graph.graph["order"]
        results: dict[str, Any] = {}
        task_ids: dict[str, str] = {}
        hosts: dict[str, str] = {}

        with WorkflowRun(
            workflow_name, self.context, workflow_id=workflow_id
        ) as run:
            for name in order:
                spec: TaskSpec = graph.nodes[name]["spec"]
                kwargs = {
                    k: self._resolve(v, results) for k, v in spec.inputs.items()
                }
                host = self._assign_host(spec)
                hosts[name] = host
                upstream_ids = [task_ids[d] for d in sorted(spec.dependencies())]

                try:
                    results[name], task_ids[name] = capture_call(
                        self.context,
                        spec.activity_id or spec.name,
                        functools.partial(_run_with_cost, spec, self.context.clock),
                        binder_for(spec.fn),
                        (),
                        kwargs,
                        upstream_ids,
                        host,
                    )
                except Exception as exc:
                    raise TaskFailedError(name, exc) from exc
        return WorkflowResult(run.workflow_id, results, task_ids, hosts, order)

    @staticmethod
    def _resolve(value: Any, results: Mapping[str, Any]) -> Any:
        if isinstance(value, Ref):
            out = results[value.task]
            if value.field is None:
                return out
            if isinstance(out, Mapping) and value.field in out:
                return out[value.field]
            raise WorkflowError(
                f"task {value.task!r} result has no field {value.field!r}"
            )
        return value


def _run_with_cost(spec: TaskSpec, clock: Any, /, **kwargs: Any) -> Any:
    """Call the task fn so the virtual clock advances *inside* the task.

    The capture core stamps ``ended_at`` after this returns, so advancing
    here makes task duration equal the simulated cost — for failures too
    (the sleep is in a ``finally``).
    """
    try:
        return spec.fn(**kwargs)
    finally:
        clock.sleep(spec.cost_s)
