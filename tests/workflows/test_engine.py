"""Tests for the DAG workflow engine."""

from __future__ import annotations

import pytest

from repro.capture.context import CaptureContext
from repro.errors import CyclicDependencyError, TaskFailedError, WorkflowError
from repro.provenance.keeper import ProvenanceKeeper
from repro.workflows.engine import Ref, TaskSpec, WorkflowEngine


@pytest.fixture
def ctx():
    return CaptureContext()


@pytest.fixture
def keeper(ctx):
    k = ProvenanceKeeper(ctx.broker)
    k.start()
    return k


def add(a, b):
    return {"sum": a + b}


def double(value):
    return {"sum": value * 2}


class TestGraphBuilding:
    def test_dependencies_from_refs(self):
        tasks = [
            TaskSpec("a", add, {"a": 1, "b": 2}),
            TaskSpec("b", double, {"value": Ref("a", "sum")}),
        ]
        g = WorkflowEngine.build_graph(tasks)
        assert list(g.successors("a")) == ["b"]

    def test_after_edges(self):
        tasks = [
            TaskSpec("a", add, {"a": 1, "b": 2}),
            TaskSpec("b", add, {"a": 1, "b": 1}, after=("a",)),
        ]
        g = WorkflowEngine.build_graph(tasks)
        assert list(g.successors("a")) == ["b"]

    def test_cycle_detected(self):
        tasks = [
            TaskSpec("a", double, {"value": Ref("b", "sum")}),
            TaskSpec("b", double, {"value": Ref("a", "sum")}),
        ]
        with pytest.raises(CyclicDependencyError):
            WorkflowEngine.build_graph(tasks)

    def test_unknown_dependency(self):
        with pytest.raises(WorkflowError):
            WorkflowEngine.build_graph(
                [TaskSpec("a", double, {"value": Ref("ghost", "x")})]
            )

    def test_duplicate_names(self):
        with pytest.raises(WorkflowError):
            WorkflowEngine.build_graph(
                [TaskSpec("a", add, {"a": 1, "b": 1}), TaskSpec("a", add, {"a": 1, "b": 1})]
            )


class TestExecution:
    def test_dataflow_through_refs(self, ctx):
        engine = WorkflowEngine(ctx)
        result = engine.execute(
            [
                TaskSpec("a", add, {"a": 1, "b": 2}),
                TaskSpec("b", double, {"value": Ref("a", "sum")}),
            ]
        )
        assert result["b"] == {"sum": 6}
        assert result.order == ["a", "b"]

    def test_whole_result_ref(self, ctx):
        def passthrough(blob):
            return {"got": blob["sum"]}

        engine = WorkflowEngine(ctx)
        result = engine.execute(
            [
                TaskSpec("a", add, {"a": 2, "b": 3}),
                TaskSpec("b", passthrough, {"blob": Ref("a")}),
            ]
        )
        assert result["b"] == {"got": 5}

    def test_missing_field_in_ref(self, ctx):
        engine = WorkflowEngine(ctx)
        with pytest.raises(WorkflowError):
            engine.execute(
                [
                    TaskSpec("a", add, {"a": 1, "b": 1}),
                    TaskSpec("b", double, {"value": Ref("a", "nope")}),
                ]
            )

    def test_task_failure_wrapped(self, ctx):
        def boom():
            raise RuntimeError("dead")

        engine = WorkflowEngine(ctx)
        with pytest.raises(TaskFailedError) as err:
            engine.execute([TaskSpec("a", boom)])
        assert err.value.task_id == "a"

    def test_clock_advances_by_cost(self, ctx):
        start = ctx.clock.now()
        engine = WorkflowEngine(ctx)
        engine.execute([TaskSpec("a", add, {"a": 1, "b": 1}, cost_s=5.0)])
        assert ctx.clock.now() >= start + 5.0


class TestProvenanceIntegration:
    def test_upstream_edges_recorded(self, ctx, keeper):
        engine = WorkflowEngine(ctx)
        result = engine.execute(
            [
                TaskSpec("a", add, {"a": 1, "b": 2}),
                TaskSpec("b", double, {"value": Ref("a", "sum")}),
            ]
        )
        ctx.flush()
        doc = keeper.database.find_one({"activity_id": "b"})
        assert doc["used"]["_upstream"] == [result.task_ids["a"]]

    def test_task_duration_matches_cost(self, ctx, keeper):
        engine = WorkflowEngine(ctx)
        engine.execute([TaskSpec("a", add, {"a": 1, "b": 1}, cost_s=2.0)])
        ctx.flush()
        doc = keeper.database.find_one({"activity_id": "a"})
        assert doc["duration"] == pytest.approx(2.0, abs=1e-3)

    def test_workflow_record_emitted(self, ctx, keeper):
        engine = WorkflowEngine(ctx)
        result = engine.execute(
            [TaskSpec("a", add, {"a": 1, "b": 1})], workflow_name="wf_x"
        )
        ctx.flush()
        doc = keeper.database.find_one({"type": "workflow"})
        assert doc["activity_id"] == "wf_x"
        assert doc["workflow_id"] == result.workflow_id


class TestScheduling:
    def test_hosts_assigned_from_cluster(self, ctx):
        engine = WorkflowEngine(ctx, cluster_hosts=("h1", "h2"))
        result = engine.execute(
            [
                TaskSpec("a", add, {"a": 1, "b": 1}),
                TaskSpec("b", add, {"a": 1, "b": 1}),
                TaskSpec("c", add, {"a": 1, "b": 1}),
            ]
        )
        assert set(result.hosts.values()) <= {"h1", "h2"}
        # least-loaded spreads work over both nodes
        assert len(set(result.hosts.values())) == 2

    def test_explicit_host_respected(self, ctx):
        engine = WorkflowEngine(ctx, cluster_hosts=("h1",))
        result = engine.execute(
            [TaskSpec("a", add, {"a": 1, "b": 1}, host="special")]
        )
        assert result.hosts["a"] == "special"

    def test_empty_cluster_rejected(self, ctx):
        with pytest.raises(WorkflowError):
            WorkflowEngine(ctx, cluster_hosts=())

    def test_pinned_tasks_count_toward_host_load(self, ctx):
        engine = WorkflowEngine(ctx, cluster_hosts=("h1", "h2"))
        result = engine.execute(
            [
                # heavy work pinned to h1 must make the balancer prefer h2
                TaskSpec("pinned", add, {"a": 1, "b": 1}, host="h1", cost_s=100.0),
                TaskSpec("free", add, {"a": 1, "b": 1}, cost_s=1.0),
            ]
        )
        assert result.hosts["pinned"] == "h1"
        assert result.hosts["free"] == "h2"
        assert engine._host_load["h1"] == pytest.approx(100.0)

    def test_pinned_host_outside_cluster_tracked_but_not_schedulable(self, ctx):
        engine = WorkflowEngine(ctx, cluster_hosts=("h1",))
        result = engine.execute(
            [
                TaskSpec("a", add, {"a": 1, "b": 1}, host="gpu-9", cost_s=50.0),
                TaskSpec("b", add, {"a": 1, "b": 1}),
            ]
        )
        assert result.hosts["a"] == "gpu-9"
        # the balancer never places free tasks on a host outside the cluster
        assert result.hosts["b"] == "h1"
        assert engine._host_load["gpu-9"] == pytest.approx(50.0)


class TestTaskIdAttribution:
    """``task_ids`` and ``used._upstream`` name the tasks the engine ran —
    never whatever record happened to be emitted last on the context."""

    @staticmethod
    def _assert_edges_stay_inside_their_workflow(docs):
        workflow_of = {d["task_id"]: d["workflow_id"] for d in docs}
        edges = 0
        for doc in docs:
            for upstream in doc["used"].get("_upstream", ()):
                assert workflow_of.get(upstream) == doc["workflow_id"], (
                    f"{doc['activity_id']} points at foreign record {upstream!r}"
                )
                edges += 1
        return edges

    def test_reentrant_subscriber_emit_is_not_mistaken_for_the_task(self):
        from repro.messaging.buffer import SizeFlush
        from repro.provenance.messages import TaskProvenanceMessage
        from repro.workflows.synthetic import run_synthetic_workflow

        ctx = CaptureContext(flush_strategy=SizeFlush(1))
        keeper = ProvenanceKeeper(ctx.broker)
        keeper.start()
        sides = []

        def side_record(env):
            # a subscriber that re-enters the context during the flush
            if env.payload["type"] != "task" or env.payload["workflow_id"] == "side":
                return
            sides.append(f"side-{len(sides) + 1}")
            ctx.emit(
                TaskProvenanceMessage(
                    task_id=sides[-1],
                    campaign_id=ctx.campaign_id,
                    workflow_id="side",
                    activity_id="side_effect",
                    status="FINISHED",
                )
            )

        ctx.broker.subscribe("provenance.#", side_record)
        result = run_synthetic_workflow(ctx)
        ctx.flush()

        assert len(sides) == 8
        assert not set(result.task_ids.values()) & set(sides)
        tasks = keeper.database.find({"workflow_id": result.workflow_id, "type": "task"})
        assert {d["task_id"] for d in tasks} == set(result.task_ids.values())
        assert self._assert_edges_stay_inside_their_workflow(tasks) == 9

    def test_two_threads_sharing_one_context(self):
        import sys
        import threading

        from repro.workflows.synthetic import synthetic_dag

        ctx = CaptureContext()
        keeper = ProvenanceKeeper(ctx.broker)
        keeper.start()
        results, errors = [], []

        def campaign():
            try:
                engine = WorkflowEngine(ctx)
                for i in range(50):
                    results.append(engine.execute(synthetic_dag(1.0 + i)))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=campaign) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two campaigns' emits
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        ctx.flush()

        tasks = keeper.database.find({"type": "task"})
        assert len(tasks) == 100 * 8
        for result in results:
            owned = keeper.database.find({"workflow_id": result.workflow_id, "type": "task"})
            assert {d["task_id"] for d in owned} == set(result.task_ids.values())
        assert self._assert_edges_stay_inside_their_workflow(tasks) == 100 * 9
