"""Unit tests for the benchmark harness, plus a smoke pass of all workloads.

Timing is never asserted here: the arithmetic is checked on synthetic
numbers, the workloads on their correctness checks (each one must fire
on a deliberately corrupted reply).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from . import ROOT, harness, metrics, run
from .calib import REF_KERNEL_S
from .harness import Block, PhaseClock, Slice, Tracer

HERE = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def _block(scale: float) -> Block:
    """Two slices of fixed work on a machine ``scale`` times slower."""
    kernel = REF_KERNEL_S * scale
    return Block([
        Slice(0.10 * scale, 0.09 * scale, [0.001 * scale, 0.003 * scale],
              harness.block_speed(kernel, kernel), kernel, kernel),
        Slice(0.12 * scale, 0.11 * scale, [0.002 * scale, 0.004 * scale],
              harness.block_speed(kernel, kernel), kernel, kernel),
    ])


def test_slowdown_of_kernel_and_block_leaves_metrics_unchanged():
    fast = harness.summarise([_block(1.0), _block(1.0)], ops_per_block=4)
    slow = harness.summarise([_block(1.25), _block(1.25)], ops_per_block=4)
    for name in ("throughput_ops_s", "latency_p50_ms", "cpu_ms_per_op"):
        assert slow[name] == pytest.approx(fast[name], rel=1e-12)
    # the raw twins do see the slowdown
    assert slow["harness.raw_latency_p50_ms"] == pytest.approx(
        1.25 * fast["harness.raw_latency_p50_ms"]
    )
    assert slow["harness.raw_throughput_ops_s"] == pytest.approx(
        fast["harness.raw_throughput_ops_s"] / 1.25
    )
    assert slow["harness.speed_factor"] == pytest.approx(1.25)
    assert fast["throughput_ops_s"] == pytest.approx(4 / 0.22)


def test_block_speed_is_mean_of_neighbouring_kernels_over_reference():
    assert harness.block_speed(0.02, 0.04, ref_s=0.02) == pytest.approx(1.5)


def test_phase_clock_normalises_each_phase(monkeypatch):
    kernels = iter([REF_KERNEL_S, 2 * REF_KERNEL_S])
    now = iter([1.0, 1.0, 4.0, 4.0])
    monkeypatch.setattr(harness, "time_kernel", lambda: next(kernels))
    monkeypatch.setattr(harness, "perf_counter", lambda: next(now))
    clock = PhaseClock(started_at=0.0)
    clock.mark()  # 1 s at speed 1.0
    clock.mark()  # 3 s at speed (1 + 2) / 2
    assert clock.raw_seconds == pytest.approx(4.0)
    assert clock.seconds == pytest.approx(1.0 + 3.0 / 1.5)


def test_percentile_interpolates():
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5)
    assert harness.percentile([5.0], 99.9) == 5.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


@pytest.mark.parametrize(
    "n_samples, expected",
    [(99, None), (100, 90.0), (999, 90.0), (1000, 99.0), (9_999, 99.0),
     (10_000, 99.9), (75_000, 99.9), (150, 90.0), (4_500, 99.0)],
)
def test_tail_picker_needs_ten_samples_beyond(n_samples, expected):
    assert harness.pick_tail_pct(n_samples) == expected


def test_self_time_subtracts_direct_children_by_duration():
    spans = [
        ("client.query_json", 0.0, 10.0, None),
        ("api.gateway.execute", 20.0, 26.0, 0),  # probe child: outside parent
        ("sql.compile", 30.0, 34.0, 1),
        ("api.schemas.encode", 40.0, 41.5, 0),
    ]
    assert harness.self_times(spans) == pytest.approx([2.5, 2.0, 4.0, 1.5])


def test_tracer_normalises_by_the_slot_speed_and_item_count(tmp_path):
    tracer = Tracer()
    tracer.slot = 1
    parent = tracer.add("op", 0.0, 0.002)
    tracer.slot = 2
    tracer.add("layer", 1.0, 1.004, parent=parent, n=4)
    speeds = {1: 1.0, 2: 2.0}
    assert tracer.p50("op", speeds) == pytest.approx(2.0)
    assert tracer.p50("layer", speeds, 1e6) == pytest.approx(500.0)
    assert tracer.p50("absent", speeds) is None
    assert tracer.spans[1][4] == tracer.spans[0][4]  # child shares the op id
    tracer.write(tmp_path / "t.jsonl", speeds)
    rows = [json.loads(line) for line in (tmp_path / "t.jsonl").read_text().splitlines()]
    assert [r["name"] for r in rows] == ["op", "layer"]
    assert set(rows[1]) >= {"name", "start", "end", "parent", "op"}
    assert rows[1]["parent"] == 0 and rows[1]["speed"] == 2.0


def test_missing_stats_keys_yield_null_not_failure(capsys):
    assert harness.optional_stat({"a": {"b": 3}}, "a", "b") == 3
    assert harness.optional_stat({"a": {}}, "a", "b") is None
    assert "warning" in capsys.readouterr().err
    assert harness.cache_hit_ratio({}, {"hits": 1}) is None
    assert harness.cache_hit_ratio(
        {"hits": 1, "misses": 1}, {"hits": 4, "misses": 2}
    ) == pytest.approx(0.75)


def test_contract_line_reports_unmeasured_layer_metrics_as_zero():
    result = harness.RunResult(
        "chat_session", True, 10, 0,
        {m.name: 1.5 for m in metrics.END_TO_END},
        {"llm.complete_ms": 2.0, "api.admission.shed": None},
    )
    untraced = run.contract_line(result, trace=False)
    assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
    assert set(untraced["metrics"]) == {m.name for m in metrics.END_TO_END}
    traced = run.contract_line(result, trace=True)
    assert set(traced["metrics"]) == {m.name for m in metrics.PER_LAYER}
    assert traced["metrics"]["llm.complete_ms"] == {"value": 2.0, "unit": "ms"}
    assert traced["metrics"]["api.admission.shed"]["value"] == 0.0
    assert traced["metrics"]["sql.compile_ms"]["value"] == 0.0


def test_block_count_follows_seconds():
    assert run.block_count(15, trace=False, smoke=False) == 15
    assert run.block_count(60, trace=False, smoke=False) == 20
    assert run.block_count(1, trace=False, smoke=False) == 2
    assert run.block_count(15, trace=True, smoke=False) == 10
    assert run.block_count(5, trace=True, smoke=False) == 4
    assert run.block_count(15, trace=False, smoke=True) == 2


# ---------------------------------------------------------------------------
# names and the committed contract
# ---------------------------------------------------------------------------


def test_names_and_units_are_valid_and_unique():
    names = [m.name for m in (*metrics.END_TO_END, *metrics.PER_LAYER)]
    names += list(metrics.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(metrics.valid_name(n) for n in names), names
    assert all(metrics.valid_unit(m.unit) for m in (*metrics.END_TO_END, *metrics.PER_LAYER))
    assert not metrics.valid_name("has space") and not metrics.valid_name("_lead")
    assert not metrics.valid_name("x" * 65) and not metrics.valid_name("a/b")
    assert not metrics.valid_unit("much-too-long-a-unit")


def test_benchmark_json_is_the_registry_and_within_the_contract():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.benchmark_json()
    assert set(committed) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert committed["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(committed["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in committed["workloads"])
    assert 1 <= len(committed["end_to_end"]) <= 16
    assert 1 <= len(committed["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    setup = next(m for m in committed["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in committed["end_to_end"])
    assert 1 <= committed["run_seconds"] <= 60
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


# ---------------------------------------------------------------------------
# future-proofing: nothing the ROADMAP plans to delete is used
# ---------------------------------------------------------------------------

_DOOMED = (
    r"repro\.api\.http",
    r"\.aggregate\(",
    r"\.graph\(",
    r"\.lineage\(",
    r"\.impact\(",
    r"repro\.provenance\.database",
    r"bench_\w+",
    r"loadgen",
    r"conftest",
)


def _harness_sources() -> list[Path]:
    return [p for p in sorted(HERE.glob("*.py")) if p.name != Path(__file__).name]


def test_harness_uses_nothing_scheduled_for_deletion():
    for path in _harness_sources():
        text = path.read_text()
        for pattern in _DOOMED:
            assert not re.search(pattern, text), f"{path.name} matches {pattern}"


def test_harness_imports_library_submodules_only():
    importing = re.compile(r"^\s*(?:from|import)\s+(repro(?:\.\w+)*)", re.MULTILINE)
    seen = set()
    for path in _harness_sources():
        for module in importing.findall(path.read_text()):
            seen.add(module)
            parts = module.split(".")
            package_dir = ROOT.joinpath("src", *parts)
            assert not package_dir.is_dir(), (
                f"{path.name} imports the package {module}; import the "
                "submodule that defines the name"
            )
    assert "repro.api.aio" in seen and "repro.api.client" in seen


# ---------------------------------------------------------------------------
# the workloads: smoke pass, and every check fires on a corrupted reply
# ---------------------------------------------------------------------------


class _Corrupting:
    """Wraps a client; every ``*_json`` reply loses its last character."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not name.endswith("_json"):
            return attr
        return lambda *args, **kwargs: attr(*args, **kwargs)[:-1]


class _LossyStore:
    """Wraps a store; the first batch loses one task document.

    (A lost workflow RUNNING record would be invisible by design: the
    FINISHED record upserts the same key.)
    """

    def __init__(self, inner):
        self._inner = inner
        self._dropped = False

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __len__(self):
        return len(self._inner)

    def upsert_many(self, docs, key_field="task_id"):
        docs = list(docs)
        if not self._dropped:
            self._dropped = True
            victim = next(d for d in docs if d["type"] == "task")
            docs = [d for d in docs if d is not victim]
        return self._inner.upsert_many(docs, key_field=key_field)


def _warmed_up(name: str):
    """A smoke-sized workload after set-up and a clean warm-up block."""
    workload = run.make_workload(name, 11, smoke=True, trace=False)
    slots, watch = harness.Slots(None), harness.GcWatch()
    clock = PhaseClock(0.0)
    workload.setup(clock)
    warm = harness.measure_block(workload, 0, None, slots, watch)
    assert warm.failed + workload.check_block(0) == 0
    workload.after_warmup(None)

    def run_block(index: int) -> int:
        block = harness.measure_block(workload, index, None, slots, watch)
        assert sum(len(s.latencies_s) for s in block.slices) == workload.ops_per_block
        return block.failed + workload.check_block(index)

    return workload, run_block


@pytest.mark.parametrize(
    "name", ["sql_hit_inproc", "sql_hit_http", "agg_miss_sharded", "chat_session"]
)
def test_reply_check_fires_on_a_corrupted_reply(name):
    workload, run_block = _warmed_up(name)
    try:
        assert run_block(1) == 0
        if name == "sql_hit_http":
            workload.remotes[0] = _Corrupting(workload.remotes[0])
            expected_failures = workload.ops_per_block // 2
        else:
            workload.client = _Corrupting(workload.client)
            expected_failures = workload.ops_per_block
        assert run_block(2) == expected_failures
    finally:
        workload.close()


def test_ingest_check_fires_on_a_lost_document():
    workload, run_block = _warmed_up("ingest_durable")
    try:
        assert run_block(1) == 0
        honest = workload.open_store
        workload.open_store = lambda path, file_ops=None: _LossyStore(
            honest(path, file_ops)
        )
        assert run_block(2) == workload.ops_per_block
    finally:
        workload.close()
    assert not workload.tmp.exists()


def test_ingest_recovery_check_fires_when_recovery_differs():
    workload, _run_block = _warmed_up("ingest_durable")
    try:
        # a second warm-up whose recovered store is missing a document
        slots, watch = harness.Slots(None), harness.GcWatch()
        harness.measure_block(workload, 0, None, slots, watch)
        assert workload.check_block(0) == 0
        workload._warm_docs = workload._warm_docs[1:]
        with pytest.raises(harness.CheckFailed):
            workload.after_warmup(None)
    finally:
        workload.close()


def test_smoke_pass_of_all_workloads():
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == len(metrics.WORKLOADS)
    for result in results:
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {m.name for m in metrics.END_TO_END}
        assert all(v["value"] > 0 for v in result["metrics"].values())
    headers = [line for line in lines if line.startswith("== ")]
    assert [h.split()[1] for h in headers] == list(metrics.WORKLOADS)
    for header in headers:
        for field in ("sha=", "python=", "nproc=", "seed=11", "REF_KERNEL_S="):
            assert field in header
    assert sum("SMOKE RUN" in line and "NOT comparable" in line for line in lines) == 5
    assert sum("clients=" in line for line in lines) == 5
    # temp stores are gone
    tmp = HERE / "out" / "tmp"
    assert not tmp.exists() or not any(tmp.iterdir())


def test_traced_smoke_writes_spans_and_every_layer_metric():
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--smoke", "--trace",
         "--workload", "agg_miss_sharded", "--seed", "12"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m.name for m in metrics.PER_LAYER}
    assert result["metrics"]["query.cache.hit_ratio"]["value"] == 0.0
    assert result["metrics"]["query.pushdown.pushed_share"]["value"] == 1.0
    assert result["metrics"]["storage.sharded.execute_partial_ms"]["value"] > 0
    spans = [
        json.loads(line)
        for line in (HERE / "out" / "trace_agg_miss_sharded.jsonl").read_text().splitlines()
    ]
    assert spans and all(
        {"name", "start", "end", "parent", "op"} <= set(span) for span in spans
    )
    children = [s for s in spans if s["parent"] is not None]
    assert children and all(spans[s["parent"]]["op"] == s["op"] for s in children)
