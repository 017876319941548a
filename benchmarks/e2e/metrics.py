"""The benchmark's names: workloads, end-to-end metrics, per-layer metrics.

``BENCHMARK.json`` at the repo root is this module rendered as JSON
(``test_e2e_benchmark.py`` holds the two equal), so a name, unit or
bound is decided here and nowhere else.
"""

from __future__ import annotations

import re
from typing import NamedTuple

__all__ = [
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "Metric",
    "valid_name",
    "valid_unit",
    "benchmark_json",
]

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def valid_name(name: str) -> bool:
    """Letters, digits, ``_``, ``.``, ``-``; starts alphanumeric; <= 64."""
    return bool(_NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    return bool(_UNIT_RE.match(unit))


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end only: tolerated relative worsening


#: name -> the one-line reason the workload exists (README has the long form)
WORKLOADS: dict[str, str] = {
    "sql_hit_inproc": (
        "7 cached SQL statements through GatewayClient, no writes: gateway, sql "
        "compile, schemas and QueryCache do all the work; storage, dataframe "
        "and transport none"
    ),
    "sql_hit_http": (
        "same stack and statements over AsyncGatewayServer on loopback with 2 "
        "keep-alive RemoteClients: transport and client are ~85% of the op"
    ),
    "agg_miss_sharded": (
        "one upsert then one SQL aggregate/top-k/filter over a 4-shard store: "
        "every query misses the cache, so storage reads, pushdown, partial "
        "merge and dataframe do the work"
    ),
    "chat_session": (
        "25-turn script (20 golden NL questions, lineage, SELECT, database, "
        "greeting) on one session: agent routing, prompt assembly, the "
        "simulated LLM and the in-memory context dominate"
    ),
    "ingest_durable": (
        "500 synthetic workflow instances per block into a fresh WAL-backed "
        "store with a lineage index: the write path workflows to capture to "
        "broker to keeper to durable store, no queries"
    ),
}

END_TO_END: tuple[Metric, ...] = (
    # bounds come from measured spreads (README "Measured repeatability"):
    # three times the widest ten-run spread any workload showed on this box
    Metric("setup_s", "s", "lower", 0.25),
    Metric("throughput_ops_s", "ops/s", "higher", 0.22),
    Metric("latency_p50_ms", "ms", "lower", 0.22),
    Metric("cpu_ms_per_op", "ms", "lower", 0.22),
    Metric("peak_rss_mib", "MiB", "lower", 0.05),
)

#: statement classes of the agg_miss_sharded rotation, in rotation order
MISS_CLASSES = (
    "group_status",
    "group_workflow",
    "topk_duration",
    "count_failed",
    "filter_project",
)

#: reply intents the chat script produces, keyed the way the metric is named
TURN_KINDS = ("monitoring", "historical", "lineage", "sql", "greeting")


def _per_layer() -> tuple[Metric, ...]:
    low, high = "lower", "higher"
    rows = [
        # every workload
        ("harness.speed_factor", "ratio", low),
        ("harness.raw_throughput_ops_s", "ops/s", high),
        ("harness.raw_latency_p50_ms", "ms", low),
        ("harness.raw_cpu_ms_per_op", "ms", low),
        ("harness.raw_setup_s", "s", low),
        ("harness.block_spread_pct", "%", low),
        ("harness.trace_overhead_pct", "%", low),
        ("client.latency_tail_ms", "ms", low),
        ("client.latency_tail_pct", "%", high),
        ("runtime.gc_ms_per_op", "ms", low),
        ("runtime.gc_gen2_count", "count", low),
        # api
        ("api.transport.self_ms", "ms", low),
        ("api.client.decode_ms", "ms", low),
        ("api.admission.shed", "count", low),
        ("api.schemas.encode_ms", "ms", low),
        ("api.schemas.request_decode_ms", "ms", low),
        ("api.schemas.reply_bytes", "B", low),
        ("api.gateway.execute_ms", "ms", low),
        ("api.gateway.self_ms", "ms", low),
        # sql
        ("sql.compile_ms", "ms", low),
        ("sql.stmt_chars", "count", low),
        # query
        ("query.cache.hit_ratio", "ratio", high),
        ("query.engine.hit_ms", "ms", low),
        *((f"query.engine.miss_ms.{c}", "ms", low) for c in MISS_CLASSES),
        ("query.pushdown.plan_ms", "ms", low),
        ("query.pushdown.pushed_share", "ratio", high),
        ("query.partial.combine_ms", "ms", low),
        ("query.partial.payload_cells_per_op", "count", low),
        # storage
        ("storage.sharded.execute_partial_ms", "ms", low),
        ("storage.sharded.find_us_per_doc", "us", low),
        ("storage.sharded.upsert_ms", "ms", low),
        ("storage.memory.find_us_per_doc", "us", low),
        ("storage.durable.upsert_many_us_per_doc", "us", low),
        ("storage.durable.wal_bytes_per_doc", "B", low),
        ("storage.durable.fsyncs_per_block", "count", low),
        ("storage.durable.fsync_ms", "ms", low),
        ("storage.durable.recover_s", "s", low),
        # dataframe, provenance
        ("dataframe.from_records_us_per_doc", "us", low),
        ("dataframe.execute_ms", "ms", low),
        ("provenance.query_api.to_frame_ms", "ms", low),
        ("provenance.keeper.ingest_us_per_msg", "us", low),
        ("provenance.keeper.rejected", "count", low),
        # lineage
        ("lineage.apply_us_per_doc", "us", low),
        ("lineage.upstream_ms", "ms", low),
        ("lineage.critical_path_ms", "ms", low),
        # agent, llm
        *((f"agent.turn_ms.{k}", "ms", low) for k in TURN_KINDS),
        ("agent.router.classify_us", "us", low),
        ("agent.context.to_frame_ms", "ms", low),
        ("llm.complete_ms", "ms", low),
        ("llm.prompt_tokens_per_turn", "count", low),
        ("llm.output_tokens_per_turn", "count", low),
        ("agent.turn_self_ms", "ms", low),
        # capture, messaging, workflows
        ("capture.emit_us_per_msg", "us", low),
        ("messaging.publish_us_per_msg", "us", low),
    ]
    return tuple(Metric(*row) for row in rows)


PER_LAYER: tuple[Metric, ...] = _per_layer()

#: how long one contract run measures: blocks are sized to ~1 s at
#: reference speed and ``--seconds N`` runs N of them
RUN_SECONDS = 10


def benchmark_json() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "benchmarks.e2e"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
