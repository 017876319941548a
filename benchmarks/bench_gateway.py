"""Gateway API: client parity and concurrent HTTP chat throughput.

The gateway contract has two legs, each asserted here:

* **parity** — for a matrix of requests spanning all four query
  dialects (``filter`` / ``pipeline`` / ``sql`` / ``graph``), chat,
  lineage, CSV rendering, and error envelopes, the in-process
  :class:`~repro.api.client.GatewayClient` and the HTTP
  :class:`~repro.api.client.RemoteClient` return **byte-identical**
  payloads over :class:`~repro.api.aio.AsyncGatewayServer`.  The
  transport may change latency, never bytes;
* **throughput** — with the shared LLM server sleeping its (scaled)
  simulated latency like a real remote endpoint, 8 concurrent HTTP
  clients (one keep-alive connection each, one session each) complete
  the same chat workload >= 2x faster than the same turns issued
  serially over one connection.  The speedup comes from the server's
  executor pool overlapping different sessions' LLM waits —
  per-session ordering is untouched.

``GATEWAY_BENCH_N`` scales turns-per-client down for CI smoke runs; the
throughput floor is asserted at full scale (>= 8 turns/client), below
that the run still checks parity on every reply and reports the
measurements.
"""

from __future__ import annotations

import os
import threading
import time

from benchmarks.conftest import write_result
from repro.agent.service import AgentService
from repro.api.aio import AsyncGatewayServer
from repro.api.client import GatewayClient, RemoteClient
from repro.api.gateway import ProvenanceGateway
from repro.api.schemas import QueryRequest, from_json
from repro.capture.context import CaptureContext
from repro.llm.service import LLMServer
from repro.provenance.query_api import QueryAPI
from repro.storage import ProvenanceDatabase
from repro.viz.ascii import series_table

TURNS_PER_CLIENT = int(os.environ.get("GATEWAY_BENCH_N", "8"))
N_CLIENTS = 8
N_TASKS = 2000
ROUNDS = 2
MIN_SPEEDUP = 2.0
#: scale factor turning simulated LLM latency (~1-3 s) into a real
#: ~70-200 ms sleep — the remote-endpoint wait concurrent clients overlap
REALTIME_FACTOR = 0.07
FULL_SCALE = TURNS_PER_CLIENT >= 8

QUESTIONS = (
    "How many tasks have finished?",
    "In the database, how many tasks have finished?",
    "What is the average duration per activity?",
    "In the database, what is the average duration per activity?",
    "How many tasks failed in the database?",
    "Which activity has the highest average duration?",
)

#: the parity matrix: every dialect, scalar + frame + paginated shapes,
#: and the error surface
PARITY_QUERIES = (
    QueryRequest(dialect="filter", filter={"status": "FAILED"}),
    QueryRequest(dialect="filter", filter={}, sort=(("started_at", -1),), limit=10),
    QueryRequest(dialect="filter", filter={"used.x": {"$lt": 5}}, page_size=3),
    QueryRequest(
        dialect="pipeline",
        code="df[df['status'] == 'FINISHED'][['task_id', 'duration']].head(20)",
    ),
    QueryRequest(dialect="pipeline", code="df['duration'].mean()"),
    QueryRequest(
        dialect="pipeline",
        code="df.groupby('activity_id')['duration'].mean()",
    ),
    QueryRequest(
        dialect="sql",
        sql="SELECT task_id, duration FROM tasks "
        "WHERE status = 'FINISHED' ORDER BY task_id LIMIT 20",
    ),
    QueryRequest(dialect="sql", sql="SELECT AVG(duration) FROM tasks"),
    QueryRequest(
        dialect="sql",
        sql="SELECT COUNT(*) FROM tasks GROUP BY activity_id",
        page_size=4,
    ),
    QueryRequest(dialect="graph", operation="upstream", task_id="t64"),
    QueryRequest(dialect="graph", operation="impact_size", task_id="t0"),
    QueryRequest(dialect="graph", operation="roots", page_size=5),
    QueryRequest(dialect="sql"),  # missing statement -> BAD_REQUEST
    QueryRequest(dialect="sql", sql="SELECT * FROM tasks WHERE"),
    QueryRequest(dialect="pipeline", code="df.!!!"),
    QueryRequest(dialect="graph", operation="upstream", task_id="ghost"),
)


def _task_docs(n_tasks: int) -> list[dict]:
    docs = []
    for i in range(n_tasks):
        started = 1000.0 + (i % 977) * 3.1
        docs.append(
            {
                "type": "task",
                "task_id": f"t{i}",
                "workflow_id": f"wf-{i % 16:02d}",
                "campaign_id": "gw-bench",
                "activity_id": f"a{i % 6}",
                "status": "FINISHED" if i % 19 else "FAILED",
                "started_at": started,
                "ended_at": started + 1.0 + (i % 7) * 0.25,
                "duration": 1.0 + (i % 7) * 0.25,
                "hostname": f"node-{i % 4}",
                "used": {"x": i, "_upstream": [f"t{i - 1}"] if i % 64 else []},
                "generated": {"y": i % 97},
            }
        )
    return docs


def _make_stack(realtime_factor: float):
    docs = _task_docs(N_TASKS)
    store = ProvenanceDatabase()
    store.upsert_many(docs)
    ctx = CaptureContext()
    service = AgentService(
        ctx,
        llm=LLMServer(realtime_factor=realtime_factor),
        query_api=QueryAPI(store),
        max_workers=N_CLIENTS,
    )
    ctx.broker.publish_batch("provenance.task", docs)
    gateway = ProvenanceGateway(service)
    return service, gateway


def _session_script(i: int, turns: int) -> list[str]:
    script = []
    k = i
    while len(script) < turns:
        script.append(QUESTIONS[k % len(QUESTIONS)])
        k += 1
    return script


# ---------------------------------------------------------------------------
# parity: the HTTP and the in-process client are byte-identical
# ---------------------------------------------------------------------------


def test_transport_parity(results_dir):
    service, gateway = _make_stack(realtime_factor=0.0)
    server = AsyncGatewayServer(gateway).start()
    local = GatewayClient(gateway)
    remote = RemoteClient.for_server(server)
    checked = 0
    try:
        for request in PARITY_QUERIES:
            assert local.query_json(request) == remote.query_json(request), request
            checked += 1
        for request in PARITY_QUERIES[:3]:
            assert local.query_csv(request) == remote.query_csv(request)
            checked += 1
        assert local.lineage_json("t64", depth=3) == remote.lineage_json(
            "t64", depth=3
        )
        assert local.lineage_json("ghost") == remote.lineage_json("ghost")
        checked += 2
        # chat parity: separate sessions, same conversation
        local.create_session("local")
        remote.create_session("remote")
        for question in QUESTIONS:
            a = from_json(local.chat_json("local", question))
            b = from_json(remote.chat_json("remote", question))
            assert (a.text, a.intent, a.ok, a.code, a.table, a.chart) == (
                b.text, b.intent, b.ok, b.code, b.table, b.chart
            ), question
            checked += 1
    finally:
        remote.close()
        server.stop()
        service.close()

    if FULL_SCALE:
        write_result(
            results_dir,
            "gateway_parity_asyncio.txt",
            series_table(
                [
                    {
                        "surface": "query json (4 dialects + errors)",
                        "requests": len(PARITY_QUERIES),
                        "byte_identical": "yes",
                    },
                    {
                        "surface": "query csv (content negotiation)",
                        "requests": 3,
                        "byte_identical": "yes",
                    },
                    {
                        "surface": "lineage json",
                        "requests": 2,
                        "byte_identical": "yes",
                    },
                    {
                        "surface": "chat replies (per-session)",
                        "requests": len(QUESTIONS),
                        "byte_identical": "yes",
                    },
                ],
                ["surface", "requests", "byte_identical"],
                title=(
                    "GatewayClient vs RemoteClient[asyncio] transport "
                    f"parity ({checked} paired requests)"
                ),
            ),
        )


# ---------------------------------------------------------------------------
# throughput: 8 concurrent HTTP clients >= 2x one serialized connection
# ---------------------------------------------------------------------------


def _run_serialized(server, scripts: list[list[str]]) -> dict[str, list]:
    """Every turn in order over ONE keep-alive connection (the baseline)."""
    replies: dict[str, list] = {f"s{i}": [] for i in range(len(scripts))}
    client = RemoteClient.for_server(server)
    try:
        for turn in range(max(len(s) for s in scripts)):
            for i, script in enumerate(scripts):
                if turn < len(script):
                    replies[f"s{i}"].append(client.chat(f"s{i}", script[turn]))
    finally:
        client.close()
    return replies


def _run_concurrent(server, scripts: list[list[str]]) -> dict[str, list]:
    """One thread + one connection + one session per client."""
    replies: dict[str, list] = {}
    errors: list[BaseException] = []
    lock = threading.Lock()

    def worker(i: int) -> None:
        client = RemoteClient.for_server(server)
        try:
            mine = [client.chat(f"s{i}", q) for q in scripts[i]]
            with lock:
                replies[f"s{i}"] = mine
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            with lock:
                errors.append(exc)
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(len(scripts))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return replies


def _reply_key(reply) -> tuple:
    return (reply.intent, reply.ok, reply.text, reply.code)


def test_http_chat_throughput(results_dir):
    scripts = [
        _session_script(i, TURNS_PER_CLIENT) for i in range(N_CLIENTS)
    ]
    n_turns = sum(len(s) for s in scripts)

    serial_times, concurrent_times = [], []
    for _ in range(ROUNDS):  # interleaved so machine drift hits both
        service, gateway = _make_stack(realtime_factor=REALTIME_FACTOR)
        server = AsyncGatewayServer(gateway).start()
        try:
            for i in range(N_CLIENTS):
                service.create_session(f"s{i}")
            t0 = time.perf_counter()
            baseline = _run_serialized(server, scripts)
            serial_times.append(time.perf_counter() - t0)
        finally:
            server.stop()
            service.close()

        service, gateway = _make_stack(realtime_factor=REALTIME_FACTOR)
        server = AsyncGatewayServer(gateway).start()
        try:
            for i in range(N_CLIENTS):
                service.create_session(f"s{i}")
            t0 = time.perf_counter()
            served = _run_concurrent(server, scripts)
            concurrent_times.append(time.perf_counter() - t0)
        finally:
            server.stop()
            service.close()

        # parity at every scale, on every round: concurrency must change
        # wall-clock, never answers
        for sid in baseline:
            assert [_reply_key(r) for r in baseline[sid]] == [
                _reply_key(r) for r in served[sid]
            ], f"replies diverged for session {sid}"

    serial_s, concurrent_s = min(serial_times), min(concurrent_times)
    speedup = serial_s / concurrent_s
    rows = [
        {
            "mode": "serialized (1 HTTP connection)",
            "total_s": round(serial_s, 2),
            "turns_per_s": round(n_turns / serial_s, 1),
            "speedup_x": 1.0,
        },
        {
            "mode": f"concurrent ({N_CLIENTS} HTTP clients)",
            "total_s": round(concurrent_s, 2),
            "turns_per_s": round(n_turns / concurrent_s, 1),
            "speedup_x": round(speedup, 2),
        },
    ]
    if FULL_SCALE:  # smoke runs must not overwrite the published numbers
        write_result(
            results_dir,
            "gateway_throughput.txt",
            series_table(
                rows,
                ["mode", "total_s", "turns_per_s", "speedup_x"],
                title=(
                    f"HTTP chat throughput, {n_turns} turns over {N_CLIENTS} "
                    f"sessions, LLM wait ~{int(REALTIME_FACTOR * 1500)} ms/turn "
                    f"(floor at full scale: {MIN_SPEEDUP}x)"
                ),
            ),
        )
        assert speedup >= MIN_SPEEDUP, (
            f"concurrent HTTP serving speedup {speedup:.2f}x < {MIN_SPEEDUP}x "
            f"(serialized {serial_s:.2f}s vs concurrent {concurrent_s:.2f}s)"
        )
