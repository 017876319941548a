"""Asyncio gateway transport: load sweep and shedding.

Two measurements of :mod:`repro.api.aio` with the lean closed-loop load
generator (:mod:`benchmarks.loadgen`).  (The head-to-head against the
threaded ``http.server`` transport this one replaced — 12.78x req/s at
64 clients — is kept as history in ``docs/PERFORMANCE.md``.)

* **concurrency sweep** — 1 -> 128 clients on the asyncio transport:
  sustained req/s and p50/p90/p99 latency per step, with RSS and thread
  count monitored across the whole sweep (the soak leg: the footprint
  must stay bounded — no thread-per-connection growth, no RSS runaway);
* **past saturation** — a deliberately tiny executor
  (``max_concurrency=2``) with a bounded admission queue under 32
  hammering clients: the queue depth high-watermark stays at its bound,
  excess load is shed *fast* with 503 ``OVERLOADED`` + ``Retry-After``
  (and 429 ``RATE_LIMITED`` when a per-client budget is set), and the
  server still answers cleanly afterwards.

``ASYNC_BENCH_N`` scales requests-per-client down for CI smoke runs;
the published results files are full-scale only.
"""

from __future__ import annotations

import os

from benchmarks.bench_gateway import _make_stack
from benchmarks.conftest import write_result
from benchmarks.loadgen import (
    LoadClient,
    ResourceMonitor,
    http_request_bytes,
    run_load,
)
from repro.api.admission import AdmissionController
from repro.api.aio import AsyncGatewayServer
from repro.api.client import RemoteClient
from repro.api.schemas import from_json
from repro.viz.ascii import series_table

REQUESTS_PER_CLIENT = int(os.environ.get("ASYNC_BENCH_N", "48"))
FULL_SCALE = REQUESTS_PER_CLIENT >= 48
SWEEP = (1, 4, 16, 64, 128)


def _chat_body(question: str) -> str:
    import json

    return json.dumps({"message": question})


def _client_script(i: int) -> list[bytes]:
    """16 requests of mixed gateway traffic for client ``i``.

    The mix mirrors an interactive monitoring session: one LLM-backed
    chat turn, a couple of greetings, repeated cached aggregate queries
    (the cache means reruns cost microseconds of gateway work — the
    transport is what's being measured), a small paged frame, stats
    polls.
    """
    chat_path = f"/v1/sessions/s{i}/chat"
    ops = [
        http_request_bytes(
            "POST", chat_path, _chat_body("How many tasks have finished?")
        ),
        http_request_bytes("POST", chat_path, _chat_body("Hello!")),
        http_request_bytes("POST", chat_path, _chat_body("Hi there")),
        http_request_bytes(
            "POST", "/v1/query",
            '{"dialect": "pipeline", "code": "df[\'duration\'].mean()"}',
        ),
        http_request_bytes(
            "POST", "/v1/query",
            '{"dialect": "sql", "sql": "SELECT AVG(duration) FROM tasks"}',
        ),
        http_request_bytes(
            "POST", "/v1/query",
            '{"dialect": "filter", "filter": {"status": "FAILED"}, '
            '"page_size": 3}',
        ),
        http_request_bytes("GET", "/v1/stats"),
    ]
    # 16-op cycle: 1 LLM chat, 2 greetings, 4+4 cached aggregates,
    # 2 paged frames, 3 stats polls
    return [
        ops[0],
        ops[3], ops[4], ops[6],
        ops[1],
        ops[3], ops[4], ops[5],
        ops[3], ops[4], ops[6],
        ops[2],
        ops[3], ops[4], ops[5], ops[6],
    ]


def _stack_with_server(n_clients: int):
    """(service, server) with ``n_clients`` chat sessions pre-created
    and every cacheable query in the script warmed once."""
    service, gateway = _make_stack(realtime_factor=0.0)
    server = AsyncGatewayServer(gateway).start()
    for i in range(n_clients):
        service.create_session(f"s{i}")
    # one warm pass so the measured window exercises the cache-hit path
    # on every client equally
    warm = LoadClient(*server.address)
    try:
        for raw in _client_script(0):
            warm.request(raw)
    finally:
        warm.close()
    return service, server


def _run_point(server, n_clients: int, requests_per_client: int):
    host, port = server.address
    scripts = [_client_script(i % n_clients) for i in range(n_clients)]
    return run_load(host, port, scripts, requests_per_client)


# ---------------------------------------------------------------------------
# sweep + soak: 1 -> 128 clients, latency percentiles, bounded footprint
# ---------------------------------------------------------------------------


def test_concurrency_sweep(results_dir):
    import threading

    service, server = _stack_with_server(max(SWEEP))
    monitor = ResourceMonitor().start()
    rss_before = monitor.max_rss_kib
    rows = []
    try:
        for n_clients in SWEEP:
            per_client = max(2, REQUESTS_PER_CLIENT // 2)
            report = _run_point(server, n_clients, per_client)
            assert report.shed_count() == 0, report.status_counts
            rows.append(report.row())
        # one event loop + a sized executor: the SERVING thread count
        # must not scale with client count the way thread-per-connection
        # serving does (loadgen's own client threads share this process,
        # so filter by the server's thread names)
        serving = [
            t for t in threading.enumerate()
            if t.name.startswith("gateway-aio")
        ]
        assert len(serving) <= server.executor_workers + 1, (
            f"{len(serving)} serving threads after a "
            f"{max(SWEEP)}-client point"
        )
    finally:
        monitor.stop()
        server.stop()
        service.close()

    rss_after = monitor.max_rss_kib
    if rss_before is not None and rss_after is not None:
        # soak: the whole sweep (including 128 concurrent connections)
        # must not balloon the serving process
        assert rss_after - rss_before < 256 * 1024, (
            f"RSS grew {rss_after - rss_before} KiB across the sweep"
        )
    if FULL_SCALE:
        for row in rows:
            row["max_rss_mib"] = (
                round(rss_after / 1024, 1) if rss_after is not None else None
            )
        write_result(
            results_dir,
            "async_gateway_sweep.txt",
            series_table(
                rows,
                ["clients", "requests", "req_per_s", "p50_ms", "p90_ms",
                 "p99_ms", "max_rss_mib"],
                title=(
                    f"asyncio transport concurrency sweep (mixed workload; "
                    f"peak threads {monitor.max_threads})"
                ),
            ),
        )


# ---------------------------------------------------------------------------
# past saturation: bounded queue, fast 503/429 shedding, clean recovery
# ---------------------------------------------------------------------------


def test_saturation_sheds_with_bounded_queue(results_dir):
    service, gateway = _make_stack(realtime_factor=0.0)
    admission = AdmissionController(max_concurrency=2, max_queue_depth=4)
    server = AsyncGatewayServer(
        gateway, executor_workers=2, admission=admission
    ).start()
    n_clients = 32
    try:
        for i in range(n_clients):
            service.create_session(f"s{i}")
        report = _run_point(server, n_clients, max(4, REQUESTS_PER_CLIENT // 2))
        snapshot = admission.snapshot()

        # far more offered load than 2+4 slots: shedding must happen...
        assert report.status_counts.get(503, 0) > 0, report.status_counts
        # ...carry the backoff hint...
        assert report.retry_after_seen >= report.shed_count()
        # ...and the admission queue must never exceed its bound
        assert snapshot["queued_high_watermark"] <= admission.max_queue_depth
        assert snapshot["overloaded"] == report.status_counts.get(503, 0)
        # accepted traffic was still served normally
        assert report.status_counts.get(200, 0) > 0

        # clean recovery: with load gone, plain requests are served, and
        # the stats surface reports the shed counters
        after = RemoteClient.for_server(server)
        try:
            stats = after.stats()
            assert stats.admission["overloaded"] == snapshot["overloaded"]
            assert stats.requests["stats"] >= 1
        finally:
            after.close()
    finally:
        server.stop()
        service.close()

    if FULL_SCALE:
        write_result(
            results_dir,
            "async_gateway_saturation.txt",
            series_table(
                [
                    {
                        "offered_clients": n_clients,
                        "slots": f"{admission.max_concurrency}"
                        f"+{admission.max_queue_depth}",
                        "served_200": report.status_counts.get(200, 0),
                        "shed_503": report.status_counts.get(503, 0),
                        "queue_high_watermark": snapshot[
                            "queued_high_watermark"
                        ],
                        "req_per_s": round(report.req_per_s, 1),
                    }
                ],
                ["offered_clients", "slots", "served_200", "shed_503",
                 "queue_high_watermark", "req_per_s"],
                title=(
                    "past-saturation run: bounded admission queue, fast "
                    "503 shedding with Retry-After"
                ),
            ),
        )


def test_rate_limited_client_sees_429():
    service, gateway = _make_stack(realtime_factor=0.0)
    admission = AdmissionController(
        max_concurrency=4, client_rate=5.0, client_burst=3.0
    )
    server = AsyncGatewayServer(gateway, admission=admission).start()
    try:
        host, port = server.address
        # one identity hammering: X-Client-Id pins the bucket even
        # across reconnects
        raw = http_request_bytes("GET", "/v1/stats", client_id="noisy")
        report = run_load(host, port, [[raw]], 30)
        assert report.status_counts.get(429, 0) > 0, report.status_counts
        assert report.status_counts.get(200, 0) >= 3  # the burst
        assert report.retry_after_seen > 0
        snapshot = admission.snapshot()
        assert snapshot["rate_limited"] == report.status_counts[429]

        # an unthrottled identity is untouched by the noisy one
        calm = http_request_bytes("GET", "/v1/stats", client_id="calm")
        calm_report = run_load(host, port, [[calm]], 3)
        assert calm_report.status_counts == {200: 3}

        # the envelope itself names the stable code
        body = None
        for status, payload in _replay(host, port, raw, 20):
            if status == 429:
                body = payload
                break
        assert body is not None
        envelope = from_json(body)
        assert envelope.code == "RATE_LIMITED"
    finally:
        server.stop()
        service.close()


def _replay(host: str, port: int, raw: bytes, n: int):
    from benchmarks.loadgen import LoadClient

    client = LoadClient(host, port)
    try:
        for _ in range(n):
            status, body, _ = client.request(raw)
            yield status, body
    finally:
        client.close()
