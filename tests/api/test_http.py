"""HTTP transport: routes, status codes, negotiation, keep-alive,
raw-socket edges (only envelopes on the wire) and admission."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.api.admission import AdmissionController
from repro.api.aio import _MAX_HEADER_BYTES, AsyncGatewayServer
from repro.api.routing import MAX_BODY_BYTES, STATUS_BY_CODE
from repro.api.schemas import ErrorCode, ErrorEnvelope, from_json


@pytest.fixture
def server(gateway):
    srv = AsyncGatewayServer(gateway).start()
    yield srv
    srv.stop()


@pytest.fixture
def conn(server):
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    yield connection
    connection.close()


def call(conn, method, path, body=None, accept="application/json"):
    headers = {"Accept": accept}
    if body is not None:
        headers["Content-Type"] = "application/json"
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.getheader("Content-Type"), response.read()


class TestRoutes:
    def test_create_session_and_chat(self, conn):
        status, ctype, body = call(
            conn, "POST", "/v1/sessions", '{"session_id": "alice"}'
        )
        assert status == 200
        assert ctype == "application/json"
        info = from_json(body)
        assert info.session_id == "alice"

        status, _, body = call(
            conn,
            "POST",
            "/v1/sessions/alice/chat",
            '{"message": "How many tasks have finished?"}',
        )
        assert status == 200
        reply = from_json(body)
        assert reply.ok
        assert reply.session_id == "alice"

    def test_query_roundtrip(self, conn):
        status, _, body = call(
            conn,
            "POST",
            "/v1/query",
            '{"dialect": "filter", "filter": {"status": "FAILED"}}',
        )
        assert status == 200
        reply = from_json(body)
        assert reply.kind == "frame"
        assert all(r["status"] == "FAILED" for r in reply.frame.to_dicts())

    def test_lineage_route_with_params(self, conn):
        status, _, body = call(
            conn, "GET", "/v1/lineage/t2?direction=upstream&depth=1"
        )
        assert status == 200
        reply = from_json(body)
        assert reply.upstream == ("t1",)
        assert reply.downstream == ()

    def test_stats_route(self, conn):
        call(conn, "POST", "/v1/query", '{"dialect": "filter"}')
        status, _, body = call(conn, "GET", "/v1/stats")
        assert status == 200
        stats = from_json(body)
        assert stats.requests["query"] >= 1


class TestStatusCodes:
    @pytest.mark.parametrize(
        "method,path,body,expected_code",
        [
            ("POST", "/v1/nope", "{}", ErrorCode.NOT_FOUND),
            ("GET", "/v1/nope", None, ErrorCode.NOT_FOUND),
            ("GET", "/v1/query", None, ErrorCode.METHOD_NOT_ALLOWED),
            ("GET", "/v1/sessions", None, ErrorCode.METHOD_NOT_ALLOWED),
            ("POST", "/v1/stats", "{}", ErrorCode.METHOD_NOT_ALLOWED),
            ("POST", "/v1/lineage/t1", "{}", ErrorCode.METHOD_NOT_ALLOWED),
            ("POST", "/v1/query", "{not json", ErrorCode.MALFORMED_JSON),
            ("POST", "/v1/query", "[]", ErrorCode.SCHEMA_VIOLATION),
            (
                "POST",
                "/v1/query",
                '{"dialect": "filter", "surprise": 1}',
                ErrorCode.SCHEMA_VIOLATION,
            ),
            ("POST", "/v1/query", '{"dialect": "sparql"}', ErrorCode.UNKNOWN_DIALECT),
            (
                "POST",
                "/v1/sessions/ghost/chat",
                '{"message": "hi"}',
                ErrorCode.UNKNOWN_SESSION,
            ),
            (
                "POST",
                "/v1/sessions/ghost/chat",
                '{"message": 7}',
                ErrorCode.SCHEMA_VIOLATION,
            ),
            ("GET", "/v1/lineage/ghost", None, ErrorCode.UNKNOWN_TASK),
            ("GET", "/v1/lineage/t1?depth=x", None, ErrorCode.BAD_REQUEST),
        ],
    )
    def test_error_envelope_and_status(self, conn, method, path, body, expected_code):
        status, ctype, raw = call(conn, method, path, body)
        assert ctype == "application/json"
        envelope = from_json(raw)
        assert envelope.code == expected_code
        assert status == STATUS_BY_CODE[expected_code]

    def test_cursor_stale_maps_to_410(self, conn, store):
        from tests.api.conftest import task_doc

        status, _, raw = call(
            conn, "POST", "/v1/query",
            '{"dialect": "filter", "filter": {}, "page_size": 5}',
        )
        first = from_json(raw)
        store.upsert(task_doc(55))
        status, _, raw = call(
            conn, "POST", "/v1/query",
            json.dumps(
                {
                    "dialect": "filter",
                    "filter": {},
                    "page_size": 5,
                    "cursor": first.page.next_cursor,
                }
            ),
        )
        assert status == 410
        assert from_json(raw).code == ErrorCode.CURSOR_STALE


class TestContentNegotiation:
    def test_csv_for_frames(self, conn):
        status, ctype, body = call(
            conn, "POST", "/v1/query",
            '{"dialect": "filter", "filter": {"status": "FAILED"}}',
            accept="text/csv",
        )
        assert status == 200
        assert ctype == "text/csv"
        lines = body.decode().split("\r\n")
        assert lines[0].startswith("type,task_id,")

    def test_csv_for_scalar_is_406(self, conn):
        status, ctype, body = call(
            conn, "POST", "/v1/query",
            '{"dialect": "pipeline", "code": "len(df)"}',
            accept="text/csv",
        )
        assert status == 406
        assert from_json(body).code == ErrorCode.NOT_ACCEPTABLE

    def test_json_stays_default(self, conn):
        status, ctype, _ = call(
            conn, "POST", "/v1/query", '{"dialect": "filter"}',
            accept="*/*",
        )
        assert status == 200
        assert ctype == "application/json"


class TestKeepAlive:
    def test_many_requests_one_connection(self, conn):
        """HTTP/1.1 keep-alive: the same socket serves a conversation."""
        for i in range(5):
            status, _, body = call(
                conn, "POST", "/v1/query",
                json.dumps({"dialect": "filter", "filter": {"used.x": i}}),
            )
            assert status == 200
            assert from_json(body).page.total == 1
        sock_after = conn.sock
        assert sock_after is not None  # never dropped to reconnect

    def test_serving_threads_do_not_grow_with_connections(self, gateway, stack):
        """64 clients hold a keep-alive connection each and ask at once:
        one loop thread and the sized executor serve them all, and every
        session hears what a lone in-process session hears."""
        service = stack[0]
        question = "How many tasks have finished?"
        service.create_session("alone")
        expected = service.chat("alone", question)
        for i in range(64):
            service.create_session(f"s{i}")
        threads_before = set(threading.enumerate())
        server = AsyncGatewayServer(gateway, executor_workers=4).start()
        body = json.dumps({"message": question})
        socks = [socket.create_connection(server.address, timeout=10) for _ in range(64)]
        try:
            for i, sock in enumerate(socks):
                sock.sendall(
                    f"POST /v1/sessions/s{i}/chat HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n{body}".encode()
                )
            for sock in socks:
                status, headers, raw = read_reply(sock)
                assert status == 200 and "connection" not in headers  # kept alive
                reply = from_json(raw)
                assert (reply.text, reply.intent, reply.ok, reply.code) == (
                    expected.text, expected.intent.value, True, expected.code
                )
            # every connection is still open: a thread each would show here
            # (whatever its name: count what started since the server did)
            serving = [t.name for t in set(threading.enumerate()) - threads_before]
            assert len(serving) <= server.executor_workers + 1, serving  # + the loop
        finally:
            for sock in socks:
                sock.close()
            server.stop()


def read_reply(sock):
    """One whole reply off a socket: (status, headers, body)."""
    reader = sock.makefile("rb")
    status = int(reader.readline().split()[1])
    headers = {}
    for line in iter(reader.readline, b"\r\n"):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, reader.read(int(headers["content-length"]))


def raw_exchange(server, request: bytes):
    """Send raw bytes on a fresh connection; read one whole reply."""
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(request)
        return read_reply(sock)


def head_of_length(n: int) -> bytes:
    """A valid ``GET /v1/stats`` head of exactly ``n`` bytes."""
    fixed = b"GET /v1/stats HTTP/1.1\r\nHost: t\r\nX-Pad: \r\n\r\n"
    return fixed.replace(b"X-Pad: ", b"X-Pad: " + b"a" * (n - len(fixed)))


class TestTransportEdges:
    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH"])
    @pytest.mark.parametrize(
        "path",
        [
            "/v1/sessions",
            "/v1/sessions/alice/chat",
            "/v1/query",
            "/v1/lineage/t1",
            "/v1/stats",
        ],
    )
    def test_unsupported_method_is_405_envelope(self, server, method, path):
        status, headers, body = raw_exchange(
            server,
            f"{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\n{{}}"
            .encode(),
        )
        assert status == 405
        assert headers["content-type"] == "application/json"
        envelope = from_json(body)
        assert isinstance(envelope, ErrorEnvelope)
        assert envelope.code == ErrorCode.METHOD_NOT_ALLOWED

    def test_head_at_the_bound_is_served_one_over_refused(self, server):
        status, _, body = raw_exchange(server, head_of_length(_MAX_HEADER_BYTES))
        assert status == 200
        assert from_json(body).requests["stats"] == 1

        status, headers, body = raw_exchange(
            server, head_of_length(_MAX_HEADER_BYTES + 1)
        )
        assert status == 400
        assert headers["connection"] == "close"
        envelope = from_json(body)
        assert envelope.code == ErrorCode.BAD_REQUEST
        # the number in the message is the number enforced
        assert f"> {_MAX_HEADER_BYTES} bytes" in envelope.message

    @pytest.mark.parametrize(
        "value",
        # the last is past CPython's int-parsing digit limit: a ValueError too
        ["-1", "-4096", "twelve", "1e3", "", pytest.param("9" * 5000, id="5000-digits")],
    )
    def test_bad_content_length_is_400_envelope(self, server, value):
        status, headers, body = raw_exchange(
            server,
            f"POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: {value}\r\n\r\n"
            .encode(),
        )
        assert status == 400
        assert headers["content-type"] == "application/json"
        assert headers["connection"] == "close"
        envelope = from_json(body)
        assert envelope.code == ErrorCode.BAD_REQUEST
        assert "bad Content-Length" in envelope.message

    @pytest.mark.parametrize("workers", [0, -1])
    def test_executor_workers_below_one_rejected(self, gateway, workers):
        with pytest.raises(ValueError, match="executor_workers"):
            AsyncGatewayServer(gateway, executor_workers=workers)

    def test_bad_request_line_is_400(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            reply = sock.recv(65536)
        assert b"400" in reply.split(b"\r\n", 1)[0]
        assert b"BAD_REQUEST" in reply

    def test_oversize_body_refused_before_read(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: " + str(MAX_BODY_BYTES + 1).encode()
                + b"\r\n\r\n"
            )
            reply = sock.recv(65536)
        assert b"400" in reply.split(b"\r\n", 1)[0]
        assert b"body too large" in reply

    def test_http10_connection_closes(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"GET /v1/stats HTTP/1.0\r\nHost: t\r\n\r\n")
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # server closed, as HTTP/1.0 demands
                chunks.append(chunk)
        reply = b"".join(chunks)
        assert reply.split(b"\r\n", 1)[0].endswith(b"200 OK")
        assert b"Connection: close" in reply


class TestAdmissionOverHTTP:
    def test_queue_full_is_503_with_retry_after(self, gateway):
        admission = AdmissionController(max_concurrency=1, max_queue_depth=0)
        server = AsyncGatewayServer(
            gateway, executor_workers=1, admission=admission
        ).start()
        host, port = server.address
        release = threading.Event()
        entered = threading.Event()
        original_stats = gateway.stats

        def slow_stats():
            entered.set()
            release.wait(timeout=10)
            return original_stats()

        gateway.stats = slow_stats
        replies: dict[str, object] = {}

        def occupant():
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                conn.request("GET", "/v1/stats")
                response = conn.getresponse()
                replies["occupant"] = (response.status, response.read())
            finally:
                conn.close()

        try:
            holder = threading.Thread(target=occupant)
            holder.start()
            assert entered.wait(timeout=5)  # the one slot is taken
            t0 = time.perf_counter()
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                conn.request("GET", "/v1/stats")
                response = conn.getresponse()
                shed_elapsed = time.perf_counter() - t0
                assert response.status == 503
                assert response.getheader("Retry-After") is not None
                envelope = from_json(response.read())
                assert envelope.code == ErrorCode.OVERLOADED
            finally:
                conn.close()
            # shed BEFORE gateway work: the 503 never waited behind the
            # occupied slot
            assert shed_elapsed < 2.0
            release.set()
            holder.join(timeout=10)
            assert replies["occupant"][0] == 200
            # the shed is on the books, and a remote reader sees the books
            snapshot = admission.snapshot()
            assert snapshot["overloaded"] == 1
            assert snapshot["queued_high_watermark"] <= admission.max_queue_depth
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                _, _, raw = call(conn, "GET", "/v1/stats")
                assert from_json(raw).admission["overloaded"] == 1
            finally:
                conn.close()
        finally:
            release.set()
            gateway.stats = original_stats
            server.stop()

    def test_client_id_header_names_the_rate_bucket(self, gateway):
        """``X-Client-Id`` is the identity, not the socket: a noisy id is
        limited across reconnects, another id on the same host is not."""
        admission = AdmissionController(
            max_concurrency=4, client_rate=0.001, client_burst=3.0
        )
        server = AsyncGatewayServer(gateway, admission=admission).start()

        def stats_as(client_id):
            return raw_exchange(
                server,
                f"GET /v1/stats HTTP/1.1\r\nHost: t\r\nX-Client-Id: {client_id}\r\n\r\n"
                .encode(),
            )

        try:
            statuses = [stats_as("noisy")[0] for _ in range(5)]
            assert statuses == [200, 200, 200, 429, 429]  # the burst, then shed
            status, headers, body = stats_as("noisy")
            assert status == 429 and int(headers["retry-after"]) >= 1
            assert from_json(body).code == ErrorCode.RATE_LIMITED
            assert [stats_as("calm")[0] for _ in range(3)] == [200, 200, 200]
            assert admission.snapshot()["rate_limited"] == 3
        finally:
            server.stop()

    def test_noisy_session_is_isolated(self, gateway, stack):
        service = stack[0]
        admission = AdmissionController(
            max_concurrency=32, session_rate=0.001, session_burst=2.0
        )
        server = AsyncGatewayServer(gateway, admission=admission).start()
        try:
            service.create_session("noisy")
            service.create_session("calm")
            host, port = server.address
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                statuses = []
                for _ in range(4):
                    status, _, body = call(
                        conn, "POST", "/v1/sessions/noisy/chat",
                        '{"message": "Hello!"}',
                    )
                    statuses.append(status)
                assert statuses[:2] == [200, 200]  # the burst
                assert set(statuses[2:]) == {429}
                _, _, raw = call(
                    conn, "POST", "/v1/sessions/noisy/chat",
                    '{"message": "Hello!"}',
                )
                envelope = from_json(raw)
                assert envelope.code == ErrorCode.RATE_LIMITED
                # the calm session on the same connection still has its
                # FULL burst: noisy exhausted only its own bucket
                for _ in range(2):
                    status, _, _ = call(
                        conn, "POST", "/v1/sessions/calm/chat",
                        '{"message": "Hello!"}',
                    )
                    assert status == 200
                # non-chat traffic has no session: never session-limited
                status, _, _ = call(conn, "GET", "/v1/stats")
                assert status == 200
            finally:
                conn.close()
        finally:
            server.stop()

    def test_drain_finishes_in_flight_then_503s(self, gateway, stack):
        service = stack[0]
        server = AsyncGatewayServer(gateway, executor_workers=2).start()
        host, port = server.address
        release = threading.Event()
        entered = threading.Event()
        original_stats = gateway.stats

        def slow_stats():
            entered.set()
            release.wait(timeout=10)
            return original_stats()

        gateway.stats = slow_stats
        outcome: dict[str, object] = {}

        def in_flight():
            conn = http.client.HTTPConnection(host, port, timeout=15)
            try:
                conn.request("GET", "/v1/stats")
                response = conn.getresponse()
                outcome["in_flight"] = (response.status, response.read())
            finally:
                conn.close()

        def closer():
            # the close hook drains the server: waits for the in-flight
            # request, then stops the loop
            service.close()
            outcome["closed"] = True

        try:
            flier = threading.Thread(target=in_flight)
            flier.start()
            assert entered.wait(timeout=5)
            closing = threading.Thread(target=closer)
            closing.start()
            # draining: a NEW request is shed with SERVICE_CLOSED now,
            # while the in-flight one is still running (probe a cheap
            # endpoint — the stats handler is the slowed one)
            deadline = time.time() + 5
            saw_shed = False
            while time.time() < deadline and not saw_shed:
                conn = http.client.HTTPConnection(host, port, timeout=5)
                try:
                    conn.request("GET", "/v1/lineage/t1")
                    response = conn.getresponse()
                    if response.status == 503:
                        envelope = from_json(response.read())
                        assert envelope.code == ErrorCode.SERVICE_CLOSED
                        saw_shed = True
                except (ConnectionError, http.client.HTTPException, OSError):
                    break  # listener already gone: drain had completed
                finally:
                    conn.close()
            release.set()
            flier.join(timeout=10)
            closing.join(timeout=15)
            # the accepted request got its real reply, not a 503
            assert outcome["in_flight"][0] == 200
            assert outcome.get("closed") is True
            assert saw_shed, "no request observed the draining window"
        finally:
            release.set()
            gateway.stats = original_stats
            server.stop()
