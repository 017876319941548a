"""RemoteClient resilience: Retry-After backoff and socket reconnect."""

from __future__ import annotations

import pytest

from repro.api.admission import AdmissionController
from repro.api.aio import AsyncGatewayServer
from repro.api.client import GatewayConnectionError, RemoteClient
from repro.api.schemas import ErrorCode, ErrorEnvelope


class FrozenClock:
    def __call__(self) -> float:
        return 0.0


@pytest.fixture
def limited_server(gateway):
    """An asyncio server whose frozen-clock bucket allows exactly one
    request per client identity, then 429s with Retry-After: 2."""
    admission = AdmissionController(
        max_concurrency=8,
        client_rate=0.5,  # deficit of 1 token at rate 0.5 -> wait 2 s
        client_burst=1.0,
        clock=FrozenClock(),
    )
    server = AsyncGatewayServer(gateway, admission=admission).start()
    yield server
    server.stop()


class TestRetryAfterBackoff:
    def test_default_client_surfaces_the_429(self, limited_server):
        client = RemoteClient.for_server(limited_server)
        try:
            assert client.stats().requests is not None  # the one token
            envelope = client.stats()
            assert isinstance(envelope, ErrorEnvelope)
            assert envelope.code == ErrorCode.RATE_LIMITED
        finally:
            client.close()

    def test_retries_honor_retry_after(self, limited_server):
        sleeps: list[float] = []
        client = RemoteClient.for_server(
            limited_server, retries=2, sleep=sleeps.append
        )
        try:
            client.stats()  # consumes the only token
            envelope = client.stats()  # retried twice, still limited
            assert isinstance(envelope, ErrorEnvelope)
            assert envelope.code == ErrorCode.RATE_LIMITED
            # the server said Retry-After: 2 (ceil of 2.0 s deficit);
            # the hint dominates the 0.1/0.2 exponential schedule
            assert sleeps == [2.0, 2.0]
        finally:
            client.close()

    def test_backoff_cap_bounds_the_hint(self, limited_server):
        sleeps: list[float] = []
        client = RemoteClient.for_server(
            limited_server, retries=1, backoff_cap_s=0.5, sleep=sleeps.append
        )
        try:
            client.stats()
            client.stats()
            assert sleeps == [0.5]
        finally:
            client.close()

    def test_successful_retry_returns_the_reply(self, gateway):
        """When capacity frees up mid-backoff, the retry wins."""
        admission = AdmissionController(
            max_concurrency=8, client_rate=50.0, client_burst=1.0
        )
        server = AsyncGatewayServer(gateway, admission=admission).start()
        client = RemoteClient.for_server(server, retries=3)
        try:
            client.stats()  # token gone; refills in ~20 ms real time
            reply = client.stats()  # 429 -> sleep(Retry-After=1)... but
            # the real clock refills fast, so the retry succeeds
            assert not isinstance(reply, ErrorEnvelope)
            assert reply.requests["stats"] >= 2
        finally:
            client.close()
            server.stop()

    def test_retries_validation(self):
        with pytest.raises(ValueError):
            RemoteClient("127.0.0.1", 1, retries=-1)


class TestReconnect:
    def test_stale_keepalive_socket_reconnects_once(self, gateway):
        server = AsyncGatewayServer(gateway).start()
        host, port = server.address
        client = RemoteClient(host, port)
        try:
            assert client.stats().requests is not None
            # the server restarts on the same port: the client's pooled
            # socket is now a dead keep-alive connection
            server.stop()
            server = AsyncGatewayServer(gateway, port=port).start()
            reply = client.stats()  # ECONNRESET on reuse -> reconnect
            assert reply.requests is not None
        finally:
            client.close()
            server.stop()

    def test_fresh_connection_failure_raises_immediately(self, gateway):
        server = AsyncGatewayServer(gateway).start()
        host, port = server.address
        server.stop()  # nothing listens here any more
        client = RemoteClient(host, port)
        try:
            with pytest.raises(GatewayConnectionError):
                client.stats()
        finally:
            client.close()
