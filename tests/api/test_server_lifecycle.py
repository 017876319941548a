"""Server lifecycle: startup race, idempotent stop, close-hook wiring.

Regression suite for the start/stop race the transport had to fix:
``start()`` must not return until the server is actually serving (an
immediate connect used to land in the listen backlog of a thread that
had not reached its poll loop), and ``stop()`` must be safe to call
twice, from any thread, including via the ``AgentService.close`` hook.
"""

from __future__ import annotations

import http.client
import threading

import pytest

from repro.api.aio import AsyncGatewayServer


def _get_stats_status(address) -> int:
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=5)
    try:
        conn.request("GET", "/v1/stats")
        response = conn.getresponse()
        response.read()
        return response.status
    finally:
        conn.close()


class TestLifecycle:
    def test_connect_immediately_after_start(self, gateway):
        """The startup race: a connect in the same instant start()
        returns must be served, every time."""
        for _ in range(5):
            server = AsyncGatewayServer(gateway).start()
            try:
                assert _get_stats_status(server.address) == 200
            finally:
                server.stop()

    def test_stop_is_idempotent(self, gateway):
        server = AsyncGatewayServer(gateway).start()
        server.stop()
        server.stop()  # second stop: nothing to do, no error
        server.close()  # alias, equally safe

    def test_stop_never_started(self, gateway):
        AsyncGatewayServer(gateway).stop()  # no bind happened: a clean no-op

    def test_address_requires_start(self, gateway):
        server = AsyncGatewayServer(gateway)
        with pytest.raises(RuntimeError, match="not started"):
            server.address
        server.start()
        try:
            host, port = server.address
            assert port > 0
        finally:
            server.stop()
        with pytest.raises(RuntimeError, match="not started"):
            server.address

    def test_start_is_idempotent_and_restartable(self, gateway):
        server = AsyncGatewayServer(gateway).start()
        assert server.start() is server  # second start: same instance
        first = server.address
        assert _get_stats_status(first) == 200
        server.stop()
        server.start()
        try:
            # restart rebinds (possibly a fresh ephemeral port) and serves
            assert _get_stats_status(server.address) == 200
        finally:
            server.stop()

    def test_concurrent_stops_from_many_threads(self, gateway):
        server = AsyncGatewayServer(gateway).start()
        errors: list[BaseException] = []

        def stopper():
            try:
                server.stop()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=stopper) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors

    def test_context_manager(self, gateway):
        with AsyncGatewayServer(gateway) as server:
            assert _get_stats_status(server.address) == 200
        with pytest.raises(RuntimeError):
            server.address


def test_service_close_stops_server(stack):
    """The close hook: closing the service takes the transport with it."""
    service, gateway, _client = stack
    server = AsyncGatewayServer(gateway).start()
    address = server.address
    assert _get_stats_status(address) == 200
    service.close()
    # the hook already stopped the server: nothing is listening
    with pytest.raises((ConnectionError, OSError)):
        _get_stats_status(address)
    server.stop()  # idempotent after the hook ran
