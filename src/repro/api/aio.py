"""Asyncio HTTP transport for the provenance gateway (stdlib only).

The gateway's one HTTP transport, built on ``asyncio.start_server``
rather than ``http.server`` (per-request handler objects,
``email``-based header parsing, one small unbuffered ``send()`` per
header line, one OS thread per connection):

* **one event loop thread** owns all sockets: a lean hand-rolled
  HTTP/1.1 parser (request line + the four headers the gateway cares
  about), and exactly one ``write()`` per response;
* **a sized executor pool** runs the actual request handling —
  gateway/tool execution is synchronous CPU-bound Python, so the loop
  never executes it inline; it dispatches
  :func:`repro.api.routing.handle_request` (the routing core, which
  answers every request with a schema reply or an
  :class:`~repro.api.schemas.ErrorEnvelope`) onto ``executor_workers``
  threads;
* **admission control before any work** — an
  :class:`~repro.api.admission.AdmissionController` bounds that pool:
  per-client/per-session token buckets shed with 429
  (``RATE_LIMITED``), a full admission queue sheds with 503
  (``OVERLOADED``), both decided O(1) on the loop thread before the
  body is even parsed, both carrying ``Retry-After``;
* **graceful drain** — ``stop()`` (also registered as an
  :meth:`AgentService.close` hook) flips admission into reject-new
  mode, lets every admitted request finish and flush its reply, and
  closes the listener *last*, so a draining gateway answers 503 instead
  of refusing connections.

``tests/api/test_http.py`` holds it to that: serving threads bounded
by the pool however many clients connect, and bounded-queue shedding;
the ``sql_hit_http`` workload of ``BENCHMARK.json`` measures it.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _REASON_PHRASES
from typing import Any, TYPE_CHECKING

from repro.api.admission import AdmissionController
from repro.api.routing import (
    MAX_BODY_BYTES,
    WireRequest,
    WireResponse,
    error_response,
    handle_request,
    session_id_of,
)
from repro.api.schemas import ErrorCode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.gateway import ProvenanceGateway

__all__ = ["AsyncGatewayServer", "DEFAULT_EXECUTOR_WORKERS"]


def _default_workers() -> int:
    import os

    return max(4, min(32, (os.cpu_count() or 1) * 4))


#: executor width when none is configured: enough threads to overlap
#: LLM-endpoint waits, few enough that the GIL is not a mosh pit
DEFAULT_EXECUTOR_WORKERS = _default_workers()

#: longest request head served, terminating blank line included
_MAX_HEADER_BYTES = 64 * 1024


class _BadRequestLine(Exception):
    """The bytes on the socket are not parseable HTTP/1.1."""


def _encode_response(response: WireResponse, *, keep_alive: bool) -> bytes:
    reason = _REASON_PHRASES.get(response.status, "Unknown")
    head = (
        f"HTTP/1.1 {response.status} {reason}\r\n"
        f"Content-Type: {response.content_type}\r\n"
        f"Content-Length: {len(response.body)}\r\n"
    )
    if response.retry_after is not None:
        head += f"Retry-After: {response.retry_after}\r\n"
    if not keep_alive:
        head += "Connection: close\r\n"
    head += "\r\n"
    return head.encode("latin-1") + response.body


class _ParsedHead:
    """Request line + the headers the gateway cares about."""

    __slots__ = (
        "method", "target", "content_length", "accept", "keep_alive",
        "client_id",
    )

    def __init__(self, head: bytes):
        lines = head.split(b"\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith(b"HTTP/1."):
            raise _BadRequestLine(lines[0][:120].decode("latin-1", "replace"))
        self.method = parts[0].decode("latin-1")
        self.target = parts[1].decode("latin-1")
        self.content_length = 0
        self.accept = ""
        self.keep_alive = parts[2] != b"HTTP/1.0"
        self.client_id: str | None = None
        for line in lines[1:]:
            if not line:
                continue
            sep = line.find(b":")
            if sep < 0:
                continue
            name = line[:sep].strip().lower()
            if name == b"content-length":
                try:
                    self.content_length = int(line[sep + 1:].strip())
                except ValueError:
                    raise _BadRequestLine("bad Content-Length") from None
                if self.content_length < 0:
                    raise _BadRequestLine("bad Content-Length")
            elif name == b"accept":
                self.accept = line[sep + 1:].strip().decode("latin-1")
            elif name == b"connection":
                token = line[sep + 1:].strip().lower()
                if token == b"close":
                    self.keep_alive = False
                elif token == b"keep-alive":
                    self.keep_alive = True
            elif name == b"x-client-id":
                self.client_id = line[sep + 1:].strip().decode("latin-1")


class AsyncGatewayServer:
    """Lifecycle wrapper: an asyncio HTTP server on a daemon loop thread.

    ``start()`` binds (``port=0`` picks an ephemeral port) and returns
    only once the loop is serving, ``stop()``/``close()`` drain and are
    idempotent, a stopped server may be started again,
    ``address``/``url`` report the bound socket, and context-manager
    use works.  ``executor_workers=None`` means
    :data:`DEFAULT_EXECUTOR_WORKERS`.  ``admission=None`` builds a
    controller bounding the executor (no rate limits); pass a
    configured :class:`AdmissionController` for per-client/per-session
    limits.  The controller's counters surface through
    ``gateway.stats()`` (the ``gateway-stats`` MCP resource).
    """

    def __init__(
        self,
        gateway: "ProvenanceGateway",
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        executor_workers: int | None = None,
        admission: AdmissionController | None = None,
        drain_timeout: float = 30.0,
    ):
        self.gateway = gateway
        self.host = host
        self.port = port
        if executor_workers is None:
            executor_workers = DEFAULT_EXECUTOR_WORKERS
        if executor_workers < 1:
            raise ValueError(
                f"executor_workers must be >= 1, got {executor_workers}"
            )
        self.executor_workers = executor_workers
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(max_concurrency=self.executor_workers)
        )
        self.drain_timeout = drain_timeout
        self._lifecycle = threading.Lock()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._bound: tuple[str, int] | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    # -- addresses ---------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        if self._bound is None:
            raise RuntimeError("server is not started")
        return self._bound

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> "AsyncGatewayServer":
        with self._lifecycle:
            if self._thread is not None:
                return self
            self._ready.clear()
            self._startup_error = None
            self.admission.end_drain()  # a restart un-wedges the drain
            self._executor = ThreadPoolExecutor(
                max_workers=self.executor_workers,
                thread_name_prefix="gateway-aio",
            )
            self._thread = threading.Thread(
                target=self._run_loop, name="gateway-aio-loop", daemon=True
            )
            self._thread.start()
            self._ready.wait()  # provlint: disable=blocking-call-under-lock - lifecycle mutex serialises slow start/stop; request paths never take it
            if self._startup_error is not None:
                error, self._startup_error = self._startup_error, None
                thread, self._thread = self._thread, None
                thread.join(timeout=5)  # provlint: disable=blocking-call-under-lock - lifecycle mutex serialises slow start/stop
                self._executor.shutdown(wait=False)  # provlint: disable=blocking-call-under-lock - lifecycle mutex serialises slow start/stop
                self._executor = None
                raise error
        service = getattr(self.gateway, "service", None)
        if service is not None and hasattr(service, "add_close_hook"):
            service.add_close_hook(self.stop)
        attach = getattr(self.gateway, "attach_admission", None)
        if attach is not None:
            attach(self.admission)
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(
                    self._handle_connection,
                    self.host,
                    self.port,
                    limit=_MAX_HEADER_BYTES,
                )
            )
        except BaseException as exc:  # noqa: BLE001 - surfaced by start()
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._server = server
        sockname = server.sockets[0].getsockname()
        self._bound = (str(sockname[0]), int(sockname[1]))
        # readiness is signalled from INSIDE the running loop: when
        # start() returns, the loop is provably polling, not merely
        # scheduled to run
        loop.call_soon(self._ready.set)
        try:
            loop.run_forever()
        finally:
            try:
                loop.run_until_complete(self._shutdown_async())
            finally:
                loop.close()

    async def _shutdown_async(self) -> None:
        if self._server is not None:
            self._server.close()
            try:
                await asyncio.wait_for(self._server.wait_closed(), timeout=5)
            except (asyncio.TimeoutError, Exception):  # noqa: BLE001; provlint: disable=exception-contract - best-effort close during shutdown
                pass
        # idle keep-alive connections (no request in flight) are parked
        # in readuntil(): cancel them so the loop can close cleanly
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    def stop(self) -> None:
        """Graceful drain, then full shutdown.  Idempotent.

        New requests are shed with 503 the moment drain begins;
        admitted ones finish and flush their replies; the listener
        closes last (when the loop exits).
        """
        with self._lifecycle:
            thread, self._thread = self._thread, None
            if thread is None:
                return  # never started, or already stopped
            loop = self._loop
            executor, self._executor = self._executor, None
            self.admission.begin_drain()
            self.admission.wait_idle(self.drain_timeout)
            if loop is not None and not loop.is_closed():
                loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=max(5.0, self.drain_timeout))  # provlint: disable=blocking-call-under-lock - lifecycle mutex serialises slow start/stop
            if executor is not None:
                executor.shutdown(wait=True)  # provlint: disable=blocking-call-under-lock - lifecycle mutex serialises slow start/stop
            self._loop = None
            self._server = None
            self._bound = None

    #: the name the close-hook contract and tests use
    close = stop

    def __enter__(self) -> "AsyncGatewayServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- the connection loop -----------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        peer = writer.get_extra_info("peername")
        peer_key = f"{peer[0]}:{peer[1]}" if peer else "unknown"
        try:
            while True:
                try:
                    head_bytes = await reader.readuntil(b"\r\n\r\n")
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    BrokenPipeError,
                ):
                    break
                except asyncio.LimitOverrunError:
                    head_bytes = None
                # the stream limit counts up to the terminator, so a head
                # up to four bytes over it still arrives: check the length
                if head_bytes is None or len(head_bytes) > _MAX_HEADER_BYTES:
                    await self._respond(
                        writer,
                        error_response(
                            ErrorCode.BAD_REQUEST,
                            f"headers too large (> {_MAX_HEADER_BYTES} bytes)",
                        ),
                        keep_alive=False,
                    )
                    break
                try:
                    head = _ParsedHead(head_bytes)
                except _BadRequestLine as exc:
                    await self._respond(
                        writer,
                        error_response(
                            ErrorCode.BAD_REQUEST, f"bad request: {exc}"
                        ),
                        keep_alive=False,
                    )
                    break
                if head.content_length > MAX_BODY_BYTES:
                    # refuse before reading: the connection is poisoned
                    # by the unread body, so close it after replying
                    await self._respond(
                        writer,
                        error_response(
                            ErrorCode.BAD_REQUEST,
                            f"body too large (> {MAX_BODY_BYTES} bytes)",
                        ),
                        keep_alive=False,
                    )
                    break
                body = b""
                if head.content_length:
                    try:
                        body = await reader.readexactly(head.content_length)
                    except (
                        asyncio.IncompleteReadError,
                        ConnectionResetError,
                    ):
                        break
                decision = self.admission.admit(
                    client=head.client_id or peer_key,
                    session=session_id_of(head.target),
                )
                if not decision.admitted:
                    retry_after = decision.retry_after_s
                    await self._respond(
                        writer,
                        error_response(
                            decision.code,
                            decision.message or "request shed",  # provlint: disable=falsy-or-default - empty shed message falls back to generic text
                            detail=(
                                {"retry_after_s": retry_after}
                                if retry_after is not None
                                else None
                            ),
                        ),
                        keep_alive=head.keep_alive,
                    )
                    if not head.keep_alive:
                        break
                    continue
                try:
                    response = await self._dispatch(
                        WireRequest(
                            method=head.method,
                            target=head.target,
                            body=body,
                            accept=head.accept,
                        )
                    )
                    try:
                        await self._respond(
                            writer, response, keep_alive=head.keep_alive
                        )
                    except (ConnectionResetError, BrokenPipeError):
                        break
                finally:
                    # released only after the reply is flushed: a drain
                    # waiting on wait_idle() must not stop the loop
                    # while an accepted request's bytes are unsent
                    self.admission.release()
                if not head.keep_alive:
                    break
        except asyncio.CancelledError:  # loop shutdown cancelled us
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:  # noqa: BLE001; provlint: disable=exception-contract - peer already gone
                pass

    async def _dispatch(self, request: WireRequest) -> WireResponse:
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                self._executor, handle_request, self.gateway, request
            )
        except Exception as exc:  # noqa: BLE001 - executor refused/died
            return error_response(ErrorCode.INTERNAL, repr(exc))

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        response: WireResponse,
        *,
        keep_alive: bool,
    ) -> None:
        writer.write(_encode_response(response, keep_alive=keep_alive))
        await writer.drain()
