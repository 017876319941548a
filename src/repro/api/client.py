"""Gateway clients: one interface, in-process or over HTTP.

:class:`GatewayClient` calls a :class:`~repro.api.gateway.ProvenanceGateway`
in-process; :class:`RemoteClient` speaks HTTP/1.1 over a keep-alive
connection to :class:`~repro.api.aio.AsyncGatewayServer`.  Both clients
expose the *same* methods with the same signatures and return the same schema
instances — and their ``*_json`` forms return the same canonical JSON
text byte-for-byte (``tests/api/test_client_parity.py`` asserts it,
over a 20-task and a 2 000-task store).  Code written against one
client runs unchanged against the other, which is the property the
paper's "programmatically (e.g., via Jupyter) ... or via natural
language" access modes need.

Neither client raises for API-level failures: those come back as
:class:`~repro.api.schemas.ErrorEnvelope` values with stable codes.
:class:`RemoteClient` raises :class:`GatewayConnectionError` only for
transport failures (server unreachable, connection dropped).
"""

from __future__ import annotations

import http.client
import time
from typing import Any, Callable, TYPE_CHECKING
from urllib.parse import quote

from repro.api import schemas as s
from repro.api.schemas import (
    ChatReply,
    ChatRequest,
    CreateSessionRequest,
    ErrorEnvelope,
    LineageReply,
    LineageRequest,
    QueryReply,
    QueryRequest,
    SessionInfo,
    StatsReply,
)
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.gateway import ProvenanceGateway

__all__ = ["GatewayClient", "RemoteClient", "GatewayConnectionError"]


class GatewayConnectionError(ReproError):
    """The HTTP transport failed below the API layer."""


class GatewayClient:
    """In-process client: the gateway surface with zero transport cost."""

    def __init__(self, gateway: "ProvenanceGateway"):
        self.gateway = gateway

    # -- sessions ----------------------------------------------------------------
    def create_session(
        self, session_id: str | None = None, *, model: str | None = None
    ) -> SessionInfo | ErrorEnvelope:
        return self.gateway.create_session(
            CreateSessionRequest(session_id=session_id, model=model)
        )

    # -- chat --------------------------------------------------------------------
    def chat(self, session_id: str, message: str) -> ChatReply | ErrorEnvelope:
        return self.gateway.chat(
            ChatRequest(session_id=session_id, message=message)
        )

    def chat_json(self, session_id: str, message: str) -> str:
        return s.to_json(self.chat(session_id, message))

    # -- query -------------------------------------------------------------------
    def query(self, request: QueryRequest) -> QueryReply | ErrorEnvelope:
        return self.gateway.execute_query(request)

    def query_json(self, request: QueryRequest) -> str:
        return s.to_json(self.query(request))

    def query_csv(self, request: QueryRequest) -> str:
        _content_type, text = self.gateway.render_csv(self.query(request))
        return text

    def sql(
        self,
        statement: str,
        *,
        explain: bool = False,
        page_size: int | None = None,
        cursor: str | None = None,
    ) -> QueryReply | ErrorEnvelope:
        """Run one SELECT through the gateway's sql dialect."""
        return self.query(QueryRequest(
            dialect="sql",
            sql=statement,
            explain=explain or None,
            page_size=page_size,
            cursor=cursor,
        ))

    # -- lineage -----------------------------------------------------------------
    def lineage(
        self, task_id: str, *, direction: str = "both", depth: int | None = None
    ) -> LineageReply | ErrorEnvelope:
        return self.gateway.lineage_view(
            LineageRequest(task_id=task_id, direction=direction, depth=depth)
        )

    def lineage_json(
        self, task_id: str, *, direction: str = "both", depth: int | None = None
    ) -> str:
        return s.to_json(self.lineage(task_id, direction=direction, depth=depth))

    # -- stats -------------------------------------------------------------------
    def stats(self) -> StatsReply:
        return self.gateway.stats()


def _parse_retry_after(value: str | None) -> float | None:
    """Seconds from a ``Retry-After`` header, or None when absent/odd."""
    if value is None:
        return None
    try:
        parsed = float(value)
    except ValueError:
        return None
    return parsed if parsed >= 0 else None


class RemoteClient:
    """HTTP client over one keep-alive connection (stdlib only).

    Method-for-method identical to :class:`GatewayClient`.  Not thread-safe
    (one underlying connection): concurrent callers hold one
    ``RemoteClient`` each, which is also how real HTTP load looks.

    Resilience, both opt-in by degrees:

    * a request that fails on a *reused* keep-alive socket (the server
      idled it out: ``ECONNRESET`` / ``BrokenPipeError`` on reuse) gets
      exactly one clean reconnect-and-resend; a fresh connection's
      failure surfaces immediately as :class:`GatewayConnectionError`;
    * with ``retries=N``, a 429/503 reply (``RATE_LIMITED`` /
      ``OVERLOADED`` / ``SERVICE_CLOSED`` shedding) is retried up to N
      times, honoring the server's ``Retry-After`` hint under a capped
      exponential backoff.  The default ``retries=0`` returns the
      :class:`~repro.api.schemas.ErrorEnvelope` to the caller untouched.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
        retries: int = 0,
        backoff_base_s: float = 0.1,
        backoff_cap_s: float = 5.0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._sleep = sleep
        self._conn: http.client.HTTPConnection | None = None

    @classmethod
    def for_server(cls, server: Any, **kwargs: Any) -> "RemoteClient":
        """Client for a started gateway server."""
        host, port = server.address
        return cls(host, port, **kwargs)

    # -- transport ---------------------------------------------------------------
    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _send(
        self, method: str, path: str, body: str | None, headers: dict[str, str]
    ) -> tuple[int, float | None, str]:
        """One request/response exchange: ``(status, retry_after_s, body)``."""
        for attempt in (0, 1):
            conn = self._conn
            reused = conn is not None
            if conn is None:
                conn = self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                text = response.read().decode()
            except (ConnectionError, http.client.HTTPException, OSError) as exc:
                # a stale keep-alive socket earns one reconnect-and-resend;
                # a fresh connection failing is a real transport error
                self.close()
                if attempt or not reused:
                    raise GatewayConnectionError(
                        f"{method} {path} failed: {exc!r}"
                    ) from exc
                continue
            return (
                response.status,
                _parse_retry_after(response.getheader("Retry-After")),
                text,
            )
        raise AssertionError("unreachable")  # pragma: no cover

    def _request(
        self,
        method: str,
        path: str,
        body: str | None = None,
        *,
        accept: str = "application/json",
    ) -> str:
        headers = {"Accept": accept}
        if body is not None:
            headers["Content-Type"] = "application/json"
        shed_retries = 0
        while True:
            status, retry_after, text = self._send(method, path, body, headers)
            if status not in (429, 503) or shed_retries >= self.retries:
                return text
            # the server's hint dominates the exponential schedule, and
            # the cap dominates both
            delay = self.backoff_base_s * (2 ** shed_retries)
            if retry_after is not None:
                delay = max(delay, retry_after)
            self._sleep(min(delay, self.backoff_cap_s))
            shed_retries += 1

    def _call(self, method: str, path: str, body: str | None = None) -> Any:
        text = self._request(method, path, body)
        try:
            return s.from_json(text)
        except s.SchemaViolation as exc:
            raise GatewayConnectionError(
                f"unparseable response from {method} {path}: {exc}"
            ) from exc

    # -- sessions ----------------------------------------------------------------
    def create_session(
        self, session_id: str | None = None, *, model: str | None = None
    ) -> SessionInfo | ErrorEnvelope:
        request = CreateSessionRequest(session_id=session_id, model=model)
        return self._call("POST", "/v1/sessions", s.to_json(request))

    # -- chat --------------------------------------------------------------------
    def chat(self, session_id: str, message: str) -> ChatReply | ErrorEnvelope:
        return s.from_json(self.chat_json(session_id, message))

    def chat_json(self, session_id: str, message: str) -> str:
        import json as _json

        body = _json.dumps({"message": message})
        return self._request(
            "POST", f"/v1/sessions/{quote(session_id, safe='')}/chat", body
        )

    # -- query -------------------------------------------------------------------
    def query(self, request: QueryRequest) -> QueryReply | ErrorEnvelope:
        return self._call("POST", "/v1/query", s.to_json(request))

    def query_json(self, request: QueryRequest) -> str:
        return self._request("POST", "/v1/query", s.to_json(request))

    def query_csv(self, request: QueryRequest) -> str:
        return self._request(
            "POST", "/v1/query", s.to_json(request), accept="text/csv"
        )

    def sql(
        self,
        statement: str,
        *,
        explain: bool = False,
        page_size: int | None = None,
        cursor: str | None = None,
    ) -> QueryReply | ErrorEnvelope:
        """Run one SELECT through the gateway's sql dialect."""
        return self.query(QueryRequest(
            dialect="sql",
            sql=statement,
            explain=explain or None,
            page_size=page_size,
            cursor=cursor,
        ))

    # -- lineage -----------------------------------------------------------------
    def lineage(
        self, task_id: str, *, direction: str = "both", depth: int | None = None
    ) -> LineageReply | ErrorEnvelope:
        return s.from_json(
            self.lineage_json(task_id, direction=direction, depth=depth)
        )

    def lineage_json(
        self, task_id: str, *, direction: str = "both", depth: int | None = None
    ) -> str:
        path = f"/v1/lineage/{quote(task_id, safe='')}?direction={quote(direction)}"
        if depth is not None:
            path += f"&depth={depth}"
        return self._request("GET", path)

    # -- stats -------------------------------------------------------------------
    def stats(self) -> StatsReply | ErrorEnvelope:
        return self._call("GET", "/v1/stats")
