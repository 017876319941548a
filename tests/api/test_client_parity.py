"""Transport parity: GatewayClient and RemoteClient are interchangeable.

The acceptance contract: for the same request, the in-process client
and the HTTP client return **byte-identical JSON** — across all four
query dialects, chat, lineage, CSV rendering, and error envelopes, over
the 20-task ``stack`` and over the 2 000-task ``parity_stack`` (large
frames, paged GROUP BY and graph replies).
"""

from __future__ import annotations

import pytest

from repro.api.aio import AsyncGatewayServer
from repro.api.client import GatewayClient, RemoteClient
from repro.api.schemas import ErrorEnvelope, QueryRequest, from_json
from tests.api.conftest import PARITY_QUERIES

#: ``PARITY_QUERIES`` (every dialect scalar/frame/paginated + errors),
#: then the shapes only this file asks for; every task id named exists
#: in both stacks
QUERY_MATRIX = [
    *PARITY_QUERIES,
    QueryRequest(dialect="filter", filter={}, sort=(("started_at", -1),), limit=5),
    QueryRequest(dialect="filter", filter={"used.x": {"$gte": 15}}),
    QueryRequest(dialect="filter", filter={}, page_size=7),
    QueryRequest(
        dialect="pipeline",
        code="df[df['status'] == 'FINISHED'][['task_id', 'duration']]",
    ),
    QueryRequest(dialect="pipeline", code="df['status'].unique()"),
    QueryRequest(dialect="graph", operation="upstream", task_id="t5"),
    QueryRequest(dialect="graph", operation="causal_chain", task_id="t1", target="t4"),
    QueryRequest(dialect="graph", operation="impact_size", task_id="t10"),
    QueryRequest(dialect="graph", operation="roots"),
    # paging errors are part of the parity surface too
    QueryRequest(dialect="filter", filter={}, page_size=0),
    QueryRequest(dialect="filter", filter={}, cursor="garbage"),
]


@pytest.fixture
def transports(request):
    """(in-process client, HTTP client) over one gateway: that of the
    20-task ``stack``, or of the stack fixture an indirect param names."""
    _service, gateway, local = request.getfixturevalue(
        getattr(request, "param", "stack")
    )
    server = AsyncGatewayServer(gateway).start()
    remote = RemoteClient.for_server(server)
    yield local, remote
    remote.close()
    server.stop()


@pytest.mark.parametrize("transports", ["stack", "parity_stack"], indirect=True)
class TestByteParity:
    @pytest.mark.parametrize("request_obj", QUERY_MATRIX)
    def test_query_json_identical(self, transports, request_obj):
        local, remote = transports
        assert local.query_json(request_obj) == remote.query_json(request_obj)

    @pytest.mark.parametrize(
        "request_obj",
        [
            *PARITY_QUERIES[:3],  # whole, sorted + limited, one page
            QueryRequest(dialect="pipeline", code="len(df)"),  # 406 path
        ],
    )
    def test_query_csv_identical(self, transports, request_obj):
        local, remote = transports
        assert local.query_csv(request_obj) == remote.query_csv(request_obj)

    def test_lineage_json_identical(self, transports):
        local, remote = transports
        # t64 heads a 64-task chain in the large stack, is unknown in the small
        for task_id, depth in (("t3", 2), ("t64", 3), ("ghost", None)):
            assert local.lineage_json(task_id, depth=depth) == remote.lineage_json(
                task_id, depth=depth
            )

    def test_chat_json_identical(self, transports):
        """Two sessions, same conversation, transport-identical replies."""
        local, remote = transports
        local.create_session("local-user")
        remote.create_session("remote-user")
        for message in (
            "How many tasks have finished?",
            "In the database, how many tasks have finished?",
            "In the database, how many tasks failed?",
            "How many tasks failed in the database?",
            "What tasks are upstream of 't4'?",
            "What is the average duration per activity?",
            "In the database, what is the average duration per activity?",
            "Which activity has the highest average duration?",
        ):
            a = from_json(local.chat_json("local-user", message))
            b = from_json(remote.chat_json("remote-user", message))
            # session_id naturally differs; everything else is identical
            assert (a.text, a.intent, a.ok, a.code, a.table, a.chart) == (
                b.text, b.intent, b.ok, b.code, b.table, b.chart
            ), message


def test_every_paginated_row_pages_over_the_large_stack(parity_stack):
    """A one-page reply would compare no ``next_cursor`` across transports."""
    client = parity_stack[2]
    for request_obj in QUERY_MATRIX:
        if request_obj.page_size:
            assert client.query(request_obj).page.next_cursor, request_obj


class TestInterfaceParity:
    """The two clients expose the same surface, schema-for-schema."""

    def test_same_methods(self):
        shared = [
            "create_session", "chat", "chat_json", "query", "query_json",
            "query_csv", "lineage", "lineage_json", "stats",
        ]
        for name in shared:
            assert callable(getattr(GatewayClient, name))
            assert callable(getattr(RemoteClient, name))

    def test_same_schema_instances(self, transports):
        local, remote = transports
        request = QueryRequest(dialect="filter", filter={"status": "FAILED"})
        a, b = local.query(request), remote.query(request)
        assert type(a) is type(b)
        assert a == b

    def test_errors_come_back_typed(self, transports):
        local, remote = transports
        request = QueryRequest(dialect="sql")
        a, b = local.query(request), remote.query(request)
        assert isinstance(a, ErrorEnvelope) and isinstance(b, ErrorEnvelope)
        assert a == b

    def test_pagination_walk_across_transports(self, transports):
        """Pages fetched alternately via HTTP and in-process tile the
        same result set: cursors are transport-portable."""
        local, remote = transports
        from dataclasses import replace

        request = QueryRequest(dialect="filter", filter={}, page_size=6)
        ids: list[str] = []
        cursor = None
        clients = [local, remote]
        for hop in range(10):
            reply = clients[hop % 2].query(replace(request, cursor=cursor))
            ids.extend(r["task_id"] for r in reply.frame.to_dicts())
            cursor = reply.page.next_cursor
            if cursor is None:
                break
        assert ids == [f"t{i}" for i in range(20)]


class TestUrlEncoding:
    def test_session_ids_needing_escapes_work_over_http(self, transports):
        """Ids with spaces or slashes ride the URL path percent-encoded;
        both transports accept them identically."""
        local, remote = transports
        for client, sid in ((local, "team a/user 1"), (remote, "team b/user 2")):
            info = client.create_session(sid)
            assert info.session_id == sid
            reply = client.chat(sid, "How many tasks have finished?")
            assert reply.ok and reply.session_id == sid

    def test_lineage_task_id_is_percent_encoded(self, transports):
        local, remote = transports
        # an id that is not in the index but URL-hostile: both transports
        # must return the same typed UNKNOWN_TASK envelope, not a
        # transport error or NOT_FOUND route miss
        hostile = "no such/task?x=1#frag"
        assert local.lineage_json(hostile) == remote.lineage_json(hostile)
