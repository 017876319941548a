"""The staged request path: what a cache hit skips must not change a byte.

``execute_query`` compiles from a statement memo, fingerprints only a
paginated request and reuses the wire payload kept on the cache entry.
Each shortcut is held here to the reply the long way round produces.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import stages
from repro.api.schemas import (
    ErrorCode,
    ErrorEnvelope,
    FramePayload,
    QueryReply,
    QueryRequest,
    to_json,
)
from repro.query import parse_query
from repro.query.engine import run_cached_pipeline
from repro.sql import compile_sql
from tests.api.conftest import PARITY_QUERIES, task_doc

#: ``next_cursor`` of each request's first page over the 20-document
#: fixture store, minted by the gateway at the commit before the
#: fingerprint became lazy (fd301aa)
GOLDEN_CURSORS = [
    (
        QueryRequest(
            dialect="sql", sql="SELECT task_id FROM tasks ORDER BY task_id", page_size=6
        ),
        "eyJmIjoiMDU5NTYxNjExMzVhYzUxMCIsIm8iOjYsInYiOjF9",
    ),
    (
        QueryRequest(
            dialect="pipeline", code="df.sort_values('task_id')[['task_id']]", page_size=8
        ),
        "eyJmIjoiZTFiNGZmYWYwMTM4YzBhZiIsIm8iOjgsInYiOjF9",
    ),
    (
        QueryRequest(dialect="filter", filter={}, page_size=6),
        "eyJmIjoiYWNhZTg2Zjc3ODUyMzAyYiIsIm8iOjYsInYiOjF9",
    ),
    (
        QueryRequest(dialect="graph", operation="downstream", task_id="t0", page_size=7),
        "eyJmIjoiMjZhYTA0ZGUwN2VhMmEwMCIsIm8iOjcsInYiOjIwfQ",
    ),
]


class TestCompileMemoThroughTheGateway:
    @pytest.mark.parametrize(
        "request_obj, code",
        [
            (
                QueryRequest(dialect="sql", sql="SELECT * FROM tasks WHERE"),
                ErrorCode.QUERY_SYNTAX,
            ),
            (
                QueryRequest(dialect="sql", sql="SELECT a FROM runs"),
                ErrorCode.BAD_REQUEST,
            ),
            (QueryRequest(dialect="pipeline", code="df.!!!"), ErrorCode.QUERY_SYNTAX),
        ],
    )
    def test_failing_statement_is_rediagnosed_identically(self, client, request_obj, code):
        first = client.query(request_obj)
        assert isinstance(first, ErrorEnvelope) and first.code == code
        if request_obj.dialect == "sql":
            assert {"line", "column", "snippet"} <= set(first.detail)
            assert "^" in first.detail["snippet"]
        replies = [client.query_json(request_obj) for _ in range(3)]
        assert set(replies) == {to_json(first)}
        assert client.stats().errors[code] == 4

    def test_text_variants_share_one_result_entry(self, stack):
        service, _gateway, client = stack
        compile_sql.memo.cache_clear()
        variants = [
            "SELECT status, COUNT(*) FROM tasks GROUP BY status",
            "select status, count(*) from tasks group by status",
            "SELECT  status,  COUNT(*)  FROM  tasks  GROUP  BY  status ",
        ]
        before = service.query_cache.stats()
        replies = [client.query_json(QueryRequest(dialect="sql", sql=v)) for v in variants]
        after = service.query_cache.stats()
        assert len(set(replies)) == 1
        assert compile_sql.memo.cache_info().currsize == 3
        assert after["entries"] - before["entries"] == 1
        assert after["hits"] - before["hits"] == 2

    def test_every_caller_compiles_through_the_memo(self, stack):
        service, _gateway, client = stack
        compile_sql.memo.cache_clear()
        parse_query.memo.cache_clear()
        statement = "SELECT COUNT(*) FROM tasks"
        client.query(QueryRequest(dialect="sql", sql=statement))
        assert service.sql_tool.invoke(sql=statement).ok
        assert compile_sql.memo.cache_info().hits == 1
        service.db_tool.invoke(question="How many tasks failed in the database?")
        service.db_tool.invoke(question="How many tasks failed in the database?")
        assert parse_query.memo.cache_info().hits == 1


class TestLazyFingerprint:
    def test_unpaginated_reply_never_fingerprints(self, client, monkeypatch):
        def boom(request):
            raise AssertionError("fingerprint computed for an unpaginated request")

        monkeypatch.setattr(stages, "_fingerprint", boom)
        for request_obj in (
            QueryRequest(dialect="sql", sql="SELECT task_id FROM tasks"),
            QueryRequest(dialect="pipeline", code="df[['task_id']]"),
            QueryRequest(dialect="filter", filter={}),
            QueryRequest(dialect="graph", operation="roots"),
        ):
            reply = client.query(request_obj)
            assert isinstance(reply, QueryReply) and reply.kind == "frame", reply
        assert isinstance(
            client.query(QueryRequest(dialect="filter", filter={}, page_size=3)),
            ErrorEnvelope,
        )

    @pytest.mark.parametrize("request_obj, golden", GOLDEN_CURSORS)
    def test_golden_cursor_is_reminted_and_still_pages(self, client, request_obj, golden):
        first = client.query(request_obj)
        assert first.page.next_cursor == golden
        second = client.query(replace(request_obj, cursor=golden))
        assert isinstance(second, QueryReply), second
        assert second.page.offset == first.page.returned
        whole = client.query(replace(request_obj, page_size=None))
        assert second.frame.rows == whole.frame.rows[
            second.page.offset: second.page.offset + second.page.returned
        ]

    def test_cursor_replayed_against_another_statement_is_invalid(self, client):
        request_obj, golden = GOLDEN_CURSORS[0]
        other = replace(request_obj, sql="SELECT task_id FROM tasks", cursor=golden)
        reply = client.query(other)
        assert isinstance(reply, ErrorEnvelope)
        assert reply.code == ErrorCode.CURSOR_INVALID
        # a cursor alone (no page_size) still goes through the fingerprint
        reply = client.query(replace(other, page_size=None))
        assert reply.code == ErrorCode.CURSOR_INVALID

    def test_cursor_after_a_write_is_stale(self, stack, store):
        _service, _gateway, client = stack
        request_obj, golden = GOLDEN_CURSORS[0]
        assert isinstance(client.query(replace(request_obj, cursor=golden)), QueryReply)
        store.upsert(task_doc(99))
        reply = client.query(replace(request_obj, cursor=golden))
        assert isinstance(reply, ErrorEnvelope)
        assert reply.code == ErrorCode.CURSOR_STALE
        assert reply.detail == {"cursor_version": 1, "store_version": 2}


class TestCountersAddUp:
    def test_hits_are_counted_once_each(self, stack):
        service, _gateway, client = stack
        request_obj = QueryRequest(
            dialect="sql", sql="SELECT status, COUNT(*) FROM tasks GROUP BY status"
        )
        hits = 25
        cache_before = service.query_cache.stats()
        for _ in range(1 + hits):
            assert isinstance(client.query(request_obj), QueryReply)
        client.query(QueryRequest(dialect="sql", sql="SELECT"))  # one failure
        stats = client.stats()
        decisions = stats.pushdown["decisions"]
        assert decisions["cache-hit"] == hits
        assert sum(decisions.values()) == hits + 1  # plus the one execution
        assert stats.requests["query"] == hits + 2
        assert stats.endpoints["query"]["requests"] == hits + 2
        assert sum(stats.errors.values()) == 1
        cache_after = service.query_cache.stats()
        assert cache_after["hits"] - cache_before["hits"] == hits


def _compiled(request_obj: QueryRequest):
    if request_obj.dialect == "sql":
        return compile_sql(request_obj.sql)
    return parse_query(request_obj.code)


class TestReusedPayload:
    @pytest.mark.parametrize("request_obj", PARITY_QUERIES)
    def test_served_twice_is_byte_identical(self, parity_stack, request_obj):
        _service, _gateway, client = parity_stack
        assert client.query_json(request_obj) == client.query_json(request_obj)

    def test_reused_payload_equals_a_freshly_built_one(self, parity_stack):
        service, gateway, client = parity_stack
        checked = 0
        for request_obj in PARITY_QUERIES:
            first = client.query(request_obj)
            if (
                request_obj.dialect not in ("sql", "pipeline")
                or isinstance(first, ErrorEnvelope)
                or first.kind != "frame"
            ):
                continue
            second = client.query(request_obj)
            run = run_cached_pipeline(
                gateway.query_api, _compiled(request_obj),
                base_filter=gateway.base_filter, cache=service.query_cache,
            )
            assert run.cache_state == "hit"
            if request_obj.page_size is None:
                # the payload rides the cache entry every surface shares
                assert second.frame is first.frame is run.entry.payload
                fresh = FramePayload.from_frame(run.result)
            else:
                assert run.entry.payload is None  # a window is never kept
                fresh = FramePayload.from_frame(run.result.head(request_obj.page_size))
            assert to_json(second) == to_json(replace(second, frame=fresh)), request_obj
            checked += 1
        assert checked == 4  # two pipeline and two sql frame replies

    def test_payload_is_dropped_with_the_entry_on_a_write(self, stack, store):
        service, gateway, client = stack
        request_obj = QueryRequest(dialect="sql", sql="SELECT task_id FROM tasks")
        before = client.query(request_obj)
        assert client.query(request_obj).frame is before.frame
        store.upsert(task_doc(77))
        after = client.query(request_obj)
        assert after.frame is not before.frame
        assert len(after.frame.rows) == len(before.frame.rows) + 1
        assert to_json(after) == to_json(
            replace(after, frame=FramePayload.from_frame(
                gateway.query_api.to_frame(gateway.base_filter).select(["task_id"])
            ))
        )

    def test_bypassing_query_builds_a_private_payload(self, stack):
        service, _gateway, client = stack
        # a list literal makes the IR unhashable: no cache entry to keep it on
        request_obj = QueryRequest(
            dialect="pipeline", code="df[df['used._upstream'] == ['t0']][['task_id']]"
        )
        entries = service.query_cache.stats()["entries"]
        first, second = client.query(request_obj), client.query(request_obj)
        assert first.kind == "frame" and first == second
        assert first.frame is not second.frame
        assert service.query_cache.stats()["entries"] <= entries + 1  # the to_frame read only
