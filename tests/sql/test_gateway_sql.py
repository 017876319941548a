"""The gateway's fourth dialect: sql requests through one query surface.

Parity is the tentpole property: a SQL request and its filter/pipeline
equivalent produce byte-identical replies and share cache entries,
because all three compile to the same IR before anything executes.
"""

from __future__ import annotations

import pytest

from repro.api import schemas as s
from repro.api.schemas import ErrorCode, ErrorEnvelope, QueryReply, QueryRequest

FAILED_SQL = (
    "SELECT task_id, status FROM tasks WHERE status = 'FAILED' "
    "ORDER BY task_id"
)
FAILED_CODE = (
    "df[df['status'] == 'FAILED'].sort_values('task_id', ascending=True)"
    "[['task_id', 'status']]"
)


class TestSqlDialect:
    def test_frame_reply(self, client):
        reply = client.sql("SELECT * FROM tasks WHERE status = 'FAILED'")
        assert isinstance(reply, QueryReply)
        assert reply.kind == "frame"
        assert {r["status"] for r in reply.frame.to_dicts()} == {"FAILED"}

    def test_scalar_reply(self, client):
        reply = client.sql("SELECT COUNT(*) FROM tasks")
        assert reply.kind == "scalar"
        assert reply.scalar == 20

    def test_aggregate_reply(self, client):
        reply = client.sql("SELECT AVG(duration) FROM tasks")
        assert reply.kind == "scalar"
        assert isinstance(reply.scalar, float)

    def test_distinct_reply_is_list(self, client):
        reply = client.sql("SELECT DISTINCT status FROM tasks")
        assert reply.kind == "scalar"
        assert set(reply.scalar) == {"FINISHED", "FAILED"}

    def test_grouped_reply(self, client):
        reply = client.sql(
            "SELECT hostname, COUNT(task_id) FROM tasks GROUP BY hostname"
        )
        rows = {r["hostname"]: r["task_id"] for r in reply.frame.to_dicts()}
        assert rows == {"node-0": 10, "node-1": 10}

    def test_dotted_column_via_quotes(self, client):
        reply = client.sql('SELECT task_id FROM tasks WHERE "used.x" >= 18')
        assert {r["task_id"] for r in reply.frame.to_dicts()} == {"t18", "t19"}


class TestCrossDialectParity:
    def test_sql_equals_filter_bytes(self, client):
        by_sql = client.query(QueryRequest(dialect="sql", sql=FAILED_SQL))
        by_filter = client.query(
            QueryRequest(
                dialect="filter",
                filter={"status": "FAILED"},
                sort=(("task_id", 1),),
            )
        )
        assert (
            {r["task_id"] for r in by_sql.frame.to_dicts()}
            == {r["task_id"] for r in by_filter.frame.to_dicts()}
        )

    def test_sql_equals_pipeline_bytes(self, client):
        by_sql = client.query(QueryRequest(dialect="sql", sql=FAILED_SQL))
        by_pipeline = client.query(
            QueryRequest(dialect="pipeline", code=FAILED_CODE)
        )
        # the reply echoes its dialect; everything computed is identical
        assert by_sql.frame == by_pipeline.frame
        assert by_sql.page == by_pipeline.page
        assert by_sql.summary == by_pipeline.summary
        assert s.to_json(by_sql).replace('"sql"', '"pipeline"', 1) == s.to_json(
            by_pipeline
        )

    def test_sql_and_pipeline_share_one_cache_entry(self, stack):
        """Equivalent requests through different dialects compile to the
        same IR, so the first warms the cache for the second."""
        service, gateway, client = stack
        client.query(QueryRequest(dialect="sql", sql=FAILED_SQL))
        before = service.query_cache.stats()["hits"]
        client.query(QueryRequest(dialect="pipeline", code=FAILED_CODE))
        assert service.query_cache.stats()["hits"] == before + 1

    def test_repeat_sql_hits_cache(self, stack):
        service, gateway, client = stack
        request = QueryRequest(dialect="sql", sql="SELECT COUNT(*) FROM tasks")
        first = client.query(request)
        before = service.query_cache.stats()["hits"]
        second = client.query(request)
        assert second == first
        assert service.query_cache.stats()["hits"] == before + 1


class TestPagination:
    def test_page_and_continue(self, client):
        first = client.sql("SELECT task_id FROM tasks", page_size=8)
        assert first.page.returned == 8
        assert first.page.next_cursor is not None
        rest = client.sql(
            "SELECT task_id FROM tasks", page_size=8, cursor=first.page.next_cursor
        )
        ids = {r["task_id"] for r in first.frame.to_dicts()} | {
            r["task_id"] for r in rest.frame.to_dicts()
        }
        assert len(ids) == 16

    def test_cursor_reuse_after_write_is_stale(self, stack, store):
        from tests.sql.conftest import task_doc

        service, gateway, client = stack
        first = client.sql("SELECT task_id FROM tasks", page_size=6)
        store.upsert(task_doc(99))
        err = client.sql(
            "SELECT task_id FROM tasks", page_size=6,
            cursor=first.page.next_cursor,
        )
        assert isinstance(err, ErrorEnvelope)
        assert err.code == ErrorCode.CURSOR_STALE

    def test_cursor_is_pinned_to_the_statement(self, client):
        first = client.sql("SELECT task_id FROM tasks", page_size=6)
        err = client.sql(
            "SELECT task_id FROM tasks WHERE status = 'FAILED'",
            page_size=6,
            cursor=first.page.next_cursor,
        )
        assert err.code == ErrorCode.CURSOR_INVALID


class TestErrors:
    def test_missing_sql_field(self, client):
        err = client.query(QueryRequest(dialect="sql"))
        assert err.code == ErrorCode.BAD_REQUEST
        assert "sql" in err.message

    def test_syntax_error_carries_diagnostic(self, client):
        err = client.sql("SELECT * FROM tasks WHERE")
        assert err.code == ErrorCode.QUERY_SYNTAX
        assert err.detail["line"] == 1
        assert err.detail["column"] == 26
        assert err.detail["snippet"].endswith("^")

    def test_unsupported_feature_is_bad_request_with_reason(self, client):
        err = client.sql("SELECT * FROM tasks JOIN other ON 1")
        assert err.code == ErrorCode.BAD_REQUEST
        assert "JOIN" in err.detail["message"]

    def test_resolution_error_is_bad_request(self, client):
        err = client.sql("SELECT a FROM runs")
        assert err.code == ErrorCode.BAD_REQUEST
        assert "only 'tasks' is queryable" in err.detail["message"]

    @pytest.mark.parametrize(
        "sql",
        [
            "",
            "SELECT",
            "SELECT 'unterminated FROM tasks",
            "SELECT * FROM tasks WHERE a @ 1",
            "SELECT COUNT(a), SUM(b) FROM tasks",
            "SELECT * FROM tasks WHERE status = 5",
            "x" * 10_000,
            "SELECT * FROM tasks; DROP TABLE tasks",
        ],
    )
    def test_never_a_traceback(self, client, sql):
        reply = client.query(QueryRequest(dialect="sql", sql=sql))
        assert isinstance(reply, (QueryReply, ErrorEnvelope))
        if isinstance(reply, ErrorEnvelope):
            assert reply.code in ErrorCode.ALL


class TestForeignFields:
    @pytest.mark.parametrize(
        "request_obj,stray",
        [
            (
                QueryRequest(dialect="sql", sql="SELECT 1", filter={"a": 1}),
                "filter",
            ),
            (QueryRequest(dialect="sql", sql="SELECT 1", code="df"), "code"),
            (QueryRequest(dialect="sql", sql="SELECT 1", limit=5), "limit"),
            (
                QueryRequest(
                    dialect="sql", sql="SELECT 1", operation="upstream"
                ),
                "operation",
            ),
            (
                QueryRequest(dialect="sql", sql="SELECT 1", task_id="t1"),
                "task_id",
            ),
            (
                QueryRequest(dialect="filter", filter={}, sql="SELECT 1"),
                "sql",
            ),
            (
                QueryRequest(dialect="pipeline", code="df", sql="SELECT 1"),
                "sql",
            ),
            (
                QueryRequest(
                    dialect="graph", operation="roots", sql="SELECT 1"
                ),
                "sql",
            ),
            (
                QueryRequest(dialect="filter", filter={}, code="df"),
                "code",
            ),
        ],
    )
    def test_stray_field_is_bad_request(self, client, request_obj, stray):
        err = client.query(request_obj)
        assert err.code == ErrorCode.BAD_REQUEST
        assert stray in err.message


class TestExplain:
    def test_explain_reports_the_compiled_plan(self, client):
        reply = client.sql(
            "SELECT task_id FROM tasks WHERE workflow_id = 'wf-1'",
            explain=True,
        )
        assert reply.kind == "explain"
        detail = reply.scalar
        assert detail["sql"].startswith("SELECT")
        assert detail["pipeline"].startswith("df[")
        assert detail["cache"] == "miss"
        assert "store_version" in detail
        assert detail["pushdown"] == {"workflow_id": "wf-1"}
        # operator pushdown: the projection plan runs shard-side, the
        # pipeline itself replays at the coordinator over pruned docs
        assert detail["pushdown_mode"] == "project"
        assert detail["pushed_steps"]
        assert detail["coordinator_steps"]

    def test_explain_is_cache_aware_and_non_distorting(self, stack):
        service, gateway, client = stack
        sql = "SELECT COUNT(*) FROM tasks WHERE status = 'FAILED'"
        assert client.sql(sql, explain=True).scalar["cache"] == "miss"
        client.sql(sql)  # executes and warms the cache
        stats_before = service.query_cache.stats()["hits"]
        assert client.sql(sql, explain=True).scalar["cache"] == "hit"
        # explain peeks; it must not inflate hit accounting
        assert service.query_cache.stats()["hits"] == stats_before

    def test_explain_of_bad_sql_is_still_a_diagnostic(self, client):
        err = client.sql("SELECT * FROM tasks WHERE", explain=True)
        assert err.code == ErrorCode.QUERY_SYNTAX


class TestRemoteTransport:
    def test_sql_over_http_matches_in_process(self, stack):
        from repro.api.aio import AsyncGatewayServer
        from repro.api.client import RemoteClient

        service, gateway, client = stack
        server = AsyncGatewayServer(gateway)
        server.start()
        try:
            with RemoteClient.for_server(server) as remote:
                local = client.sql(FAILED_SQL)
                over_http = remote.sql(FAILED_SQL)
                assert s.to_json(over_http) == s.to_json(local)
                err = remote.sql("SELECT * FROM tasks WHERE")
                assert err.code == ErrorCode.QUERY_SYNTAX
                assert err.detail["column"] == 26
        finally:
            server.stop()
