"""Operator pushdown: planner shapes, exact combine rules, guarded fallback.

Three layers under test:

* :func:`repro.query.pushdown.plan_pushdown` — which pipelines plan to
  ``partial`` / ``topk`` / ``project`` and which stay classic;
* :mod:`repro.query.partial` — per-shard execution and the exact
  coordinator merge, driven directly on hand-built document splits so
  every dtype/ordering hazard lands on a chosen shard boundary;
* :func:`repro.query.engine.run_cached_pipeline` — end-to-end over a
  real sharded store, asserting byte parity with the classic path and
  that every refusal falls back instead of answering wrong.
"""

from __future__ import annotations

import math

import pytest

from repro.dataframe import DataFrame
from repro.dataframe import dtypes as dt
from repro.errors import QueryExecutionError
from repro.provenance.query_api import QueryAPI
from repro.query import ast as q
from repro.query import parse_query
from repro.query.engine import run_cached_pipeline
from repro.query.partial import (
    SEQ_FIELD,
    combine_partials,
    execute_plan_on_docs,
)
from repro.query.pushdown import plan_pushdown
from repro.storage import ProvenanceDatabase, ShardedProvenanceStore


def plan(code, base_filter=None):
    return plan_pushdown(parse_query(code), base_filter)


class TestPlanner:
    def test_scalar_agg_plans_partial(self):
        p = plan("df['duration'].mean()")
        assert p.mode == "partial"
        assert p.agg == "mean"
        assert p.value_field == "duration"
        assert p.coordinator_steps[0].startswith("merge:")

    def test_filters_are_pushed_and_prefiltered(self):
        p = plan(
            "df[df['status'] == 'FAILED']['duration'].sum()",
            base_filter={"type": "task"},
        )
        assert p.mode == "partial"
        assert p.filter == {"type": "task", "status": "FAILED"}
        assert "duration" in p.local_columns and "status" in p.local_columns

    def test_rowcount_plans_partial(self):
        p = plan("len(df[df['status'] == 'FAILED'])")
        assert p.mode == "partial"
        assert isinstance(p.terminal, q.RowCount)

    def test_groupagg_with_suffix_plans_partial(self):
        p = plan(
            "df.groupby('status')['duration'].mean()"
            ".sort_values('duration').head(1)"
        )
        assert p.mode == "partial"
        assert p.group_fields == ("status",)
        assert len(p.suffix) == 2

    def test_sort_prefix_allowed_for_order_insensitive_aggs(self):
        assert plan("df.sort_values('x')['v'].mean()").mode == "partial"
        assert plan("len(df.sort_values('x'))").mode == "partial"

    def test_sort_prefix_blocks_order_sensitive_terminals(self):
        # Unique emission order depends on row order; shards cannot skip
        # the sort, so these degrade to projection
        assert plan("df.sort_values('x')['v'].unique()").mode == "project"

    @pytest.mark.parametrize("agg", ["median", "std", "var", "nunique"])
    def test_non_decomposable_aggs_degrade_to_project(self, agg):
        p = plan(f"df['duration'].{agg}()")
        assert p.mode == "project"
        assert p.fields == ("duration",)

    def test_sorted_head_plans_topk(self):
        p = plan("df.sort_values('duration', ascending=False).head(5)")
        assert p.mode == "topk"
        assert p.fetch == ("head", 5)
        assert p.local_columns == ("duration",)

    def test_skip_folds_into_the_local_fetch(self):
        p = plan("df.sort_values('duration').iloc[2:].head(3)")
        assert p.mode == "topk"
        assert p.fetch == ("head", 5)  # shards cannot know which 2 drop

    def test_sorted_tail_plans_topk(self):
        p = plan("df.sort_values('duration').tail(4)")
        assert p.mode == "topk"
        assert p.fetch == ("tail", 4)

    def test_skip_then_tail_needs_global_count_so_no_plan(self):
        # tail after skip depends on the global row count; without a
        # projection there is nothing to push either
        assert plan("df.sort_values('duration').iloc[2:].tail(3)") is None

    def test_unsorted_head_is_pagination_not_topk(self):
        assert plan("df.head(5)") is None
        p = plan("df[['task_id', 'status']].head(5)")
        assert p.mode == "project"

    def test_projection_limits_the_payload_fields(self):
        p = plan(
            "df[df['status'] == 'FAILED']"
            ".sort_values('duration').head(3)[['task_id']]"
        )
        assert p.mode == "topk"
        assert p.fields == ("duration", "status", "task_id")

    def test_statically_unresolvable_pipelines_are_never_planned(self):
        # projecting away the sort key raises on the classic path; a
        # shard plan would silently skip the broken step instead
        assert plan("df[['task_id']].sort_values('duration').head(2)") is None

    def test_identity_pipeline_has_nothing_to_push(self):
        assert plan("df") is None
        assert plan("df.sort_values('x')") is None  # full rows observable


def _stamp(docs, start=1):
    return [
        {SEQ_FIELD: start + i, **doc} for i, doc in enumerate(docs)
    ]


def _scatter(code, *shards):
    """Run a plan over explicit per-shard doc lists and combine."""
    p = plan(code)
    assert p is not None
    return p, combine_partials(
        p, [execute_plan_on_docs(docs, p) for docs in shards]
    )


class TestExactCombine:
    def test_sum_is_partition_independent(self):
        # naive per-shard sums round 1e16 + 1.0 before the -1e16 cancels;
        # Shewchuk partials reproduce fsum over the unpartitioned column
        values = [1e16, 1.0, -1e16, 0.1, 0.2]
        _, combined = _scatter(
            "df['v'].sum()",
            _stamp([{"v": values[0]}, {"v": values[1]}], start=1),
            _stamp([{"v": values[2]}, {"v": values[3]}], start=3),
            _stamp([{"v": values[4]}], start=5),
        )
        assert combined.ok
        assert combined.result == math.fsum(values)

    def test_mean_merges_sum_and_count_exactly(self):
        values = [1e16, 1.0, -1e16]
        _, combined = _scatter(
            "df['v'].mean()",
            _stamp([{"v": values[0]}, {"v": values[1]}]),
            _stamp([{"v": values[2]}], start=3),
        )
        assert combined.ok
        assert combined.result == math.fsum(values) / 3

    def test_min_max_skip_all_null_shards(self):
        _, combined = _scatter(
            "df['v'].max()",
            _stamp([{"v": None}, {"v": None}]),
            _stamp([{"v": 3.5}, {"v": 7.0}], start=3),
        )
        assert combined.ok
        assert combined.result == 7.0

    def test_first_and_last_follow_the_global_sequence(self):
        # shard order interleaves: seqs 1,4 on shard A, 2,3 on shard B
        shard_a = [{SEQ_FIELD: 1, "v": "a1"}, {SEQ_FIELD: 4, "v": "a4"}]
        shard_b = [{SEQ_FIELD: 3, "v": "b3"}, {SEQ_FIELD: 2, "v": "b2"}]
        for agg, want in (("first", "a1"), ("last", "a4")):
            p = plan_pushdown(q.Pipeline((q.Agg(column="v", agg=agg),)))
            combined = combine_partials(
                p,
                [
                    execute_plan_on_docs(shard_a, p),
                    execute_plan_on_docs(shard_b, p),
                ],
            )
            assert combined.ok
            assert combined.result == want

    def test_rowcount_sums_filtered_shard_counts(self):
        _, combined = _scatter(
            "len(df[df['v'] > 2])",
            _stamp([{"v": 1}, {"v": 3}]),
            _stamp([{"v": 5}, {"v": 2}], start=3),
        )
        assert combined.ok
        assert combined.result == 2

    def test_unique_preserves_first_appearance_order_across_shards(self):
        shard_a = [{SEQ_FIELD: 1, "v": "x"}, {SEQ_FIELD: 4, "v": "y"}]
        shard_b = [{SEQ_FIELD: 2, "v": "y"}, {SEQ_FIELD: 3, "v": "z"}]
        _, combined = _scatter("df['v'].unique()", shard_a, shard_b)
        assert combined.ok
        assert combined.result == ["x", "y", "z"]

    def test_group_order_and_representatives_are_global(self):
        # group "b" first appears on shard B (seq 2), before shard A's
        # seq-3 member; emission order must honour that
        shard_a = [
            {SEQ_FIELD: 1, "g": "a", "v": 1.0},
            {SEQ_FIELD: 3, "g": "b", "v": 2.0},
        ]
        shard_b = [
            {SEQ_FIELD: 2, "g": "b", "v": 4.0},
            {SEQ_FIELD: 4, "g": "a", "v": 5.0},
        ]
        _, combined = _scatter("df.groupby('g')['v'].sum()", shard_a, shard_b)
        assert combined.ok
        rows = combined.result.to_dicts()
        assert rows == [{"g": "a", "v": 6.0}, {"g": "b", "v": 6.0}]

    def test_group_keys_coerce_through_the_merged_dtype(self):
        # shard A sees ints, shard B floats: the global column is FLOAT,
        # so both shards' key 1 must merge into a single group keyed 1.0
        shard_a = _stamp([{"g": 1, "v": 1.0}])
        shard_b = _stamp([{"g": 1.0, "v": 2.0}, {"g": 2.5, "v": 3.0}], start=2)
        _, combined = _scatter("df.groupby('g')['v'].sum()", shard_a, shard_b)
        assert combined.ok
        frame = combined.result
        assert frame.column("g").dtype == dt.FLOAT
        assert frame.to_dicts() == [
            {"g": 1.0, "v": 3.0},
            {"g": 2.5, "v": 3.0},
        ]

    def test_topk_candidates_merge_on_the_global_sequence(self):
        shard_a = [
            {SEQ_FIELD: 1, "v": 9.0, "t": "a1"},
            {SEQ_FIELD: 4, "v": 7.0, "t": "a4"},
        ]
        shard_b = [
            {SEQ_FIELD: 2, "v": 9.0, "t": "b2"},
            {SEQ_FIELD: 3, "v": 8.0, "t": "b3"},
        ]
        _, combined = _scatter(
            "df.sort_values('v', ascending=False).head(3)", shard_a, shard_b
        )
        assert combined.ok
        # stable sort: the seq-1 and seq-2 ties stay in ingest order
        assert [r["t"] for r in combined.result.to_dicts()] == [
            "a1", "b2", "b3",
        ]


class TestGuardedFallback:
    def test_empty_scatter_falls_back(self):
        _, combined = _scatter("df['v'].sum()", [], [])
        assert not combined.ok
        assert combined.reason == "no matching rows"

    def test_shard_error_falls_back(self):
        p = plan("df.sort_values('v').head(2)")
        bad = execute_plan_on_docs(None, p)  # not iterable -> error partial
        assert bad.error
        combined = combine_partials(
            p, [execute_plan_on_docs(_stamp([{"v": 1.0}]), p), bad]
        )
        assert not combined.ok
        assert "shard error" in combined.reason

    def test_mixed_type_sort_column_refuses(self):
        _, combined = _scatter(
            "df.sort_values('v').head(2)",
            _stamp([{"v": "fast"}, {"v": "slow"}]),
            _stamp([{"v": 3}], start=3),
        )
        assert not combined.ok
        assert "mixed-type sort column 'v'" in combined.reason

    def test_big_int_under_float_global_refuses_filter_replay(self):
        # 2**53 + 1 is exact in the int shard but rounds in the float64
        # global column: local and global predicate evaluation disagree
        _, combined = _scatter(
            "len(df[df['v'] > 0])",
            _stamp([{"v": 2**53 + 1}]),
            _stamp([{"v": 0.5}], start=2),
        )
        assert not combined.ok
        assert "filter column 'v'" in combined.reason

    def test_object_local_under_object_global_is_fine_but_float_drifts(self):
        # shard A infers FLOAT and converts the raw int 1 to 1.0; under
        # an OBJECT global the classic path keeps 1, so unique must refuse
        _, combined = _scatter(
            "df['v'].unique()",
            _stamp([{"v": 1}, {"v": 2.5}]),
            _stamp([{"v": "x"}], start=3),
        )
        assert not combined.ok
        assert "value drift" in combined.reason

    def test_object_sum_refuses(self):
        # both shards sum fine locally (INT and BOOL), but the merged
        # column is OBJECT and the classic path raises on it
        _, combined = _scatter(
            "df['v'].sum()",
            _stamp([{"v": 1}]),
            _stamp([{"v": True}], start=2),
        )
        assert not combined.ok
        assert "cannot sum object column" in combined.reason

    def test_local_aggregation_error_becomes_a_shard_error(self):
        # a string shard fails locally exactly like the classic path
        # would; the fallback then reproduces the identical error
        _, combined = _scatter(
            "df['v'].sum()",
            _stamp([{"v": 1}]),
            _stamp([{"v": "oops"}], start=2),
        )
        assert not combined.ok
        assert "cannot sum non-numeric column" in combined.reason

    def test_absent_aggregation_column_refuses(self):
        # the classic path raises column-not-found; answering 0/None
        # shard-side would hide that
        _, combined = _scatter(
            "df['missing'].sum()",
            _stamp([{"v": 1.0}]),
            _stamp([{"v": 2.0}], start=2),
        )
        assert not combined.ok
        assert "'missing' absent" in combined.reason

    def test_column_used_only_by_a_skipped_sort_must_exist(self):
        _, combined = _scatter(
            "df.sort_values('missing')['v'].mean()",
            _stamp([{"v": 1.0}]),
        )
        assert not combined.ok
        assert "'missing' absent" in combined.reason

    def test_non_finite_values_refuse_exact_summation(self):
        _, combined = _scatter(
            "df['v'].sum()",
            _stamp([{"v": float('inf')}]),
            _stamp([{"v": 1.0}], start=2),
        )
        assert not combined.ok
        assert "shard error" in combined.reason


def _mirror(docs, num_shards=4):
    single = ProvenanceDatabase()
    sharded = ShardedProvenanceStore(num_shards)
    for doc in docs:
        single.upsert(doc)
        sharded.upsert(doc)
    return single, sharded


def _task_docs(n=40):
    docs = []
    for i in range(n):
        doc = {
            "type": "task",
            "task_id": f"t{i}",
            "workflow_id": f"wf-{i % 5}",
            "status": "FAILED" if i % 7 == 3 else "FINISHED",
            "duration": float(i % 11) + 0.25,
            "used": {"x": i},
        }
        docs.append(doc)
    return docs


def _normalise(result):
    if isinstance(result, DataFrame):
        return (
            "frame",
            tuple(result.columns),
            tuple(result.column(c).dtype for c in result.columns),
            tuple(
                tuple((type(v).__name__, repr(v)) for v in row.values())
                for row in result.to_dicts()
            ),
        )
    if isinstance(result, list):
        return ("list", tuple((type(v).__name__, repr(v)) for v in result))
    return ("scalar", type(result).__name__, repr(result))


BASE = {"type": "task"}


def _run(store, code, **kw):
    api = QueryAPI(store)
    return run_cached_pipeline(
        api, parse_query(code), base_filter=BASE, **kw
    )


class TestEngineIntegration:
    @pytest.mark.parametrize(
        "code,mode",
        [
            ("df['duration'].mean()", "partial"),
            ("df[df['status'] == 'FAILED']['duration'].sum()", "partial"),
            ("df['used.x'].mean()", "partial"),  # a nested leaf, flattened shard-side
            ("len(df)", "partial"),
            ("df['status'].unique()", "partial"),
            ("df.groupby('workflow_id')['duration'].mean()", "partial"),
            (
                "df.groupby('status')['duration'].count()"
                ".sort_values('duration', ascending=False).head(1)",
                "partial",
            ),
            (
                "df.sort_values('duration', ascending=False)"
                ".head(5)[['task_id', 'duration']]",
                "topk",
            ),
            ("df['duration'].median()", "project"),
            ("df[['task_id', 'status']].head(7)", "project"),
        ],
    )
    def test_sharded_pushdown_matches_single_store(self, code, mode):
        single, sharded = _mirror(_task_docs())
        pushed = _run(sharded, code)
        classic = _run(single, code)
        assert pushed.pushdown is not None
        assert pushed.pushdown["mode"] == mode
        assert "fallback" not in pushed.pushdown
        assert pushed.pushdown["shards"] >= 1
        assert _normalise(pushed.result) == _normalise(classic.result)

    def test_single_store_pushes_down_as_one_shard(self):
        # the in-memory store exposes execute_partial too: the same fold
        # runs in-place, skipping the document-copying find() entirely
        single, _ = _mirror(_task_docs())
        run = _run(single, "df['duration'].mean()")
        assert run.pushdown is not None
        assert run.pushdown["shards"] == 1
        assert "fallback" not in run.pushdown

    def test_backend_without_execute_partial_stays_classic(self):
        class _NoPushdown:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                if name == "execute_partial":
                    raise AttributeError(name)
                return getattr(self._inner, name)

        single, _ = _mirror(_task_docs())
        run = _run(_NoPushdown(single), "df['duration'].mean()")
        assert run.pushdown is None

    def test_operator_pushdown_flag_disables_the_scatter(self):
        _, sharded = _mirror(_task_docs())
        run = _run(sharded, "df['duration'].mean()", operator_pushdown=False)
        assert run.pushdown is None

    def test_pushed_results_share_the_classic_cache_entry(self):
        _, sharded = _mirror(_task_docs())
        api = QueryAPI(sharded)
        pipeline = parse_query("df.groupby('status')['duration'].mean()")
        first = run_cached_pipeline(api, pipeline, base_filter=BASE)
        assert first.cache_state == "miss"
        # same IR without operator pushdown must hit the shared entry
        second = run_cached_pipeline(
            api, pipeline, base_filter=BASE, operator_pushdown=False
        )
        assert second.cache_state == "hit"
        assert _normalise(second.result) == _normalise(first.result)

    def test_fallback_reason_is_reported_and_result_is_classic(self):
        # engineer a shard split where one shard is all-int (with a
        # >=2**53 value) while the global column is float: the filter
        # guard must refuse and the classic path must answer
        def shard_of(wf):
            probe = ShardedProvenanceStore(2)
            probe.upsert({"type": "task", "task_id": "p", "workflow_id": wf})
            return next(
                i for i, s in enumerate(probe.shards) if s.count({})
            )

        wf_big = "wf-big"
        wf_other = next(
            f"wf-{i}" for i in range(32) if shard_of(f"wf-{i}") != shard_of(wf_big)
        )
        single = ProvenanceDatabase()
        sharded = ShardedProvenanceStore(2)
        for doc in (
            {"type": "task", "task_id": "big", "workflow_id": wf_big,
             "duration": 2**53 + 1},
            {"type": "task", "task_id": "small", "workflow_id": wf_other,
             "duration": 0.5},
        ):
            single.upsert(doc)
            sharded.upsert(doc)
        # the >=2**53 literal is never prefiltered (it would round in a
        # float column), so both docs reach the scatter and the filter
        # replays shard-side against diverging local dtypes
        code = f"len(df[df['duration'] >= {2**53}])"
        pushed = _run(sharded, code)
        classic = _run(single, code)
        assert pushed.pushdown is not None
        assert "fallback" in pushed.pushdown
        assert "filter column 'duration'" in pushed.pushdown["fallback"]
        assert _normalise(pushed.result) == _normalise(classic.result)

    def test_absent_column_error_parity(self):
        single, sharded = _mirror(_task_docs())
        code = "df['no_such_column'].sum()"
        with pytest.raises(QueryExecutionError) as push_err:
            _run(sharded, code)
        with pytest.raises(QueryExecutionError) as classic_err:
            _run(single, code)
        assert str(push_err.value) == str(classic_err.value)


class TestReducedFrameRegression:
    """Prefilter pruning can drop every document carrying a column the
    pipeline later uses; the engine retries over the full frame, and
    operator pushdown must refuse and reach the same retry."""

    @staticmethod
    def _docs():
        docs = _task_docs(14)
        # "extra" exists only on FINISHED documents
        for doc in docs:
            if doc["status"] == "FINISHED":
                doc["extra"] = doc["duration"] * 2
        return docs

    @pytest.mark.parametrize(
        "code",
        [
            # partial plan: unique column absent among matching docs
            "df[df['status'] == 'FAILED']['extra'].unique()",
            # project plan: merged frame lacks the projected column
            "df[df['status'] == 'FAILED'][['extra']]",
            # topk plan: sort column absent among matching docs
            "df[df['status'] == 'FAILED']"
            ".sort_values('extra').head(2)[['task_id']]",
        ],
    )
    def test_pushdown_falls_back_into_the_full_frame_retry(self, code):
        single, sharded = _mirror(self._docs())
        pushed = _run(sharded, code)
        classic = _run(single, code)
        assert pushed.pushdown is not None and "fallback" in pushed.pushdown
        assert _normalise(pushed.result) == _normalise(classic.result)

    def test_classic_retry_still_works_without_operator_pushdown(self):
        single, sharded = _mirror(self._docs())
        code = "df[df['status'] == 'FAILED']['extra'].unique()"
        a = _run(sharded, code, operator_pushdown=False)
        b = _run(single, code, operator_pushdown=False)
        assert _normalise(a.result) == _normalise(b.result) == ("list", ())
