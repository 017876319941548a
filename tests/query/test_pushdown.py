"""Predicate pushdown: pipeline prefix filters -> Mongo prefilters.

The invariant mirrors the planner's: pushing a prefilter down and then
running the *unchanged* pipeline over the reduced frame must produce the
same result as running it over the full frame, because pushed clauses
are a superset predicate of the pipeline's own leading filters.
"""

from __future__ import annotations

import pytest

from repro.dataframe import DataFrame
from repro.query import execute_query, parse_query
from repro.query import ast as q
from repro.query.pushdown import merge_filters, pipeline_prefilter
from repro.storage import ProvenanceDatabase


class TestPrefilterTranslation:
    def test_equality(self):
        # equality pushes in the bare form: identical match semantics
        # to {"$eq": v}, cheapest per-candidate verification
        p = parse_query("df[df['status'] == 'FINISHED']")
        assert pipeline_prefilter(p) == {"status": "FINISHED"}

    def test_conjunction_and_ranges(self):
        p = parse_query(
            "df[(df['status'] == 'FINISHED') & (df['duration'] > 2.0)]"
        )
        assert pipeline_prefilter(p) == {
            "$and": [
                {"status": "FINISHED"},
                {"duration": {"$gt": 2.0}},
            ]
        }

    def test_isin_and_between(self):
        p = parse_query(
            "df[df['status'].isin(['FAILED', 'RUNNING'])]"
            "[df['duration'].between(1, 5)]"
        )
        assert pipeline_prefilter(p) == {
            "$and": [
                {"status": {"$in": ["FAILED", "RUNNING"]}},
                {"duration": {"$gte": 1, "$lte": 5}},
            ]
        }

    def test_notna(self):
        p = parse_query("df[df['ended_at'].notna()]")
        assert pipeline_prefilter(p) == {"ended_at": {"$ne": None}}

    def test_unpushable_predicates_skipped(self):
        # OR trees and str.contains stay behind; the executor re-applies them
        p = parse_query(
            "df[(df['status'] == 'FAILED') | (df['status'] == 'RUNNING')]"
        )
        assert pipeline_prefilter(p) == {}
        p = parse_query("df[df['generated.bond_id'].str.contains('C-H')]")
        assert pipeline_prefilter(p) == {}

    def test_none_literal_not_pushed(self):
        p = parse_query("df[df['ended_at'] == None]")
        assert pipeline_prefilter(p) == {}

    def test_neq_anywhere_disables_pushdown(self):
        # pruning can flip a column's inferred dtype, and != treats
        # missing values differently per dtype — so never push with !=
        p = parse_query("df[df['status'] == 'FINISHED'][df['duration'] != 5]")
        assert pipeline_prefilter(p) == {}
        p = parse_query("df[(df['status'] == 'FINISHED') & ~(df['hostname'] != 'h1')]")
        assert pipeline_prefilter(p) == {}

    def test_large_int_literals_not_pushed(self):
        # 2**53 + 1 is exact in the store but rounds onto 2**53 in a
        # float64 column, so exact-int pruning could drop frame matches
        p = parse_query(f"df[df['t_ns'] == {2**53}]")
        assert pipeline_prefilter(p) == {}
        p = parse_query("df[df['duration'] == 5]")
        assert pipeline_prefilter(p) == {"duration": 5}

    def test_literal_dotted_key_docs_match_pushed_prefilter(self):
        # flattened and nested documents must satisfy the same prefilter
        db = ProvenanceDatabase()
        db.insert({"task_id": "nested", "generated": {"bond_id": "C-H_1"}})
        db.insert({"task_id": "flat", "generated.bond_id": "C-H_1"})
        p = parse_query("df[df['generated.bond_id'] == 'C-H_1']")
        got = db.find(pipeline_prefilter(p))
        assert {d["task_id"] for d in got} == {"nested", "flat"}

    def test_pushdown_stops_at_membership_changing_step(self):
        p = parse_query("df.head(2)[df['status'] == 'FINISHED']")
        assert pipeline_prefilter(p) == {}

    def test_filters_after_sort_still_pushed(self):
        p = parse_query(
            "df.sort_values('duration')[df['status'] == 'FINISHED'].head(1)"
        )
        assert pipeline_prefilter(p) == {"status": "FINISHED"}

    def test_operator_shaped_literal_keeps_eq_wrapper(self):
        # a mapping literal containing $-keys must not be mistaken for
        # an operator document when pushed
        pipeline = q.Pipeline(
            (q.Filter(q.Compare(q.Field("meta"), "==", {"$gt": 5})),)
        )
        assert pipeline_prefilter(pipeline) == {"meta": {"$eq": {"$gt": 5}}}

    def test_merge_filters(self):
        assert merge_filters({"type": "task"}, {}) == {"type": "task"}
        assert merge_filters(None, {"a": 1}) == {"a": 1}
        # disjoint keys merge flat: a filter document is already an AND
        assert merge_filters({"type": "task"}, {"a": 1}) == {
            "type": "task",
            "a": 1,
        }
        # colliding keys keep both constraints via $and
        assert merge_filters({"a": 1}, {"a": {"$gt": 0}}) == {
            "$and": [{"a": 1}, {"a": {"$gt": 0}}]
        }
        assert merge_filters(
            {"$and": [{"a": 1}]}, {"$and": [{"b": 2}]}
        ) == {"$and": [{"$and": [{"a": 1}]}, {"$and": [{"b": 2}]}]}


@pytest.fixture
def store(task_records) -> ProvenanceDatabase:
    db = ProvenanceDatabase()
    for r in task_records:
        db.insert(dict(r, type="task"))
    return db


PIPELINES = [
    "df[df['status'] == 'FINISHED']['duration'].mean()",
    "df[(df['status'] == 'FINISHED') & (df['duration'] > 0.4)]",
    "df[df['activity_id'].isin(['run_dft'])].sort_values('duration', ascending=False).head(2)",
    "len(df[df['workflow_id'] == 'w1'])",
    "df[df['duration'].between(0.4, 2.5)]['task_id'].unique()",
    "df.groupby('hostname')['duration'].mean()",
]


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("code", PIPELINES)
    def test_reduced_frame_matches_full_frame(self, store, code):
        pipeline = parse_query(code)
        full = DataFrame.from_records(store.find({"type": "task"}), flatten=True)
        prefilter = pipeline_prefilter(pipeline)
        reduced_docs = store.find(merge_filters({"type": "task"}, prefilter))
        reduced = DataFrame.from_records(reduced_docs, flatten=True)

        got = execute_query(pipeline, reduced)
        want = execute_query(pipeline, full)
        if isinstance(got, DataFrame):
            assert got.to_dicts() == want.to_dicts()
        else:
            assert got == want
