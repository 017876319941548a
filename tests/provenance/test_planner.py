"""Planner/index correctness: indexed execution must equal full scan.

The planner's contract is that candidate sets are *supersets* of the
true matches and the residual verification makes results exact — so for
every filter document, a database with indexes and one without must
return identical results.  Hypothesis generates randomized stores and
filters to hammer that invariant; deterministic tests cover index
maintenance across the upsert lifecycle.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DatabaseError
from repro.storage import (
    DEFAULT_EQUALITY_INDEX_FIELDS,
    DEFAULT_RANGE_INDEX_FIELDS,
    ProvenanceDatabase,
)

# ---------------------------------------------------------------------------
# randomized parity: indexed results == full-scan results
# ---------------------------------------------------------------------------

_statuses = st.sampled_from(["FINISHED", "FAILED", "RUNNING", "SUBMITTED"])
_activities = st.sampled_from(["run_dft", "postprocess", "prepare"])
_durations = st.one_of(
    st.none(),
    st.integers(0, 5),
    st.floats(0, 10, allow_nan=False),
    st.sampled_from(["fast", "slow"]),  # wrong-typed values must not break parity
)


@st.composite
def stores(draw):
    n = draw(st.integers(0, 40))
    docs = []
    for i in range(n):
        doc = {
            "type": "task",
            "task_id": f"t{i}",
            "workflow_id": f"w{draw(st.integers(0, 3))}",
            "status": draw(_statuses),
            "activity_id": draw(_activities),
            "duration": draw(_durations),
            "generated": {"bond_id": f"C-H_{i % 5}"},
        }
        if draw(st.booleans()):  # holes: missing fields index as None
            del doc["duration"]
        if draw(st.booleans()):
            doc["tags"] = [i, "x"]  # unhashable value on occasion
        docs.append(doc)
    return docs


_eq_clause = st.builds(
    lambda f, v: {f: v},
    st.sampled_from(["status", "workflow_id", "activity_id", "task_id", "missing"]),
    st.one_of(_statuses, st.sampled_from(["w0", "w1", "t3", "nope"]), st.none()),
)
_op_clause = st.builds(
    lambda f, op, v: {f: {op: v}},
    st.sampled_from(["duration", "status", "workflow_id"]),
    st.sampled_from(["$eq", "$ne", "$gt", "$gte", "$lt", "$lte"]),
    st.one_of(st.integers(0, 6), st.floats(0, 10, allow_nan=False), st.just("w1")),
)
_in_clause = st.builds(
    lambda f, vals: {f: {"$in": vals}},
    st.sampled_from(["status", "activity_id", "duration"]),
    st.lists(st.one_of(_statuses, st.integers(0, 5)), max_size=3),
)
_exists_clause = st.builds(
    lambda f, b: {f: {"$exists": b}},
    st.sampled_from(["duration", "tags", "missing"]),
    st.booleans(),
)
_regex_clause = st.builds(
    lambda p: {"generated.bond_id": {"$regex": p}},
    st.sampled_from(["^C-H", "_2$", "C.H_[13]"]),
)
_simple_clause = st.one_of(_eq_clause, _op_clause, _in_clause, _exists_clause, _regex_clause)


def _merge(clauses: list[dict]) -> dict:
    out: dict = {}
    for c in clauses:
        for k, v in c.items():
            if k in out and isinstance(out[k], dict) and isinstance(v, dict):
                out[k].update(v)
            else:
                out[k] = v
    return out


_filters = st.one_of(
    st.lists(_simple_clause, min_size=1, max_size=3).map(_merge),
    st.builds(
        lambda branches: {"$or": branches},
        st.lists(_simple_clause, min_size=1, max_size=3),
    ),
    st.builds(
        lambda subs, extra: _merge([{"$and": subs}, extra]),
        st.lists(_simple_clause, min_size=1, max_size=2),
        _simple_clause,
    ),
)


@settings(max_examples=200, deadline=None)
@given(docs=stores(), filt=_filters)
def test_indexed_find_equals_full_scan(docs, filt):
    indexed = ProvenanceDatabase()
    scan = ProvenanceDatabase(equality_index_fields=(), range_index_fields=())
    indexed.insert_many(docs)
    scan.insert_many(docs)
    assert indexed.find(filt) == scan.find(filt)
    assert indexed.count(filt) == scan.count(filt)


@settings(max_examples=100, deadline=None)
@given(docs=stores(), filt=_filters)
def test_upsert_built_store_matches_scan(docs, filt):
    """The same invariant when the store is built through upserts."""
    indexed = ProvenanceDatabase()
    scan = ProvenanceDatabase(equality_index_fields=(), range_index_fields=())
    for db in (indexed, scan):
        for d in docs:
            db.upsert(d)
        # second pass: lifecycle updates touch indexed fields
        for d in docs[::2]:
            db.upsert({**d, "status": "FINISHED", "duration": 1.5})
    assert indexed.find(filt) == scan.find(filt)


# ---------------------------------------------------------------------------
# index maintenance across the upsert lifecycle
# ---------------------------------------------------------------------------


class TestIndexMaintenance:
    def test_running_to_finished_collapse_keeps_indexes_consistent(self):
        db = ProvenanceDatabase()
        db.upsert({"task_id": "t1", "status": "RUNNING", "started_at": 1.0, "duration": None})
        assert db.find({"status": "RUNNING"})[0]["task_id"] == "t1"
        db.upsert({"task_id": "t1", "status": "FINISHED", "ended_at": 3.0, "duration": 2.0})
        assert db.find({"status": "RUNNING"}) == []
        assert db.find({"status": "FINISHED"})[0]["task_id"] == "t1"
        assert db.find({"duration": {"$gte": 2.0}})[0]["task_id"] == "t1"
        assert len(db) == 1

    def test_range_query_after_bulk_insert_rebuilds_index(self):
        db = ProvenanceDatabase()
        db.insert_many(
            {"task_id": f"t{i}", "status": "RUNNING", "duration": float(i)}
            for i in range(50)
        )
        # range index is dirty from the bulk load; a query rebuilds it
        assert len(db.find({"duration": {"$gt": 44.5}})) == 5
        assert db.explain({"duration": {"$gt": 44.5}})["strategy"] == "index"

    def test_upsert_after_bulk_upsert_many(self):
        db = ProvenanceDatabase()
        db.upsert_many(
            [{"task_id": f"t{i}", "status": "RUNNING", "duration": float(i)} for i in range(50)]
        )
        db.upsert({"task_id": "t10", "status": "FAILED", "duration": 100.0})
        assert db.find({"duration": {"$gt": 99.0}})[0]["task_id"] == "t10"
        assert db.count({"status": "RUNNING"}) == 49
        assert db.count() == 50

    def test_upsert_many_single_batch(self):
        db = ProvenanceDatabase()
        replaced = db.upsert_many(
            [{"task_id": "a", "status": "RUNNING"}, {"task_id": "b", "status": "RUNNING"}]
        )
        assert replaced == 0
        replaced = db.upsert_many(
            [
                {"task_id": "a", "status": "FINISHED"},
                {"task_id": "c", "status": "RUNNING"},
            ]
        )
        assert replaced == 1
        assert db.count() == 3
        assert {d["task_id"] for d in db.find({"status": "RUNNING"})} == {"b", "c"}

    def test_clear_resets_indexes(self):
        db = ProvenanceDatabase()
        db.insert({"task_id": "t1", "status": "FINISHED", "duration": 1.0})
        db.clear()
        assert db.find({"status": "FINISHED"}) == []
        db.insert({"task_id": "t2", "status": "FINISHED", "duration": 2.0})
        assert db.find({"duration": {"$gt": 1.5}})[0]["task_id"] == "t2"

    def test_nan_values_do_not_corrupt_range_index(self):
        indexed = ProvenanceDatabase()
        scan = ProvenanceDatabase(equality_index_fields=(), range_index_fields=())
        durations = [0.0, 1.0, 0.0, float("nan"), 3.0, 1.0]
        for db in (indexed, scan):
            for i, d in enumerate(durations):
                db.insert({"task_id": f"t{i}", "duration": d})
        filt = {"duration": {"$lt": 3.0}}
        assert indexed.find(filt) == scan.find(filt)
        assert {d["task_id"] for d in indexed.find(filt)} == {"t0", "t1", "t2", "t5"}
        # NaN never satisfies a range operator on either path
        assert indexed.find({"duration": {"$gte": float("nan")}}) == []

    def test_unhashable_indexed_value_stays_findable(self):
        db = ProvenanceDatabase(equality_index_fields=("payload",))
        db.insert({"task_id": "t1", "payload": [1, 2]})
        db.insert({"task_id": "t2", "payload": "plain"})
        assert db.find({"payload": "plain"})[0]["task_id"] == "t2"
        # the unhashable doc lives in the overflow set and is verified
        assert db.find({"payload": {"$in": [[1, 2]]}})[0]["task_id"] == "t1"

    def test_unhashable_in_probe_falls_back_to_scan(self):
        # frozenset({1}) == {1}: a hashable stored value can equal an
        # unhashable probe, so the planner must not answer from the index
        db = ProvenanceDatabase(equality_index_fields=("payload",))
        db.insert({"task_id": "t1", "payload": frozenset({1})})
        assert db.find({"payload": {"$in": [{1}]}})[0]["task_id"] == "t1"
        assert db.explain({"payload": {"$in": [{1}]}})["strategy"] == "scan"

    def test_compiled_regex_pattern_accepted(self):
        import re

        db = ProvenanceDatabase()
        db.insert({"task_id": "t1", "status": "FINISHED"})
        got = db.find({"status": {"$regex": re.compile("fin", re.IGNORECASE)}})
        assert [d["task_id"] for d in got] == ["t1"]


# ---------------------------------------------------------------------------
# explain / plan selection
# ---------------------------------------------------------------------------


class TestExplain:
    @pytest.fixture
    def db(self):
        db = ProvenanceDatabase()
        db.insert_many(
            {
                "task_id": f"t{i}",
                "status": "FINISHED" if i % 2 else "FAILED",
                "workflow_id": f"w{i % 3}",
                "duration": float(i),
                "note": f"n{i}",
            }
            for i in range(30)
        )
        return db

    def test_defaults_are_declared(self):
        assert "task_id" in DEFAULT_EQUALITY_INDEX_FIELDS
        assert "duration" in DEFAULT_RANGE_INDEX_FIELDS

    def test_equality_uses_index(self, db):
        plan = db.explain({"status": "FAILED"})
        assert plan["strategy"] == "index"
        assert plan["access_paths"] == ["eq(status)"]
        assert plan["candidates"] == 15
        assert plan["total_docs"] == 30

    def test_most_selective_index_first(self, db):
        plan = db.explain({"status": "FINISHED", "task_id": "t3"})
        assert plan["strategy"] == "index"
        assert plan["access_paths"][0] == "eq(task_id)"
        assert plan["candidates"] == 1

    def test_range_uses_sorted_index(self, db):
        plan = db.explain({"duration": {"$gte": 25.0}})
        assert plan["strategy"] == "index"
        assert plan["access_paths"] == ["range(duration)"]
        assert plan["candidates"] == 5

    def test_or_of_indexable_branches(self, db):
        plan = db.explain({"$or": [{"status": "FAILED"}, {"workflow_id": "w1"}]})
        assert plan["strategy"] == "index"

    def test_regex_and_unindexed_fall_back_to_scan(self, db):
        assert db.explain({"note": "n3"})["strategy"] == "scan"
        assert db.explain({"note": {"$regex": "^n"}})["strategy"] == "scan"
        assert db.explain()["strategy"] == "scan"

    def test_validation_errors_raised_even_with_empty_candidates(self, db):
        with pytest.raises(DatabaseError):
            db.explain({"status": "NOPE", "duration": {"$frob": 1}})
        with pytest.raises(DatabaseError):
            db.find({"status": "NOPE", "duration": {"$frob": 1}})

    def test_disabled_indexes_always_scan(self):
        db = ProvenanceDatabase(equality_index_fields=(), range_index_fields=())
        db.insert({"task_id": "t1", "status": "FINISHED"})
        assert db.explain({"status": "FINISHED"})["strategy"] == "scan"
        assert db.find({"status": "FINISHED"})[0]["task_id"] == "t1"
