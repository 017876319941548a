"""Randomized parity: ShardedProvenanceStore == single-node reference.

The sharded store's contract is that routing, per-shard execution, and
coordinator merging are pure accelerators: for any stream of upserts
(including re-deliveries that change ``workflow_id``) and any filter /
sort / limit / aggregation the store supports, results are *identical*
to a single :class:`ProvenanceDatabase` fed the same stream.  Hypothesis
drives randomized streams and query shapes to hammer that invariant.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.storage import ProvenanceDatabase, ShardedProvenanceStore

_WORKFLOWS = ["w0", "w1", "w2", "w3", "w4", None]
_STATUSES = ["FINISHED", "FAILED", "RUNNING", None]
_TASK_IDS = [f"t{i}" for i in range(12)]


@st.composite
def doc_streams(draw):
    n = draw(st.integers(1, 30))
    docs = []
    for _ in range(n):
        doc = {
            "type": "task",
            "task_id": draw(st.sampled_from(_TASK_IDS)),
            "workflow_id": draw(st.sampled_from(_WORKFLOWS)),
            "status": draw(st.sampled_from(_STATUSES)),
            "activity_id": draw(st.sampled_from(["a", "b", None])),
            "started_at": draw(
                st.one_of(
                    st.none(),
                    st.integers(0, 50),
                    st.floats(0, 50, allow_nan=False),
                    st.sampled_from(["early", "late"]),  # mixed-type sorts
                )
            ),
            "duration": draw(st.one_of(st.none(), st.floats(0, 9, allow_nan=False))),
            "generated": {"y": draw(st.integers(0, 5))},
        }
        if doc["workflow_id"] is None:
            del doc["workflow_id"]  # field genuinely absent, not null
        docs.append(doc)
    return docs


_filters = st.sampled_from(
    [
        {},
        {"workflow_id": "w1"},
        {"workflow_id": "w-none"},
        {"workflow_id": {"$in": ["w0", "w3"]}},
        {"workflow_id": {"$in": []}},
        {"status": "FINISHED"},
        {"workflow_id": "w2", "status": {"$ne": "FAILED"}},
        {"$or": [{"workflow_id": "w0"}, {"workflow_id": "w4"}]},
        {"$or": [{"workflow_id": "w1"}, {"status": "FAILED"}]},
        {"$and": [{"workflow_id": {"$in": ["w0", "w1", "w2"]}}, {"duration": {"$gt": 2.0}}]},
        {"started_at": {"$gte": 10, "$lt": 40}},
        {"workflow_id": {"$exists": True}},
        {"task_id": {"$regex": "t[0-3]$"}},
    ]
)

_sorts = st.sampled_from(
    [
        None,
        [("started_at", 1)],
        [("started_at", -1)],
        [("workflow_id", 1), ("started_at", -1)],
        [("duration", 1), ("task_id", 1)],
    ]
)

_limits = st.sampled_from([None, 0, 1, 3, 100])


def _mirror(stream, num_shards):
    single = ProvenanceDatabase()
    sharded = ShardedProvenanceStore(num_shards)
    for doc in stream:
        single.upsert(doc)
        sharded.upsert(doc)
    return single, sharded


@settings(max_examples=120, deadline=None)
@given(
    stream=doc_streams(),
    num_shards=st.sampled_from([1, 2, 4]),
    filt=_filters,
    sort=_sorts,
    limit=_limits,
)
def test_find_parity(stream, num_shards, filt, sort, limit):
    single, sharded = _mirror(stream, num_shards)
    assert sharded.find(filt, sort=sort, limit=limit) == single.find(
        filt, sort=sort, limit=limit
    )


@settings(max_examples=60, deadline=None)
@given(stream=doc_streams(), num_shards=st.sampled_from([2, 4]), filt=_filters)
def test_count_and_tallies_parity(stream, num_shards, filt):
    single, sharded = _mirror(stream, num_shards)
    assert sharded.count(filt) == single.count(filt)
    assert set(sharded.distinct("workflow_id", filt)) == set(
        single.distinct("workflow_id", filt)
    )
    assert sharded.field_counts("status", filt) == single.field_counts(
        "status", filt
    )


@settings(max_examples=60, deadline=None)
@given(stream=doc_streams(), num_shards=st.sampled_from([2, 4]))
def test_explain_candidates_cover_matches(stream, num_shards):
    """Routing must never prune a shard that holds a match."""
    single, sharded = _mirror(stream, num_shards)
    for wf in ("w0", "w1", "w2", "w3", "w4"):
        filt = {"workflow_id": wf}
        plan = sharded.explain(filt)
        assert plan["candidates"] >= single.count(filt)
        assert sharded.find(filt) == single.find(filt)
