"""Randomized parity: DurableStore (± reopen cycles) == memory reference.

Same contract style as ``test_sharded_parity.py``: durability is a pure
accelerator-of-nothing — WAL framing, segment rotation, snapshot
compaction, and cold-start recovery must never change a query result.
Hypothesis drives randomized op streams with **reopen events
interleaved**, so every example may cross several crash-free restart
boundaries (the crash-ful ones live in ``test_durability.py``), and
every supported read — find/sort/limit, count, distinct, field_counts
— must match a single in-memory :class:`ProvenanceDatabase` fed the
same stream.

Documents are JSON-clean by construction (the durable store's contract;
the provenance pipeline's normalised messages always are).
"""

from __future__ import annotations

import shutil
import tempfile

from hypothesis import given, settings, strategies as st

from repro.storage import DurableStore, ProvenanceDatabase, open_durable_sharded
from repro.storage.durable import FSYNC_POLICIES

_WORKFLOWS = ["w0", "w1", "w2", "w3", "w4", None]
_STATUSES = ["FINISHED", "FAILED", "RUNNING", None]
_TASK_IDS = [f"t{i}" for i in range(12)]

#: aggressive geometry so even short streams cross rotations/snapshots
_GEOMETRY = dict(segment_max_bytes=1024, snapshot_every_ops=5, fsync="never")

_fsync_policies = st.sampled_from(FSYNC_POLICIES)


@st.composite
def op_streams(draw):
    """Upserts, batch upserts, keyless inserts, clears — and reopens."""
    n = draw(st.integers(1, 30))
    ops = []
    for _ in range(n):
        kind = draw(
            st.sampled_from(
                ["upsert", "upsert", "upsert", "upsert_many", "insert", "clear", "reopen", "reopen"]
            )
        )
        if kind == "upsert":
            ops.append(("upsert", draw(_docs())))
        elif kind == "upsert_many":
            ops.append(("upsert_many", draw(st.lists(_docs(), max_size=4))))
        elif kind == "insert":
            ops.append(("insert", {"type": "note", "n": draw(st.integers(0, 9))}))
        else:
            ops.append((kind, None))
    return ops


@st.composite
def _docs(draw):
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
    return doc


_filters = st.sampled_from(
    [
        {},
        {"workflow_id": "w1"},
        {"workflow_id": {"$in": ["w0", "w3"]}},
        {"status": "FINISHED"},
        {"workflow_id": "w2", "status": {"$ne": "FAILED"}},
        {"$or": [{"workflow_id": "w1"}, {"status": "FAILED"}]},
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


def _replay(path, ops, opener):
    """Run the stream against (durable-on-disk, in-memory reference)."""
    reference = ProvenanceDatabase()
    durable = opener(path)
    for kind, arg in ops:
        if kind == "reopen":
            durable.close()
            durable = opener(path)
            continue
        if kind == "upsert":
            reference.upsert(arg)
            durable.upsert(arg)
        elif kind == "upsert_many":
            reference.upsert_many(arg)
            durable.upsert_many(arg)
        elif kind == "insert":
            reference.insert(arg)
            durable.insert(arg)
        else:
            reference.clear()
            durable.clear()
    return reference, durable


def _check_all_reads(durable, reference, filt, sort, limit):
    assert durable.find(filt, sort=sort, limit=limit) == reference.find(
        filt, sort=sort, limit=limit
    )
    assert durable.count(filt) == reference.count(filt)
    assert set(durable.distinct("workflow_id", filt)) == set(
        reference.distinct("workflow_id", filt)
    )
    assert durable.field_counts("status", filt) == reference.field_counts(
        "status", filt
    )
    assert len(durable) == len(reference)


@settings(max_examples=50, deadline=None)
@given(
    ops=op_streams(), filt=_filters, sort=_sorts, limit=_limits, fsync=_fsync_policies
)
def test_durable_parity_across_reopen_cycles(ops, filt, sort, limit, fsync):
    """When a record is fsynced changes what a power cut can take, never
    what a clean reopen finds: every policy recovers the same contents."""
    tmp = tempfile.mkdtemp(prefix="durable-parity-")
    durable = None
    try:
        reference, durable = _replay(
            tmp, ops, lambda p: DurableStore(p, **{**_GEOMETRY, "fsync": fsync})
        )
        _check_all_reads(durable, reference, filt, sort, limit)
        # one final cold start over everything the stream produced
        durable.close()
        durable = DurableStore(tmp)
        _check_all_reads(durable, reference, filt, sort, limit)
    finally:
        if durable is not None:
            durable.close()
        shutil.rmtree(tmp)


@settings(max_examples=30, deadline=None)
@given(
    ops=op_streams(),
    num_shards=st.sampled_from([1, 3]),
    filt=_filters,
    sort=_sorts,
)
def test_durable_sharded_parity_across_reopen_cycles(ops, num_shards, filt, sort):
    """open_durable_sharded: recovery must also rebuild coordinator state.

    Reopen cycles here exercise :meth:`rebuild_routing` — key→home-shard
    stripes, stray tracking for re-deliveries that changed
    ``workflow_id``, and the global sequence counter all come back from
    the recovered shard contents, or global ordering and targeted
    routing would silently drift from the reference.
    """
    tmp = tempfile.mkdtemp(prefix="durable-sharded-parity-")
    store = None

    def opener(path):
        return open_durable_sharded(path, num_shards, **_GEOMETRY)

    try:
        reference, store = _replay(tmp, ops, opener)
        _check_all_reads(store, reference, filt, sort, None)
        # targeted single-workflow routing after however many reopens
        for wf in ("w0", "w2", "w4"):
            wf_filt = {"workflow_id": wf}
            assert store.find(wf_filt) == reference.find(wf_filt)
            assert store.explain(wf_filt)["candidates"] >= reference.count(wf_filt)
        store.close()
        store = opener(tmp)
        _check_all_reads(store, reference, filt, sort, None)
    finally:
        if store is not None:
            store.close()
        shutil.rmtree(tmp)
