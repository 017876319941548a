"""Crash-injection matrix: recovery == the acknowledged prefix, always.

The durable store's contract is behavioural, so it is proven by
simulated kills rather than asserted: every filesystem mutation the
store performs (record appends — including *partial* appends that tear
a record mid-bytes — segment creation, snapshot rename, segment
deletion) is a crash point, and for **every** one of them recovery must
yield a store whose query results are parity-identical to an in-memory
reference holding exactly the acknowledged op prefix.

Mechanics: a recording :class:`FileOps` first replays the scripted op
sequence uncrashed and logs every mutation event.  The matrix then
re-runs the sequence once per crash point with a fault-injecting
subclass that performs mutations verbatim until the chosen event, where
it either refuses the operation outright or writes only a prefix of the
bytes — and raises :class:`SimulatedCrash` either way.  The op that was
in flight was never acknowledged, so recovery may legitimately surface
it (its bytes may have fully landed before the simulated kill) or drop
it (torn) — but never half-apply it, never lose an *acknowledged* op,
and never resurrect a torn one.

The scripted sequence is arranged (tiny segments, aggressive snapshot
cadence) so the event stream necessarily contains segment rotations,
snapshot writes, the atomic snapshot rename, and post-snapshot segment
deletions — the "crash mid-rotation" and "partial snapshot" cases fall
out of the same matrix instead of needing bespoke scenarios.
"""

from __future__ import annotations

import os
from typing import Any, BinaryIO

import pytest

from repro.storage import DurableStore, ProvenanceDatabase
from repro.storage.durable import FileOps


class SimulatedCrash(Exception):
    """The injected kill; escapes the store and aborts the run."""


# ---------------------------------------------------------------------------
# fault-injecting FileOps
# ---------------------------------------------------------------------------


class RecordingOps(FileOps):
    """Logs every mutation event: ("write", nbytes) / ("create", path) / ..."""

    def __init__(self) -> None:
        self.events: list[tuple[str, Any]] = []

    def open_append(self, path: str) -> BinaryIO:
        self.events.append(("append", os.path.basename(path)))
        return _TapFile(super().open_append(path), self)

    def open_create(self, path: str) -> BinaryIO:
        self.events.append(("create", os.path.basename(path)))
        return _TapFile(super().open_create(path), self)

    def replace(self, src: str, dst: str) -> None:
        self.events.append(("replace", os.path.basename(dst)))
        super().replace(src, dst)

    def remove(self, path: str) -> None:
        self.events.append(("remove", os.path.basename(path)))
        super().remove(path)

    def on_write(self, n: int) -> None:
        self.events.append(("write", n))


class _TapFile:
    """File proxy reporting write sizes back to its ops object."""

    def __init__(self, real: BinaryIO, ops: "RecordingOps") -> None:
        self._real = real
        self._ops = ops

    def write(self, data: bytes) -> int:
        self._ops.on_write(len(data))
        return self._real.write(data)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)


class CrashingOps(FileOps):
    """Performs mutations verbatim until event ``crash_at``, then kills.

    ``partial_bytes`` applies only when the fatal event is a write: that
    many bytes land before the kill, modelling a torn record (0 bytes,
    1 byte, half a record, all-but-one — the matrix sweeps them).  For
    non-write events the operation simply never happens, modelling a
    kill between syscalls.
    """

    def __init__(self, crash_at: int, partial_bytes: int | None = None) -> None:
        self._countdown = crash_at
        self._partial = partial_bytes

    def _tick(self) -> None:
        if self._countdown <= 0:
            raise SimulatedCrash(f"injected kill (partial={self._partial})")
        self._countdown -= 1

    def open_append(self, path: str) -> BinaryIO:
        self._tick()
        return _CrashFile(super().open_append(path), self)

    def open_create(self, path: str) -> BinaryIO:
        self._tick()
        return _CrashFile(super().open_create(path), self)

    def replace(self, src: str, dst: str) -> None:
        self._tick()
        super().replace(src, dst)

    def remove(self, path: str) -> None:
        self._tick()
        super().remove(path)

    def on_write(self, file: BinaryIO, data: bytes) -> bytes | None:
        """Full data to land, or None when this write is the kill."""
        if self._countdown <= 0:
            if self._partial:
                file.write(data[: self._partial])
            return None
        self._countdown -= 1
        return data


class _CrashFile:
    def __init__(self, real: BinaryIO, ops: "CrashingOps") -> None:
        self._real = real
        self._ops = ops

    def write(self, data: bytes) -> int:
        allowed = self._ops.on_write(self._real, data)
        if allowed is None:
            raise SimulatedCrash("injected kill mid-write")
        return self._real.write(allowed)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)


# ---------------------------------------------------------------------------
# the scripted op sequence
# ---------------------------------------------------------------------------


def _doc(i: int, **extra: Any) -> dict[str, Any]:
    return dict(
        {
            "type": "task",
            "task_id": f"t{i}",
            "workflow_id": f"wf-{i % 3}",
            "activity_id": f"a{i % 2}",
            "status": "RUNNING",
            "started_at": 100.0 + i,
            "used": {"x": i},
            "generated": {},
        },
        **extra,
    )


def _script() -> list[tuple[str, Any]]:
    """Upserts, lifecycle re-deliveries, batches, inserts, and a clear.

    Small but adversarial: re-deliveries exercise the merge path (a
    recovered store must merge, not duplicate), the late ``clear``
    proves a logged wipe replays, and the tail writes after it prove
    the log keeps working past one.
    """
    ops: list[tuple[str, Any]] = []
    for i in range(6):
        ops.append(("upsert", _doc(i)))
    ops.append(
        (
            "upsert_many",
            [
                _doc(i, status="FINISHED", ended_at=200.0 + i, duration=2.0)
                for i in range(0, 6, 2)
            ],
        )
    )
    ops.append(("insert", {"type": "note", "msg": "keyless-a"}))
    ops.append(("upsert", _doc(6)))
    ops.append(("insert_many", [{"type": "note", "msg": f"k{i}"} for i in range(3)]))
    ops.append(("upsert", _doc(1, status="FAILED", workflow_id="wf-moved")))
    for i in range(7, 10):
        ops.append(("upsert", _doc(i)))
    ops.append(("clear", None))
    for i in range(10, 14):
        ops.append(("upsert", _doc(i)))
    ops.append(
        ("upsert_many", [_doc(i, status="FINISHED") for i in range(10, 14)])
    )
    return ops


def _apply_op(store: Any, op: tuple[str, Any]) -> None:
    kind, arg = op
    if kind == "upsert":
        store.upsert(arg)
    elif kind == "upsert_many":
        store.upsert_many(arg)
    elif kind == "insert":
        store.insert(arg)
    elif kind == "insert_many":
        store.insert_many(arg)
    else:
        store.clear()


def _reference(ops: list[tuple[str, Any]]) -> ProvenanceDatabase:
    ref = ProvenanceDatabase()
    for op in ops:
        _apply_op(ref, op)
    return ref


#: store geometry: segments rotate every ~600 bytes and a snapshot runs
#: every 7 ops, so the scripted run crosses several rotations and at
#: least two full snapshot+compaction cycles
_GEOMETRY = dict(segment_max_bytes=1024, snapshot_every_ops=7, fsync="never")


def _run_until_crash(
    path: str, ops: list[tuple[str, Any]], file_ops: FileOps
) -> list[tuple[str, Any]]:
    """Apply ops until the injected kill; returns the acknowledged ones."""
    acked: list[tuple[str, Any]] = []
    try:
        store = DurableStore(path, file_ops=file_ops, **_GEOMETRY)
    except SimulatedCrash:
        return acked
    try:
        for op in ops:
            _apply_op(store, op)
            acked.append(op)
    except SimulatedCrash:
        pass
    return acked


def _assert_parity(recovered: DurableStore, reference: ProvenanceDatabase) -> None:
    """Query-level equivalence, not just document-count equivalence."""
    assert recovered.find({}) == reference.find({})
    assert recovered.find(
        {"status": "FINISHED"}, sort=[("started_at", -1)], limit=5
    ) == reference.find({"status": "FINISHED"}, sort=[("started_at", -1)], limit=5)
    assert recovered.count({"workflow_id": "wf-1"}) == reference.count(
        {"workflow_id": "wf-1"}
    )
    assert recovered.distinct("workflow_id") == reference.distinct("workflow_id")


def _crash_points() -> list[tuple[int, int | None]]:
    """Every mutation event, with sub-write tear offsets for writes."""
    recorder = RecordingOps()
    tmp_ops = _script()
    import tempfile, shutil

    tmp = tempfile.mkdtemp(prefix="durable-record-")
    try:
        store = DurableStore(tmp, file_ops=recorder, **_GEOMETRY)
        for op in tmp_ops:
            _apply_op(store, op)
        store.close()
    finally:
        shutil.rmtree(tmp)
    points: list[tuple[int, int | None]] = []
    for idx, (kind, detail) in enumerate(recorder.events):
        points.append((idx, None))  # kill just before the event
        if kind == "write":
            size = int(detail)
            for cut in {1, size // 2, size - 1}:
                if 0 < cut < size:
                    points.append((idx, cut))  # kill mid-write: torn bytes
    return points


_POINTS = _crash_points()


def test_matrix_covers_rotation_and_snapshot_machinery():
    """The geometry really produces the events the matrix must cover."""
    recorder = RecordingOps()
    import tempfile, shutil

    tmp = tempfile.mkdtemp(prefix="durable-events-")
    try:
        store = DurableStore(tmp, file_ops=recorder, **_GEOMETRY)
        for op in _script():
            _apply_op(store, op)
        store.close()
    finally:
        shutil.rmtree(tmp)
    kinds = {kind for kind, _ in recorder.events}
    assert kinds == {"append", "create", "write", "replace", "remove"}
    renames = [d for k, d in recorder.events if k == "replace"]
    assert any(d.endswith(".snap") for d in renames), "no snapshot in script"
    creates = [d for k, d in recorder.events if k == "create"]
    assert sum(d.endswith(".log") for d in creates) >= 2, "no rotation in script"
    assert len(_POINTS) > 100, "matrix unexpectedly small"


@pytest.mark.parametrize("crash_at,partial", _POINTS)
def test_recovery_after_kill_at_every_write_boundary(tmp_path, crash_at, partial):
    path = str(tmp_path / "store")
    ops = _script()
    acked = _run_until_crash(path, ops, CrashingOps(crash_at, partial))
    assert len(acked) < len(ops), "crash point beyond the scripted run"

    recovered = DurableStore(path)  # plain FileOps: recovery is never faulty
    try:
        acked_ref = _reference(acked)
        if recovered.find({}) == acked_ref.find({}):
            _assert_parity(recovered, acked_ref)
        else:
            # the in-flight op's bytes may have fully landed before the
            # kill (e.g. the crash hit the snapshot that followed it) —
            # it was unacknowledged, so surfacing it whole is legal;
            # surfacing anything else is not
            in_flight_ref = _reference(acked + ops[len(acked) : len(acked) + 1])
            _assert_parity(recovered, in_flight_ref)

        # an acknowledged write is never lost: versions keep moving
        # forward, and the store still accepts writes
        post = _doc(99, status="POST-RECOVERY")
        v_before = recovered.version()
        recovered.upsert(post)
        assert recovered.version() > v_before
        assert recovered.find_one({"task_id": "t99"})["status"] == "POST-RECOVERY"
    finally:
        recovered.close()

    # double-crash robustness: recovery truncated any torn tail, so a
    # second cold start must see a clean log and identical contents
    again = DurableStore(path)
    try:
        assert again.find_one({"task_id": "t99"}) is not None
        assert again.version() > 0
    finally:
        again.close()


# ---------------------------------------------------------------------------
# targeted edges the matrix cannot hit from the outside
# ---------------------------------------------------------------------------


def test_torn_tail_is_discarded_and_acked_prefix_survives(tmp_path):
    """Byte-level truncation of the final record == classic torn write."""
    path = str(tmp_path / "store")
    store = DurableStore(path, fsync="never")
    for i in range(8):
        store.upsert(_doc(i))
    store.close()
    (seg,) = [p for p in os.listdir(path) if p.endswith(".log")]
    seg_path = os.path.join(path, seg)
    size = os.path.getsize(seg_path)
    for cut in (size - 1, size - 7, size // 2 + 3):
        with open(seg_path, "rb") as f:
            data = f.read()
        with open(seg_path, "wb") as f:
            f.write(data[:cut])
        recovered = DurableStore(path)
        try:
            # some acked suffix is gone (we mutilated the file), but
            # what remains must be a clean *prefix* of the history —
            # never a half-applied document
            docs = recovered.find({}, sort=[("task_id", 1)])
            ids = [d["task_id"] for d in docs]
            assert ids == [f"t{i}" for i in range(len(ids))]
            for d in docs:
                assert d["status"] == "RUNNING" and "used" in d
        finally:
            recovered.close()
        # restore for the next cut
        with open(seg_path, "wb") as f:
            f.write(data)


def test_zero_filled_tail_is_not_a_record(tmp_path):
    """A sparse/zeroed tail must read as torn, not as an empty record."""
    path = str(tmp_path / "store")
    store = DurableStore(path, fsync="never")
    store.upsert(_doc(0))
    store.close()
    (seg,) = [p for p in os.listdir(path) if p.endswith(".log")]
    with open(os.path.join(path, seg), "ab") as f:
        f.write(b"\x00" * 64)
    recovered = DurableStore(path)
    try:
        assert len(recovered) == 1
        recovered.upsert(_doc(1))
        assert len(recovered) == 2
    finally:
        recovered.close()
    again = DurableStore(path)
    try:
        assert len(again) == 2  # the post-truncation append replays clean
    finally:
        again.close()


def test_partial_snapshot_falls_back_to_wal(tmp_path):
    """A torn .snap (or leftover .tmp) must not shadow the real history."""
    path = str(tmp_path / "store")
    store = DurableStore(path, fsync="never")
    for i in range(10):
        store.upsert(_doc(i))
    snap_path = store.snapshot()
    for i in range(10, 14):
        store.upsert(_doc(i))
    store.close()
    reference = _reference([("upsert", _doc(i)) for i in range(14)])

    # 1) leftover .tmp from a crash before rename: ignored + cleaned up
    tmp_snap = os.path.join(path, "snap-9999999999999999.tmp")
    with open(tmp_snap, "wb") as f:
        f.write(b"half a snapshot")
    recovered = DurableStore(path)
    try:
        _assert_parity(recovered, reference)
    finally:
        recovered.close()
    assert not os.path.exists(tmp_snap)

    # 2) the latest snapshot itself torn: recovery must not trust it.
    # All pre-snapshot WAL segments were compacted away, so the torn
    # snapshot costs those documents — but the store must come up
    # consistent, never half-load: losing a *prefix* silently would be
    # corruption, so it must refuse nothing while keeping post-snapshot
    # writes (their WAL survived) replayable on an empty base.
    with open(snap_path, "rb") as f:
        snap_bytes = f.read()
    with open(snap_path, "wb") as f:
        f.write(snap_bytes[: len(snap_bytes) // 2])
    recovered = DurableStore(path)
    try:
        ids = {d["task_id"] for d in recovered.find({})}
        assert ids == {f"t{i}" for i in range(10, 14)}
        for d in recovered.find({}):  # each survivor is whole
            assert d["status"] == "RUNNING" and d["used"] == {"x": int(d["task_id"][1:])}
    finally:
        recovered.close()


def test_corrupt_mid_segment_record_is_an_error_not_a_guess(tmp_path):
    """Bit-rot *inside* the history must refuse loudly, not replay past.

    A torn record is only legal as the tail of the *final* segment —
    that is the crash model (one in-flight append).  A bad record in an
    earlier segment is real corruption, and replaying the segments
    after it would resurrect history with a hole in the middle, so
    recovery must raise instead.
    """
    from repro.errors import DatabaseError

    path = str(tmp_path / "store")
    store = DurableStore(path, fsync="never", segment_max_bytes=1024)
    for i in range(30):
        store.upsert(_doc(i))
    store.close()
    segs = sorted(p for p in os.listdir(path) if p.endswith(".log"))
    assert len(segs) >= 2, "geometry failed to rotate"
    first = os.path.join(path, segs[0])
    data = bytearray(open(first, "rb").read())
    data[len(data) // 2] ^= 0xFF  # flip one bit mid-history
    with open(first, "wb") as f:
        f.write(bytes(data))
    with pytest.raises(DatabaseError, match="corrupt WAL segment"):
        DurableStore(path)

    # the same damage in the FINAL segment reads as a torn tail (that
    # is exactly what a crash produces): clean prefix survives
    path2 = str(tmp_path / "store2")
    store = DurableStore(path2, fsync="never")
    for i in range(6):
        store.upsert(_doc(i))
    store.close()
    (seg,) = [p for p in os.listdir(path2) if p.endswith(".log")]
    seg_path = os.path.join(path2, seg)
    data = bytearray(open(seg_path, "rb").read())
    data[len(data) // 3] ^= 0xFF
    with open(seg_path, "wb") as f:
        f.write(bytes(data))
    recovered = DurableStore(path2)
    try:
        ids = [d["task_id"] for d in recovered.find({})]
        assert ids == [f"t{i}" for i in range(len(ids))] and len(ids) < 6
    finally:
        recovered.close()


def test_crash_between_snapshot_rename_and_segment_delete(tmp_path):
    """Snapshot + stale WAL overlap: records <= snap version replay once."""
    path = str(tmp_path / "store")

    class NoRemoveOps(FileOps):
        def remove(self, p: str) -> None:
            raise SimulatedCrash("kill before compaction delete")

    store = DurableStore(path, fsync="never", file_ops=NoRemoveOps())
    for i in range(9):
        store.upsert(_doc(i))
    with pytest.raises(SimulatedCrash):
        store.snapshot()
    # snapshot renamed durably, old segments still on disk
    assert any(p.endswith(".snap") for p in os.listdir(path))
    assert any(p.endswith(".log") for p in os.listdir(path))
    recovered = DurableStore(path)
    try:
        _assert_parity(recovered, _reference([("upsert", _doc(i)) for i in range(9)]))
        # no double-application: 9 distinct tasks, one doc each
        assert len(recovered) == 9
    finally:
        recovered.close()
