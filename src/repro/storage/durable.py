"""Durable, crash-recoverable provenance backend: WAL + snapshots.

Every other backend in this package lives in memory — a restart loses
all provenance, which rules out the production-scale service and the
multi-day interactive sessions the reference architecture targets.
:class:`DurableStore` adds durability *without* a new query engine: it
wraps the single-node :class:`~repro.storage.memory.ProvenanceDatabase`
(reads delegate to it untouched, so query semantics are identical by
construction) and makes the write path recoverable:

* **write-ahead log** — every mutating call is serialised to one
  CRC-framed record (``[u32 length][u32 crc32][json payload]``) and
  appended to the active segment *before* it is applied in memory.  A
  record's bytes reaching the file is what acknowledges the write;
  recovery replays exactly the acknowledged prefix and discards a torn
  tail (truncated or CRC-failing final record) instead of guessing;
* **segments** — the log rotates at ``segment_max_bytes`` into
  ``wal-<n>.log`` files, so recovery streams bounded files and
  compaction can drop whole segments at once;
* **snapshots** — :meth:`snapshot` (also triggered every
  ``snapshot_every_ops`` writes) writes the full store state to
  ``snap-<version>.tmp``, fsyncs, atomically renames to ``.snap``, and
  only then deletes the segments it covers.  A crash mid-snapshot
  leaves a ``.tmp`` (ignored) or a torn ``.snap`` (detected via its
  framed records + doc count and skipped); either way the previous
  snapshot + retained WAL still reconstruct the store;
* **fsync policy** — ``"always"`` fsyncs per record (power-loss safe),
  ``"rotate"`` (default) fsyncs on rotation/snapshot/close
  (process-crash safe; OS page cache covers a kill), ``"never"`` leaves
  flushing entirely to the OS;
* **versioning** — the store keeps its **own** monotonic
  :meth:`version` counter, stamped into every WAL record and snapshot.
  Recovery restores it to ``last persisted version + 1``: the ``+1``
  is a *recovery epoch bump*, which guarantees a version observed
  before a crash can never be observed again afterwards — cache
  entries (:class:`repro.query.QueryCache`) and gateway cursors minted
  pre-crash therefore miss / go ``CURSOR_STALE`` instead of silently
  pairing with a recovered store.

Documents must be JSON-representable (the provenance pipeline's
normalised messages are); a non-serialisable document raises
:class:`~repro.errors.DatabaseError` *before* anything is logged or
applied, so a rejected write is a complete no-op.  JSON's usual
canonicalisation applies: tuples come back as lists after recovery.

Sharded composition — "WAL file per shard" — goes the other way around:
:func:`open_durable_sharded` builds a
:class:`~repro.storage.sharded.ShardedProvenanceStore` whose shard
factory yields one ``DurableStore`` per shard directory, then calls
:meth:`~repro.storage.sharded.ShardedProvenanceStore.rebuild_routing`
to reconstruct the coordinator's key→shard table, stray tracking, and
global sequence counter from the recovered shard contents.  CRC
routing, scatter/gather, and global-order merging work unchanged
because each shard still speaks the full backend protocol.

All file mutations go through a :class:`FileOps` seam so the
crash-injection suite (``tests/storage/test_durability.py``) can kill
the store at every write boundary and prove the recovery contract
instead of asserting it.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from typing import Any, BinaryIO, Iterable, Mapping

from repro.errors import DatabaseError
from repro.storage.memory import (
    DEFAULT_EQUALITY_INDEX_FIELDS,
    DEFAULT_RANGE_INDEX_FIELDS,
    ProvenanceDatabase,
)
from repro.storage.sharded import DEFAULT_NUM_SHARDS, ShardedProvenanceStore

__all__ = [
    "DurableStore",
    "FileOps",
    "open_durable_sharded",
    "FSYNC_POLICIES",
    "DEFAULT_SEGMENT_MAX_BYTES",
]

#: Record framing: payload length + CRC-32 of the payload, big-endian.
_HEADER = struct.Struct(">II")

#: A record longer than this is treated as tail garbage, not allocated.
_MAX_RECORD = 1 << 31

#: Documents per snapshot chunk record (bounds peak record size).
_SNAP_CHUNK = 512

FSYNC_POLICIES = ("always", "rotate", "never")

DEFAULT_SEGMENT_MAX_BYTES = 64 * 1024 * 1024


class FileOps:
    """OS mutation seam for the durable store.

    Every filesystem *mutation* the store performs funnels through one
    of these methods, which is what lets the crash-injection harness
    substitute a fault-injecting subclass and simulate a kill at any
    write boundary.  Reads stay on plain ``open``: recovery runs after
    the simulated crash, on whatever bytes survived.
    """

    def open_append(self, path: str) -> BinaryIO:
        # unbuffered: one logical record == one write syscall, so the
        # bytes a crash can tear are exactly the bytes of one record
        return open(path, "ab", buffering=0)

    def open_create(self, path: str) -> BinaryIO:
        return open(path, "wb", buffering=0)

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        os.remove(path)

    def truncate(self, path: str, size: int) -> None:
        os.truncate(path, size)

    def fsync(self, fobj: BinaryIO) -> None:
        fobj.flush()
        os.fsync(fobj.fileno())

    def fsync_dir(self, path: str) -> None:
        """Persist directory entries (created/renamed/removed files)."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform without dir-open
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - fsync unsupported on dirs
            pass
        finally:
            os.close(fd)


def _frame(payload: bytes) -> bytes:
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _scan_records(data: bytes) -> tuple[list[bytes], int, bool]:
    """Parse framed records; returns ``(payloads, clean_offset, torn)``.

    ``clean_offset`` is the end of the last intact record; ``torn`` is
    True when trailing bytes exist that do not form one (truncated
    header, short payload, CRC mismatch, or implausible length — a
    zero-filled tail cannot masquerade as a record because an empty
    payload is below the minimum length).
    """
    records: list[bytes] = []
    off, n = 0, len(data)
    while off < n:
        if n - off < _HEADER.size:
            return records, off, True
        length, crc = _HEADER.unpack_from(data, off)
        if length < 2 or length > _MAX_RECORD or n - off - _HEADER.size < length:
            return records, off, True
        payload = bytes(data[off + _HEADER.size : off + _HEADER.size + length])
        if zlib.crc32(payload) != crc:
            return records, off, True
        records.append(payload)
        off += _HEADER.size + length
    return records, off, False


def _dumps(op: Mapping[str, Any]) -> bytes:
    try:
        return json.dumps(
            op, separators=(",", ":"), ensure_ascii=False, check_circular=False
        ).encode("utf-8")
    except (TypeError, ValueError, RecursionError) as exc:
        raise DatabaseError(
            f"durable store requires JSON-representable documents: {exc}"
        ) from exc


class DurableStore:
    """Crash-recoverable :class:`~repro.storage.backend.StorageBackend`.

    One instance owns one directory.  Writes serialise on one re-entrant
    lock (WAL order must equal apply order for recovery to reproduce the
    live store); reads delegate to the inner in-memory database, which
    is thread-safe on its own.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync: str = "rotate",
        segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
        snapshot_every_ops: int | None = None,
        equality_index_fields: Iterable[str] = DEFAULT_EQUALITY_INDEX_FIELDS,
        range_index_fields: Iterable[str] = DEFAULT_RANGE_INDEX_FIELDS,
        copy_docs: bool = True,
        file_ops: FileOps | None = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise DatabaseError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if segment_max_bytes < 1024:
            raise DatabaseError(
                f"segment_max_bytes must be >= 1024, got {segment_max_bytes}"
            )
        if snapshot_every_ops is not None and snapshot_every_ops < 1:
            raise DatabaseError(
                f"snapshot_every_ops must be >= 1, got {snapshot_every_ops}"
            )
        self.path = path
        self._fsync = fsync
        self._segment_max_bytes = segment_max_bytes
        self._snapshot_every = snapshot_every_ops
        self._files = file_ops if file_ops is not None else FileOps()
        self._inner = ProvenanceDatabase(
            equality_index_fields=equality_index_fields,
            range_index_fields=range_index_fields,
            copy_docs=copy_docs,
        )
        # re-entrant: the sharded coordinator stamps sequence numbers
        # under a held shard lock and then calls upsert through it
        self._lock = threading.RLock()
        self._closed = False
        self._ops_since_snapshot = 0
        self._seg_file: BinaryIO | None = None
        self._seg_index = 0
        self._seg_size = 0
        os.makedirs(path, exist_ok=True)
        self._version = self._recover()
        self._open_active_segment()

    # -- directory layout --------------------------------------------------------
    def _seg_path(self, index: int) -> str:
        return os.path.join(self.path, f"wal-{index:016d}.log")

    def _snap_path(self, version: int, tmp: bool = False) -> str:
        ext = "tmp" if tmp else "snap"
        return os.path.join(self.path, f"snap-{version:016d}.{ext}")

    def _list(self, prefix: str, suffix: str) -> list[tuple[int, str]]:
        out: list[tuple[int, str]] = []
        for name in os.listdir(self.path):
            if name.startswith(prefix) and name.endswith(suffix):
                stem = name[len(prefix) : -len(suffix)]
                try:
                    out.append((int(stem), os.path.join(self.path, name)))
                except ValueError:
                    continue
        out.sort()
        return out

    # -- recovery ----------------------------------------------------------------
    def _recover(self) -> int:
        """Rebuild the inner store from snapshot + WAL; returns version.

        The returned version is ``0`` for a brand-new directory and
        ``last persisted version + 1`` otherwise — the recovery epoch
        bump (see module docstring).
        """
        snaps = self._list("snap-", ".snap")
        segments = self._list("wal-", ".log")
        tmp_snaps = self._list("snap-", ".tmp")
        had_state = bool(snaps or segments or tmp_snaps)
        base_version = 0
        # newest snapshot that proves intact wins; a torn one (crash
        # while writing, before the atomic rename could even happen,
        # or a short rename-raced file) falls back to the previous
        for version, snap_path in reversed(snaps):
            state = self._load_snapshot(snap_path)
            if state is not None:
                docs, keys = state
                self._inner.import_state(docs, keys)
                base_version = version
                break
        last_version = base_version
        for pos, (index, seg_path) in enumerate(segments):
            with open(seg_path, "rb") as f:
                data = f.read()
            records, clean_off, torn = _scan_records(data)
            if torn and pos != len(segments) - 1:
                # a torn record can only ever be the tail of the final
                # segment (rotation closes segments at record edges);
                # anywhere else means real corruption, and replaying
                # past it could resurrect half a history
                raise DatabaseError(
                    f"corrupt WAL segment {seg_path!r}: "
                    f"bad record at offset {clean_off}"
                )
            for payload in records:
                try:
                    op = json.loads(payload)
                except ValueError as exc:
                    raise DatabaseError(
                        f"corrupt WAL record in {seg_path!r}: {exc}"
                    ) from exc
                v = op.get("v")
                if not isinstance(v, int):
                    raise DatabaseError(
                        f"corrupt WAL record in {seg_path!r}: missing version"
                    )
                if v <= base_version:
                    continue  # already folded into the snapshot
                self._apply(op)
                last_version = max(last_version, v)
            if torn:
                # drop the torn tail so future appends start at a clean
                # record boundary — the unacknowledged write stays dead
                # even if we crash again before the next snapshot
                self._files.truncate(seg_path, clean_off)
        self._cleanup(snaps, tmp_snaps, base_version)
        return last_version + 1 if had_state else 0

    def _cleanup(
        self,
        snaps: list[tuple[int, str]],
        tmp_snaps: list[tuple[int, str]],
        base_version: int,
    ) -> None:
        """Drop files a mid-compaction crash left behind (best effort)."""
        for _, path in tmp_snaps:
            self._try_remove(path)
        for version, path in snaps:
            if version < base_version:
                self._try_remove(path)

    def _try_remove(self, path: str) -> None:
        try:
            self._files.remove(path)
        except OSError:  # pragma: no cover - cleanup is best effort
            pass

    def _load_snapshot(
        self, path: str
    ) -> tuple[list[dict[str, Any]], dict[str, int]] | None:
        """Parse one snapshot file; None when torn/incomplete."""
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError:
            return None
        records, _, torn = _scan_records(data)
        if torn or not records:
            return None
        try:
            meta = json.loads(records[0])
            expected = meta["count"]
            docs: list[dict[str, Any]] = []
            keys: dict[str, int] = {}
            for payload in records[1:]:
                for key, doc in json.loads(payload)["docs"]:
                    if key is not None:
                        keys[key] = len(docs)
                    docs.append(doc)
        except (ValueError, KeyError, TypeError):
            return None
        if len(docs) != expected:
            return None  # crash mid-snapshot: chunks missing
        return docs, keys

    def _open_active_segment(self) -> None:
        segments = self._list("wal-", ".log")
        if segments:
            self._seg_index = segments[-1][0]
            self._seg_size = os.path.getsize(segments[-1][1])
        else:
            self._seg_index = 1
            self._seg_size = 0
        self._seg_file = self._files.open_append(self._seg_path(self._seg_index))

    # -- WAL write path ----------------------------------------------------------
    def _append(self, op: dict[str, Any]) -> None:
        """Serialise, maybe rotate, append, ack per fsync policy.

        Raises (and leaves every byte of state untouched) when the op
        cannot be serialised; after it returns, the op is acknowledged
        and recovery is guaranteed to replay it.
        """
        framed = _frame(_dumps(op))
        assert self._seg_file is not None
        if (
            self._seg_size
            and self._seg_size + len(framed) > self._segment_max_bytes
        ):
            self._rotate()
        self._seg_file.write(framed)
        self._seg_size += len(framed)
        if self._fsync == "always":
            self._files.fsync(self._seg_file)

    def _rotate(self) -> None:
        assert self._seg_file is not None
        if self._fsync != "never":
            self._files.fsync(self._seg_file)
        self._seg_file.close()
        self._seg_index += 1
        self._seg_size = 0
        self._seg_file = self._files.open_create(self._seg_path(self._seg_index))

    def _apply(self, op: Mapping[str, Any]) -> Any:
        """Apply one (logged or replayed) op to the inner store."""
        kind = op["op"]
        if kind == "um":
            return self._inner.upsert_many(op["d"], key_field=op["k"])
        if kind == "u":
            return self._inner.upsert(op["d"], key_field=op["k"])
        if kind == "i":
            return self._inner.insert(op["d"])
        if kind == "im":
            return self._inner.insert_many(op["d"])
        if kind == "clear":
            return self._inner.clear()
        raise DatabaseError(f"unknown WAL op {kind!r}")

    def _commit(self, op: dict[str, Any]) -> Any:
        """Log one op, apply it, maybe snapshot; lock held by caller."""
        if self._closed:
            raise DatabaseError(f"durable store at {self.path!r} is closed")
        op["v"] = self._version + 1
        self._append(op)
        self._version += 1
        result = self._apply(op)
        self._ops_since_snapshot += 1
        if (
            self._snapshot_every is not None
            and self._ops_since_snapshot >= self._snapshot_every
        ):
            self.snapshot()
        return result

    # -- writes ------------------------------------------------------------------
    def insert(self, doc: Mapping[str, Any]) -> None:
        with self._lock:
            self._commit({"op": "i", "d": dict(doc)})

    def insert_many(self, docs: Iterable[Mapping[str, Any]]) -> int:
        batch = [dict(d) for d in docs]
        if not batch:
            return 0  # no contents change: no log record, no version bump
        with self._lock:
            return self._commit({"op": "im", "d": batch})

    def upsert(self, doc: Mapping[str, Any], key_field: str = "task_id") -> bool:
        # the key check must fail BEFORE logging: a record that raises
        # on replay would poison every future recovery
        if doc.get(key_field) is None:
            raise DatabaseError(f"upsert requires {key_field!r} in the document")
        with self._lock:
            return self._commit({"op": "u", "k": key_field, "d": dict(doc)})

    def upsert_many(
        self, docs: Iterable[Mapping[str, Any]], key_field: str = "task_id"
    ) -> int:
        batch = [dict(d) for d in docs]
        for d in batch:
            if d.get(key_field) is None:
                raise DatabaseError(
                    f"upsert requires {key_field!r} in the document"
                )
        if not batch:
            return 0
        with self._lock:
            return self._commit({"op": "um", "k": key_field, "d": batch})

    def clear(self) -> None:
        with self._lock:
            self._commit({"op": "clear"})

    # -- maintenance -------------------------------------------------------------
    def snapshot(self) -> str:
        """Compact: persist full state, then drop the WAL it covers.

        Returns the snapshot path.  Crash-safe at every step: the
        snapshot becomes visible only via atomic rename, and segments
        are deleted only after the rename (plus directory fsync) made
        it durable — recovery skips WAL records the snapshot already
        covers, so the overlap window is harmless.
        """
        with self._lock:
            if self._closed:
                raise DatabaseError(f"durable store at {self.path!r} is closed")
            docs, keys = self._inner.export_state()
            version = self._version
            by_index: dict[int, str] = {idx: k for k, idx in keys.items()}
            tmp = self._snap_path(version, tmp=True)
            final = self._snap_path(version)
            f = self._files.open_create(tmp)
            try:
                f.write(_frame(_dumps({"version": version, "count": len(docs)})))
                for start in range(0, len(docs), _SNAP_CHUNK):
                    chunk = [
                        [by_index.get(i), docs[i]]
                        for i in range(start, min(start + _SNAP_CHUNK, len(docs)))
                    ]
                    f.write(_frame(_dumps({"docs": chunk})))
                if self._fsync != "never":
                    self._files.fsync(f)
            finally:
                f.close()
            self._files.replace(tmp, final)
            if self._fsync != "never":
                self._files.fsync_dir(self.path)
            # everything at or below `version` now lives in the
            # snapshot: rotate to a fresh segment and drop the old ones
            old_segments = self._list("wal-", ".log")
            self._rotate()
            for _, seg_path in old_segments:
                self._try_remove(seg_path)
            for snap_version, snap_path in self._list("snap-", ".snap"):
                if snap_version < version:
                    self._try_remove(snap_path)
            self._ops_since_snapshot = 0
            return final

    def close(self) -> None:
        """Flush and close the active segment (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._seg_file is not None:
                if self._fsync != "never":
                    try:
                        self._files.fsync(self._seg_file)
                    except OSError:  # pragma: no cover - close is best effort
                        pass
                self._seg_file.close()
                self._seg_file = None

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- reads (delegated) --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._inner)

    def all(self) -> list[dict[str, Any]]:
        return self._inner.all()

    def find(
        self,
        filt: Mapping[str, Any] | None = None,
        *,
        sort: list[tuple[str, int]] | None = None,
        limit: int | None = None,
        projection: list[str] | None = None,
    ) -> list[dict[str, Any]]:
        return self._inner.find(filt, sort=sort, limit=limit, projection=projection)

    def find_one(self, filt: Mapping[str, Any] | None = None) -> dict[str, Any] | None:
        return self._inner.find_one(filt)

    def count(self, filt: Mapping[str, Any] | None = None) -> int:
        return self._inner.count(filt)

    def distinct(self, path: str, filt: Mapping[str, Any] | None = None) -> list[Any]:
        return self._inner.distinct(path, filt)

    def field_counts(
        self, path: str, filt: Mapping[str, Any] | None = None
    ) -> dict[Any, int]:
        return self._inner.field_counts(path, filt)

    def execute_partial(self, plan: Any) -> list[Any]:
        """Delegated pushdown execution — reads live in the inner store."""
        return self._inner.execute_partial(plan)

    def export_state(self) -> tuple[list[dict[str, Any]], dict[str, int]]:
        """Delegated state export (snapshots, sharded routing rebuild)."""
        return self._inner.export_state()

    def explain(self, filt: Mapping[str, Any] | None = None) -> dict[str, Any]:
        plan = dict(self._inner.explain(filt), backend="durable")
        with self._lock:
            plan["wal"] = {
                "path": self.path,
                "segment": self._seg_index,
                "segment_bytes": self._seg_size,
                "fsync": self._fsync,
            }
        return plan

    def version(self) -> int:
        """Monotonic write stamp, durable across restarts.

        Persisted in every WAL record and snapshot; recovery restores
        it past the last acknowledged write (never back to 0) and adds
        a recovery epoch bump so pre-crash observations cannot recur.
        """
        with self._lock:
            return self._version


def open_durable_sharded(
    path: str,
    num_shards: int = DEFAULT_NUM_SHARDS,
    **durable_kwargs: Any,
) -> ShardedProvenanceStore:
    """A sharded store whose shards are durable — one WAL per shard.

    Each shard recovers its own segment/snapshot directory
    (``<path>/shard-NN``), then the coordinator's routing state (key →
    home shard, stray tracking, global sequence counter) is rebuilt
    from the recovered contents, so CRC routing, scatter/gather, and
    global-order merging behave exactly as before the restart.
    Keyword arguments are passed through to every :class:`DurableStore`.
    """
    store = ShardedProvenanceStore(
        num_shards,
        shard_factory=lambda i: DurableStore(
            os.path.join(path, f"shard-{i:02d}"),
            # the coordinator hands each shard a fresh stamped copy
            copy_docs=False,
            **durable_kwargs,
        ),
    )
    store.rebuild_routing()
    return store
