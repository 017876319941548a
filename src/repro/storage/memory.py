"""Single-node in-memory provenance backend with secondary indexes.

This is the reference :class:`repro.storage.StorageBackend`: one faithful
in-memory store exercising every path the agent needs — Mongo-style
filter documents (OLTP targeted lookups), per-value counts and
partial-aggregate execution for the query layer (OLAP), and upserts
keyed by ``task_id`` so RUNNING -> FINISHED updates collapse into one
record.

Filter documents support::

    {"status": "FINISHED"}                      # implicit $eq
    {"duration": {"$gt": 2.0, "$lte": 10.0}}    # range operators
    {"activity_id": {"$in": ["run_dft"]}}       # membership
    {"generated.bond_id": {"$regex": "C-H"}}    # dotted paths + regex
    {"ended_at": {"$exists": False}}            # presence

Secondary indexes keep targeted lookups flat-cost as trace volume grows:
hash indexes over declared equality fields (:data:`DEFAULT_EQUALITY_INDEX_FIELDS`)
and a sorted bisect index over declared numeric/timestamp fields
(:data:`DEFAULT_RANGE_INDEX_FIELDS`).  A small planner inspects each
filter document, picks the most selective usable access path
(equality > range > ``$in`` fan-out), intersects candidate sets, and
verifies the survivors with the full predicate — ``$regex`` / ``$exists``
/ unindexed residue therefore never yields wrong results, it only
falls back to scanning.  See ``docs/query_surface.md`` for the complete
operator/index reference and :meth:`ProvenanceDatabase.explain` for the
plan a given filter gets.

The filter matcher (:func:`matches_filter`) and validator
(:func:`validate_filter`) are module-level so other backends — notably
the sharded coordinator, which validates once and merges per-shard
results — share one definition of the semantics.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left, bisect_right, insort
from typing import Any, Callable, Iterable, Mapping

from repro.errors import DatabaseError
from repro.storage.documents import (
    get_path,
    merge_upsert_doc,
    path_exists,
    sort_documents,
)

__all__ = [
    "ProvenanceDatabase",
    "get_path",
    "merge_upsert_doc",
    "matches_filter",
    "validate_filter",
    "DEFAULT_EQUALITY_INDEX_FIELDS",
    "DEFAULT_RANGE_INDEX_FIELDS",
]

#: Fields that get a hash index by default: the identifiers and lifecycle
#: state the Query API and the agent's tools filter on constantly.
DEFAULT_EQUALITY_INDEX_FIELDS: tuple[str, ...] = (
    "task_id",
    "workflow_id",
    "status",
    "activity_id",
    "campaign_id",
    "type",
)

#: Numeric/timestamp fields that get a sorted (bisect) index by default.
DEFAULT_RANGE_INDEX_FIELDS: tuple[str, ...] = (
    "started_at",
    "ended_at",
    "duration",
)


def _require_container(op: str, arg: Any) -> None:
    if not isinstance(arg, (list, tuple, set, frozenset)):
        raise DatabaseError(
            f"{op} requires a list/tuple/set argument, "
            f"got {type(arg).__name__}: {arg!r}"
        )


def _in_op(v: Any, arg: Any) -> bool:
    _require_container("$in", arg)
    # equality scan instead of `v in arg` so unhashable stored values
    # (lists, dicts) work against set arguments and strings don't get
    # substring semantics
    return any(v == item for item in arg)


def _nin_op(v: Any, arg: Any) -> bool:
    _require_container("$nin", arg)
    return not any(v == item for item in arg)


def _regex_op(v: Any, arg: Any) -> bool:
    return isinstance(v, str) and _compile_regex(arg).search(v) is not None


def _compile_regex(arg: Any) -> re.Pattern:
    if isinstance(arg, re.Pattern):  # precompiled patterns carry flags
        return arg
    if not isinstance(arg, str):
        raise DatabaseError(
            f"$regex pattern must be a string, got {type(arg).__name__}: {arg!r}"
        )
    try:
        return re.compile(arg)  # re caches compiled patterns internally
    except re.error as exc:
        raise DatabaseError(f"invalid $regex pattern {arg!r}: {exc}") from exc


_OPERATORS: dict[str, Callable[[Any, Any], bool]] = {
    "$eq": lambda v, arg: v == arg,
    "$ne": lambda v, arg: v != arg,
    "$gt": lambda v, arg: v is not None and v > arg,
    "$gte": lambda v, arg: v is not None and v >= arg,
    "$lt": lambda v, arg: v is not None and v < arg,
    "$lte": lambda v, arg: v is not None and v <= arg,
    "$in": _in_op,
    "$nin": _nin_op,
    "$regex": _regex_op,
}

_RANGE_OPS = ("$gt", "$gte", "$lt", "$lte")


def validate_filter(filt: Mapping[str, Any]) -> None:
    """Reject malformed filters up front, independent of matching docs.

    The planner can answer a query from an index without ever calling
    :func:`matches_filter` on a document — and a sharded store can route
    a query to zero shards — so operator/argument validation must not be
    left to per-document evaluation.
    """
    for path, cond in filt.items():
        if path in ("$or", "$and"):
            if not isinstance(cond, (list, tuple)) or not all(
                isinstance(sub, Mapping) for sub in cond
            ):
                raise DatabaseError(f"{path} requires a list of filter documents")
            for sub in cond:
                validate_filter(sub)
            continue
        if isinstance(cond, Mapping) and any(k.startswith("$") for k in cond):
            for op, arg in cond.items():
                if op == "$exists":
                    continue
                if op not in _OPERATORS:
                    raise DatabaseError(f"unknown operator {op!r}")
                if op in ("$in", "$nin"):
                    _require_container(op, arg)
                elif op == "$regex":
                    _compile_regex(arg)


def matches_filter(doc: Mapping[str, Any], filt: Mapping[str, Any]) -> bool:
    """Full predicate evaluation of one filter document against one doc."""
    for path, cond in filt.items():
        if path == "$or":
            if not any(matches_filter(doc, sub) for sub in cond):
                return False
            continue
        if path == "$and":
            if not all(matches_filter(doc, sub) for sub in cond):
                return False
            continue
        value = get_path(doc, path)
        if isinstance(cond, Mapping) and any(k.startswith("$") for k in cond):
            for op, arg in cond.items():
                if op == "$exists":
                    if path_exists(doc, path) != bool(arg):
                        return False
                    continue
                fn = _OPERATORS.get(op)
                if fn is None:
                    raise DatabaseError(f"unknown operator {op!r}")
                try:
                    if not fn(value, arg):
                        return False
                except TypeError:
                    return False
        else:
            if value != cond:
                return False
    return True


#: Sentinel recorded when an indexed field holds an unhashable value.
_UNHASHABLE = object()


def _numeric(v: Any) -> bool:
    # NaN breaks total ordering (it would corrupt the sorted index) and
    # never satisfies any range operator, so it is not range-indexable
    return isinstance(v, (int, float)) and v == v


class ProvenanceDatabase:
    """Thread-safe in-memory document collection with secondary indexes.

    ``equality_index_fields`` get hash indexes (value -> doc-id set) used
    for implicit equality, ``$eq``, and ``$in``; ``range_index_fields``
    get a sorted index used for ``$gt``/``$gte``/``$lt``/``$lte``.  Pass
    empty tuples to disable indexing entirely (every query then scans,
    which is the seed behaviour — the benchmark uses this as baseline).
    """

    def __init__(
        self,
        *,
        equality_index_fields: Iterable[str] = DEFAULT_EQUALITY_INDEX_FIELDS,
        range_index_fields: Iterable[str] = DEFAULT_RANGE_INDEX_FIELDS,
        copy_docs: bool = True,
    ) -> None:
        self._docs: list[dict[str, Any]] = []
        self._by_key: dict[str, int] = {}
        self._lock = threading.RLock()
        # monotonic write stamp: bumped by every mutating call (including
        # clear), never reset — (key, version) cache entries stay correct
        self._version = 0
        #: with copy_docs=False the caller transfers ownership of every
        #: ingested dict (the sharded coordinator does: it stamps a
        #: fresh copy per document before handing it to a shard), which
        #: drops one copy per write from inside the lock.  Reads always
        #: return copies either way.
        self._copy_docs = copy_docs

        self._eq_fields = tuple(equality_index_fields)
        self._range_fields = tuple(range_index_fields)
        # dot-free fields resolve with one dict lookup; get_path is only
        # needed for nested paths (index maintenance is the write hot loop)
        self._eq_plain = tuple("." not in f for f in self._eq_fields)
        self._range_plain = tuple("." not in f for f in self._range_fields)
        # field -> value -> doc ids; unhashable values spill to overflow
        self._eq_index: dict[str, dict[Any, set[int]]] = {
            f: {} for f in self._eq_fields
        }
        self._eq_overflow: dict[str, set[int]] = {f: set() for f in self._eq_fields}
        # recorded indexed value per doc so updates can de-index precisely
        self._eq_vals: list[dict[str, Any]] = []
        # field -> sorted [(value, doc_id), ...]; rebuilt lazily when dirty
        self._range_entries: dict[str, list[tuple[Any, int]]] = {
            f: [] for f in self._range_fields
        }
        # non-numeric, non-null values can still answer range ops (string
        # ordering), so they stay reachable through a per-field overflow
        self._range_overflow: dict[str, set[int]] = {
            f: set() for f in self._range_fields
        }
        self._range_dirty: set[str] = set()

    # -- index maintenance -------------------------------------------------------
    def _eq_record(self, doc_id: int, doc: Mapping[str, Any]) -> dict[str, Any]:
        rec: dict[str, Any] = {}
        for f, plain in zip(self._eq_fields, self._eq_plain):
            v = doc.get(f) if plain else get_path(doc, f)
            try:
                # get-then-add instead of setdefault: this is the ingest
                # hot loop, and setdefault allocates a throwaway set on
                # every hit
                index = self._eq_index[f]
                ids = index.get(v)
                if ids is None:
                    index[v] = {doc_id}
                else:
                    ids.add(doc_id)
                rec[f] = v
            except TypeError:
                self._eq_overflow[f].add(doc_id)
                rec[f] = _UNHASHABLE
        return rec

    def _eq_unrecord(self, doc_id: int) -> None:
        rec = self._eq_vals[doc_id]
        for f, v in rec.items():
            self._eq_unrecord_field(doc_id, f, v)

    def _eq_unrecord_field(self, doc_id: int, f: str, v: Any) -> None:
        if v is _UNHASHABLE:
            self._eq_overflow[f].discard(doc_id)
        else:
            ids = self._eq_index[f].get(v)
            if ids is not None:
                ids.discard(doc_id)
                if not ids:
                    del self._eq_index[f][v]

    def _eq_update(
        self, doc_id: int, rec: dict[str, Any], doc: Mapping[str, Any]
    ) -> None:
        """Re-index one replaced doc, touching only fields that changed.

        Lifecycle re-deliveries leave most identifier fields untouched;
        skipping those keeps the write critical section short (this runs
        under the store lock on the concurrent-ingest hot path).
        """
        for f, plain in zip(self._eq_fields, self._eq_plain):
            v = doc.get(f) if plain else get_path(doc, f)
            cur = rec[f]
            if cur is not _UNHASHABLE and (
                v is cur or (type(v) is type(cur) and v == cur)
            ):
                continue
            self._eq_unrecord_field(doc_id, f, cur)
            try:
                index = self._eq_index[f]
                ids = index.get(v)
                if ids is None:
                    index[v] = {doc_id}
                else:
                    ids.add(doc_id)
                rec[f] = v
            except TypeError:
                self._eq_overflow[f].add(doc_id)
                rec[f] = _UNHASHABLE

    def _range_add(self, doc_id: int, doc: Mapping[str, Any]) -> None:
        """Incrementally index one new doc (clean fields only)."""
        for f, plain in zip(self._range_fields, self._range_plain):
            if f in self._range_dirty:
                continue
            v = doc.get(f) if plain else get_path(doc, f)
            # inlined _numeric: this runs per range field per ingested doc
            if isinstance(v, (int, float)) and v == v:
                insort(self._range_entries[f], (v, doc_id))
            elif v is not None:
                self._range_overflow[f].add(doc_id)

    def _range_update(self, doc_id: int, old: Mapping[str, Any], new: Mapping[str, Any]) -> None:
        """Re-index one replaced doc; falls back to a dirty mark on surprise."""
        for f in self._range_fields:
            if f in self._range_dirty:
                continue
            old_v, new_v = get_path(old, f), get_path(new, f)
            if old_v is new_v or (type(old_v) is type(new_v) and old_v == new_v):
                continue
            if _numeric(old_v):
                entries = self._range_entries[f]
                i = bisect_left(entries, (old_v, doc_id))
                if i < len(entries) and entries[i] == (old_v, doc_id):
                    entries.pop(i)
                else:
                    self._range_dirty.add(f)
                    continue
            elif old_v is not None:
                self._range_overflow[f].discard(doc_id)
            if _numeric(new_v):
                insort(self._range_entries[f], (new_v, doc_id))
            elif new_v is not None:
                self._range_overflow[f].add(doc_id)

    def _range_rebuild(self, field: str) -> None:
        entries: list[tuple[Any, int]] = []
        overflow: set[int] = set()
        for doc_id, doc in enumerate(self._docs):
            v = get_path(doc, field)
            if _numeric(v):
                entries.append((v, doc_id))
            elif v is not None:
                overflow.add(doc_id)
        entries.sort()
        self._range_entries[field] = entries
        self._range_overflow[field] = overflow
        self._range_dirty.discard(field)

    def _ensure_range_index(self, field: str) -> None:
        if field in self._range_dirty:
            self._range_rebuild(field)

    # -- writes -----------------------------------------------------------------
    def insert(self, doc: Mapping[str, Any]) -> None:
        with self._lock:
            self._version += 1
            stored = dict(doc) if self._copy_docs else doc  # type: ignore[assignment]
            doc_id = len(self._docs)
            self._docs.append(stored)
            self._eq_vals.append(self._eq_record(doc_id, stored))
            self._range_add(doc_id, stored)

    def insert_many(self, docs: Iterable[Mapping[str, Any]]) -> int:
        with self._lock:
            self._version += 1
            n = 0
            for d in docs:
                stored = dict(d) if self._copy_docs else d  # type: ignore[assignment]
                doc_id = len(self._docs)
                self._docs.append(stored)
                self._eq_vals.append(self._eq_record(doc_id, stored))
                n += 1
            if n:
                # bulk loads skip per-doc insort; the sorted index is
                # rebuilt once on the next range query
                self._range_dirty.update(self._range_fields)
            return n

    def upsert(self, doc: Mapping[str, Any], key_field: str = "task_id") -> bool:
        """Insert or replace by key; returns True when it replaced.

        Later lifecycle messages for the same task (RUNNING then
        FINISHED) collapse into the freshest record, merging fields so a
        FINISHED update cannot erase telemetry captured at start.
        """
        with self._lock:
            self._version += 1
            return self._upsert_locked(doc, key_field)

    def upsert_many(
        self, docs: Iterable[Mapping[str, Any]], key_field: str = "task_id"
    ) -> int:
        """Upsert a batch under one lock acquisition; returns replace count.

        The streaming-hub flush path (buffer -> broker -> keeper) calls
        this so a batch of N lifecycle messages costs one lock round
        trip instead of N.
        """
        with self._lock:
            self._version += 1
            replaced = 0
            for d in docs:
                if self._upsert_locked(d, key_field):
                    replaced += 1
            return replaced

    def _upsert_locked(self, doc: Mapping[str, Any], key_field: str) -> bool:
        key = doc.get(key_field)
        if key is None:
            raise DatabaseError(f"upsert requires {key_field!r} in the document")
        k = key if type(key) is str else str(key)
        idx = self._by_key.get(k)
        if idx is None:
            doc_id = len(self._docs)
            self._by_key[k] = doc_id
            stored = dict(doc) if self._copy_docs else doc  # type: ignore[assignment]
            self._docs.append(stored)
            self._eq_vals.append(self._eq_record(doc_id, stored))
            self._range_add(doc_id, stored)
            return False
        old = self._docs[idx]
        merged = merge_upsert_doc(old, doc)
        self._docs[idx] = merged
        self._eq_update(idx, self._eq_vals[idx], merged)
        self._range_update(idx, old, merged)
        return True

    def version(self) -> int:
        """Monotonic write stamp; unchanged iff contents are unchanged.

        Contract notes (the :class:`~repro.storage.backend.StorageBackend`
        persistence clause): the stamp never resets — ``clear`` bumps it
        like any other write.  This backend is process-local, so its
        stamp dies with the process; a *persistent* backend must carry
        the stamp across reopen and restore it monotonically (see
        :meth:`repro.storage.durable.DurableStore.version`), because
        cached results and cursors keyed on a pre-restart stamp must
        never pair with a post-restart store.
        """
        with self._lock:
            return self._version

    # -- state transfer ----------------------------------------------------------
    def export_state(self) -> tuple[list[dict[str, Any]], dict[str, int]]:
        """Consistent copy of ``(documents, upsert-key -> doc index)``.

        The durable backend's snapshot writer and the sharded
        coordinator's routing rebuild both need the store's *full*
        logical state — the documents in insertion order plus which of
        them are addressable by an upsert key — without reaching into
        internals.  Documents are copied; mutating the result never
        touches the store.
        """
        with self._lock:
            return [dict(d) for d in self._docs], dict(self._by_key)

    def import_state(
        self, docs: Iterable[Mapping[str, Any]], keys: Mapping[str, int]
    ) -> None:
        """Replace contents with an :meth:`export_state`-shaped state.

        Rebuilds every index; counts as one write (version bumps, never
        resets).  ``keys`` maps upsert keys to positions in ``docs`` —
        exactly what a later ``upsert`` needs to find its merge target.
        """
        with self._lock:
            self.clear()  # one version bump covers the whole swap
            for doc in docs:
                doc_id = len(self._docs)
                stored = dict(doc)
                self._docs.append(stored)
                self._eq_vals.append(self._eq_record(doc_id, stored))
            n = len(self._docs)
            for key, idx in keys.items():
                if not 0 <= idx < n:
                    raise DatabaseError(
                        f"import_state: key {key!r} points at document "
                        f"{idx}, store has {n}"
                    )
                self._by_key[key] = idx
            # bulk load: sorted range indexes rebuild on first range query
            self._range_dirty.update(self._range_fields)

    def clear(self) -> None:
        with self._lock:
            self._version += 1
            self._docs.clear()
            self._by_key.clear()
            self._eq_vals.clear()
            for f in self._eq_fields:
                self._eq_index[f] = {}
                self._eq_overflow[f] = set()
            for f in self._range_fields:
                self._range_entries[f] = []
                self._range_overflow[f] = set()
            self._range_dirty.clear()

    # -- planner -----------------------------------------------------------------
    def _eq_lookup(self, field: str, arg: Any) -> set[int] | None:
        """Candidate ids for ``field == arg``; None when unusable.

        May return the live index set (callers only read candidate sets,
        and always under the lock) — copying a 100k-id set per lookup
        would cost more than the scan it replaces.
        """
        try:
            ids = self._eq_index[field].get(arg)
        except TypeError:  # unhashable argument: cannot probe the hash index
            return None
        overflow = self._eq_overflow[field]
        if ids is None:
            return set(overflow)
        return ids | overflow if overflow else ids

    def _in_lookup(self, field: str, arg: Any) -> set[int] | None:
        if not isinstance(arg, (list, tuple, set, frozenset)):
            return None  # matches_filter/validate_filter raise the real error
        out: set[int] = set(self._eq_overflow[field])
        for item in arg:
            try:
                out |= self._eq_index[field].get(item, set())
            except TypeError:
                # an unhashable probe can still equal a *hashable* stored
                # value (frozenset({1}) == {1}), which the overflow set
                # does not cover — only a scan is safe
                return None
        return out

    def _range_lookup(self, field: str, ops: Mapping[str, Any]) -> set[int]:
        """Candidates for all range ops on one field, as a single slice.

        Bounds combine before slicing so ``{"$gte": a, "$lt": b}`` costs
        O(log n + window) instead of two half-store slices.  Non-numeric
        arguments constrain nothing numeric (mixed-type comparisons are
        no-match), so they empty the numeric window; non-numeric stored
        values always ride along via the overflow set and get verified.
        """
        self._ensure_range_index(field)
        entries = self._range_entries[field]
        # ids are non-negative, so (arg, -1) sorts before every entry
        # with value == arg and (arg, n_docs) after them
        lo, hi = 0, len(entries)
        for op, arg in ops.items():
            if not _numeric(arg):
                lo, hi = 0, 0
                break
            if op == "$gt":
                lo = max(lo, bisect_right(entries, (arg, len(self._docs))))
            elif op == "$gte":
                lo = max(lo, bisect_left(entries, (arg, -1)))
            elif op == "$lt":
                hi = min(hi, bisect_left(entries, (arg, -1)))
            elif op == "$lte":
                hi = min(hi, bisect_right(entries, (arg, len(self._docs))))
        out = set(self._range_overflow[field])
        out.update(doc_id for _, doc_id in entries[lo:hi])
        return out

    def _candidates_for(self, path: str, cond: Any) -> list[tuple[str, set[int]]]:
        """Access paths usable for one ``path: cond`` entry."""
        out: list[tuple[str, set[int]]] = []
        if not (isinstance(cond, Mapping) and any(k.startswith("$") for k in cond)):
            if path in self._eq_index:
                ids = self._eq_lookup(path, cond)
                if ids is not None:
                    out.append((f"eq({path})", ids))
            return out
        range_ops: dict[str, Any] = {}
        for op, arg in cond.items():
            if op == "$eq" and path in self._eq_index:
                ids = self._eq_lookup(path, arg)
                if ids is not None:
                    out.append((f"eq({path})", ids))
            elif op == "$in" and path in self._eq_index:
                ids = self._in_lookup(path, arg)
                if ids is not None:
                    out.append((f"in({path})", ids))
            elif op in _RANGE_OPS and path in self._range_entries:
                range_ops[op] = arg
        if range_ops:
            out.append((f"range({path})", self._range_lookup(path, range_ops)))
        return out

    def _plan(self, filt: Mapping[str, Any]) -> tuple[set[int] | None, list[str]]:
        """Candidate doc ids (superset of matches) + the access paths used.

        None means no index applies and the query must scan.  Candidates
        are always re-verified with :func:`matches_filter`, so every
        access path only has to guarantee it never *misses* a matching
        doc.
        """
        sets: list[tuple[str, set[int]]] = []
        for path, cond in filt.items():
            if path == "$and":
                for sub in cond:
                    cand, used = self._plan(sub)
                    if cand is not None:
                        sets.append(("+".join(used), cand))
            elif path == "$or":
                branch_sets: list[set[int]] = []
                branch_used: list[str] = []
                for sub in cond:
                    cand, used = self._plan(sub)
                    if cand is None:
                        branch_sets = []
                        break
                    branch_sets.append(cand)
                    branch_used.extend(used)
                if branch_sets:  # every branch indexable -> union prunes
                    union: set[int] = set()
                    for s in branch_sets:
                        union |= s
                    sets.append((f"or({','.join(branch_used)})", union))
            else:
                sets.extend(self._candidates_for(path, cond))
        if not sets:
            return None, []
        # most selective (smallest) first; intersection can only shrink
        sets.sort(key=lambda pair: len(pair[1]))
        used_names = [name for name, _ in sets]
        cand = sets[0][1]
        for _, s in sets[1:]:
            cand = cand & s
            if not cand:
                break
        return cand, used_names

    def _execute_filter(self, filt: Mapping[str, Any]) -> list[dict[str, Any]]:
        """Matching docs (internal references) in insertion order; lock held."""
        if not filt:
            return list(self._docs)
        validate_filter(filt)
        cand, _ = self._plan(filt)
        if cand is None:
            return [d for d in self._docs if matches_filter(d, filt)]
        return [
            self._docs[i] for i in sorted(cand) if matches_filter(self._docs[i], filt)
        ]

    def explain(self, filt: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """Describe how a filter would execute (without running it fully).

        Returns ``strategy`` ("index" or "scan"), the access paths the
        planner chose, the candidate count the indexes narrowed to, and
        the total document count.
        """
        filt = filt if filt is not None else {}
        with self._lock:
            total = len(self._docs)
            if not filt:
                return {
                    "strategy": "scan",
                    "access_paths": [],
                    "candidates": total,
                    "total_docs": total,
                }
            validate_filter(filt)
            cand, used = self._plan(filt)
            return {
                "strategy": "scan" if cand is None else "index",
                "access_paths": used,
                "candidates": total if cand is None else len(cand),
                "total_docs": total,
            }

    # -- reads ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._docs)

    def all(self) -> list[dict[str, Any]]:
        with self._lock:
            return [dict(d) for d in self._docs]

    def find(
        self,
        filt: Mapping[str, Any] | None = None,
        *,
        sort: list[tuple[str, int]] | None = None,
        limit: int | None = None,
        projection: list[str] | None = None,
    ) -> list[dict[str, Any]]:
        with self._lock:
            docs = self._execute_filter(filt if filt is not None else {})
        if sort:
            docs = list(docs)
            for path, direction in reversed(sort):
                sort_documents(docs, path, direction)
        if limit is not None:
            docs = docs[: max(0, limit)]
        if projection:
            docs = [{p: get_path(d, p) for p in projection} for d in docs]
        else:
            docs = [dict(d) for d in docs]
        return docs

    def find_one(self, filt: Mapping[str, Any] | None = None) -> dict[str, Any] | None:
        out = self.find(filt, limit=1)
        return out[0] if out else None

    def execute_partial(self, plan: Any) -> list[Any]:
        """Run a pushdown plan locally: one partial for the whole store.

        Optional-capability entry point (see ``StorageBackend``): the
        query engine folds terminal aggregations, local top-k, and
        column projection into the store instead of gathering full
        documents.  Documents are snapshotted by reference under the
        lock exactly like :meth:`find`, then processed outside it.
        """
        from repro.query.partial import execute_plan_on_docs

        with self._lock:
            docs = self._execute_filter(
            plan.filter if plan.filter is not None else {}
        )
        return [execute_plan_on_docs(docs, plan)]

    def count(self, filt: Mapping[str, Any] | None = None) -> int:
        with self._lock:
            return len(self._execute_filter(filt if filt is not None else {}))

    def distinct(self, path: str, filt: Mapping[str, Any] | None = None) -> list[Any]:
        """Distinct non-null values of ``path``, ordered by first holder.

        Unfiltered distinct over a hash-indexed field answers straight
        from the index's value map — O(distinct values) plus one pass
        over the id sets for ordering — instead of materialising every
        document.  ``QueryAPI.workflows()/campaigns()/activities()`` ride
        this path.  Any unhashable stored value (overflow) or filter
        falls back to the verified scan.
        """
        with self._lock:
            if not filt and path in self._eq_index and not self._eq_overflow[path]:
                # min(ids) is the first doc currently holding the value,
                # which is exactly the scan path's emission order
                pairs = sorted(
                    (min(ids), v)
                    for v, ids in self._eq_index[path].items()
                    if v is not None
                )
                return [v for _, v in pairs]
            seen: dict[Any, None] = {}
            for d in self._execute_filter(filt if filt is not None else {}):
                v = get_path(d, path)
                if v is not None:
                    try:
                        seen.setdefault(v, None)
                    except TypeError:
                        seen.setdefault(repr(v), None)
            return list(seen)

    def field_counts(
        self, path: str, filt: Mapping[str, Any] | None = None
    ) -> dict[Any, int]:
        """Document count per value of ``path`` (``None`` bucket included).

        The unfiltered indexed case reads ``len()`` of each value's id
        set — no document is touched.  Values appear in first-occurrence
        order; documents without ``path`` count under ``None`` and
        unhashable values under their ``repr``.
        """
        with self._lock:
            if not filt and path in self._eq_index and not self._eq_overflow[path]:
                pairs = sorted(
                    (min(ids), v, len(ids))
                    for v, ids in self._eq_index[path].items()
                )
                return {v: n for _, v, n in pairs}
            counts: dict[Any, int] = {}
            for d in self._execute_filter(filt if filt is not None else {}):
                v = get_path(d, path)
                try:
                    hash(v)
                except TypeError:
                    v = repr(v)
                counts[v] = counts.get(v, 0) + 1
            return counts
