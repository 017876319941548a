"""Hash-partitioned provenance store: N single-node shards + a coordinator.

"One or more distributed Provenance Keeper services" (paper §2.3) imply
a store whose write path scales with concurrent producers.  One
:class:`~repro.storage.memory.ProvenanceDatabase` serialises every
writer and query on a single lock, and its sorted range indexes grow
with the *whole* store; :class:`ShardedProvenanceStore` partitions
documents by ``workflow_id`` across N independent shards, so

* concurrent ingest contends on N locks instead of one, and each
  per-shard sorted index is ~N× smaller (incremental ``insort``
  maintenance moves N× less memory per out-of-order arrival);
* workflow-targeted queries route to exactly one shard;
* everything else scatter-gathers shard by shard, with sorts, limits
  and per-value counts merged at the coordinator.

Routing rules (``explain()`` reports the decision):

* a document's home shard is chosen from its ``workflow_id`` when first
  seen (hash-partitioned via CRC-32 of a type-canonical key, so ``1``
  and ``1.0`` route identically); keyed documents without one route by
  their upsert key, keyless ones by arrival sequence;
* **re-delivery of a key always lands on its home shard**, even when a
  later message changes (or first supplies) ``workflow_id`` — the
  coordinator tracks such strays so targeted queries for the new value
  also visit the old home shard (a superset, never a miss);
* filters constrain routing only through ``workflow_id`` equality —
  implicit, ``$eq``, ``$in``, and ``$and``/``$or`` combinations thereof;
  any other shape (ranges, ``$regex``, ``None``, unhashable or exotic
  literals) scatters to every shard.

Result parity with the single-node store is exact for ``find`` (order,
sort stability, limit), ``count``, and ``field_counts``:
every ingested document carries a coordinator-assigned global sequence
number (stripped on egress) so merged results reproduce global
insertion order, which is what stable sorts tie-break on.  ``distinct``
returns the same value *set* but groups emission order by shard.
"""

from __future__ import annotations

import itertools
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from typing import Any, Callable, Iterable, Mapping

from repro.errors import DatabaseError
from repro.storage.documents import get_path, sort_documents
from repro.storage.memory import (
    DEFAULT_EQUALITY_INDEX_FIELDS,
    DEFAULT_RANGE_INDEX_FIELDS,
    ProvenanceDatabase,
    validate_filter,
)

__all__ = ["ShardedProvenanceStore", "DEFAULT_NUM_SHARDS"]

DEFAULT_NUM_SHARDS = 4

#: Internal per-document field carrying the coordinator's global
#: insertion sequence; stripped from every result before it leaves the
#: store.  Reserved by the :class:`StorageBackend` contract — a user
#: field with this name would be discarded on ingest.
_SEQ_FIELD = "__shard_seq__"

#: Stripes for the key -> home-shard table.  Concurrent per-message
#: writers must not serialise on one coordinator lock (that would
#: re-create exactly the bottleneck sharding removes), so the routing
#: table is partitioned and each stripe has its own lock.
_N_STRIPES = 64


def _route_key(value: Any) -> bytes | None:
    """Type-canonical routing key; None when the value cannot route.

    Equal values must produce equal keys (``1 == 1.0 == True`` all hash
    together; ``-0.0`` folds onto ``0.0``), because a query literal must
    reach the shard its equal stored value was routed to.  Unroutable
    values (None, containers, exotic types) force scatter instead —
    pruning is only ever an optimisation.
    """
    if isinstance(value, str):
        return b"s:" + value.encode("utf-8", "surrogatepass")
    if isinstance(value, (bool, int, float)):
        try:
            f = float(value)
        except OverflowError:
            # ints beyond float range have no equal float, so a
            # text key cannot split an equal pair across shards
            return b"i:" + str(value).encode()
        if f == 0:
            f = 0.0  # -0.0 == 0.0 must share a shard
        return b"n:" + repr(f).encode()
    return None


class ShardedProvenanceStore:
    """Drop-in :class:`~repro.storage.backend.StorageBackend` over N shards."""

    def __init__(
        self,
        num_shards: int = DEFAULT_NUM_SHARDS,
        *,
        shard_key: str = "workflow_id",
        equality_index_fields: Iterable[str] = DEFAULT_EQUALITY_INDEX_FIELDS,
        range_index_fields: Iterable[str] = DEFAULT_RANGE_INDEX_FIELDS,
        ingest_parallel_min: int = 64,
        shard_factory: Callable[[int], Any] | None = None,
    ) -> None:
        if num_shards < 1:
            raise DatabaseError(f"num_shards must be >= 1, got {num_shards}")
        self._shard_key = shard_key
        self._shard_key_plain = "." not in shard_key
        #: the shards are single-node backends; tests and the benchmark
        #: may *inspect* them, but all traffic goes through the
        #: coordinator so routing state stays consistent.  A
        #: ``shard_factory`` swaps the shard implementation — e.g. one
        #: :class:`~repro.storage.durable.DurableStore` per shard for a
        #: WAL-file-per-shard deployment; the factory's backend must
        #: expose the protocol plus ``_lock`` (an RLock guarding its
        #: write path, used for sequence stamping) and ``export_state``
        #: (used by :meth:`rebuild_routing` after recovery).
        if shard_factory is not None:
            self.shards = tuple(shard_factory(i) for i in range(num_shards))
        else:
            self.shards = tuple(
                ProvenanceDatabase(
                    equality_index_fields=equality_index_fields,
                    range_index_fields=range_index_fields,
                    # the coordinator stamps a fresh copy of every
                    # document, so shards take ownership instead of
                    # copying again inside their write lock
                    copy_docs=False,
                )
                for _ in range(num_shards)
            )
        # threads only where a shard does I/O.  Reads run shard by shard
        # on the calling thread: every backend answers them from memory
        # under one GIL, and a pool measured no faster at 300k documents
        # on 4 shards (count 0.856 vs 0.833 s inline, find 0.830 vs
        # 0.836 s).  A re-delivery batch of this many documents spanning
        # shards goes through a pool instead, because durable shards
        # overlap their fsyncs there (4k re-deliveries at
        # fsync="always": 43 ms vs 55 ms inline).
        self._ingest_parallel_min = ingest_parallel_min
        # upsert key -> [home shard, last routing key]; re-delivery must
        # land where the key lives, not where its new workflow_id
        # hashes.  Striped so concurrent writers rarely share a lock.
        self._key_stripes: list[dict[str, list[Any]]] = [
            {} for _ in range(_N_STRIPES)
        ]
        self._stripe_locks = [threading.Lock() for _ in range(_N_STRIPES)]
        # next() on itertools.count is a single C call — atomic under
        # the GIL, so sequence stamping needs no lock of its own
        self._seq_counter = itertools.count(1)
        # routing key -> extra shards hosting docs whose workflow_id
        # changed after placement (targeted queries visit these too);
        # written rarely, behind its own lock
        self._stray: dict[bytes, set[int]] = {}
        # shards hosting docs whose workflow_id is an *unroutable* type
        # (e.g. Decimal(5), which equals the routable literal 5): every
        # targeted query must visit them or it could miss a match
        self._unroutable_shards: set[int] = set()
        self._stray_lock = threading.Lock()
        self._admin_lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None

    # -- lifecycle ---------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def close(self) -> None:
        with self._admin_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        for shard in self.shards:
            # durable shards flush their WAL on close; plain in-memory
            # shards have nothing to release
            closer = getattr(shard, "close", None)
            if closer is not None:
                closer()

    def __enter__(self) -> "ShardedProvenanceStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _get_pool(self) -> ThreadPoolExecutor:
        with self._admin_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.num_shards, thread_name_prefix="shard"
                )
            return self._pool

    # -- placement ---------------------------------------------------------------
    def _shard_of(self, route_key: bytes) -> int:
        return zlib.crc32(route_key) % len(self.shards)

    def _upsert_one(
        self, doc: Mapping[str, Any], key_field: str
    ) -> tuple[int, dict[str, Any] | None]:
        """Route one upsert; returns (home shard, stored-or-None).

        Takes only the key's stripe lock, so four concurrent
        per-message writers almost never collide here — the coordinator
        must not become the single lock sharding exists to remove.

        For a **new** key the document is stamped with its global
        sequence and inserted into the home shard *before* the routing
        entry becomes visible (the stripe lock is held across the shard
        call), which guarantees every later delivery of the key takes
        the shard's merge path.  Re-deliveries therefore return the
        caller's document as-is (``stored=None`` -> caller applies it):
        the merge path never retains its input, so no defensive copy is
        needed.
        """
        key = doc.get(key_field)
        if key is None:
            raise DatabaseError(f"upsert requires {key_field!r} in the document")
        k = key if type(key) is str else str(key)
        wf = (
            doc.get(self._shard_key)
            if self._shard_key_plain
            else get_path(doc, self._shard_key)
        )
        stripe = hash(k) & (_N_STRIPES - 1)
        with self._stripe_locks[stripe]:
            entry = self._key_stripes[stripe].get(k)
            if entry is None:
                rk = _route_key(wf) if wf is not None else None
                shard = self._shard_of(rk if rk is not None else b"k:" + k.encode())
                if wf is not None and rk is None:
                    with self._stray_lock:
                        self._unroutable_shards.add(shard)
                stored = dict(doc)
                target = self.shards[shard]
                # stamp under the shard's (re-entrant) write lock: lock
                # order then equals sequence order within a shard, which
                # is what makes per-shard limit pushdown a subsequence
                # of the global order even under concurrent writers
                with target._lock:
                    stored[_SEQ_FIELD] = next(self._seq_counter)
                    target.upsert(stored, key_field=key_field)
                self._key_stripes[stripe][k] = [shard, wf]
                return shard, None
            # re-delivery: stay home, but track a changed workflow_id so
            # targeted queries for the new value still find this shard
            if wf is not None and wf != entry[1]:
                entry[1] = wf
                rk = _route_key(wf)
                if rk is None:
                    with self._stray_lock:
                        self._unroutable_shards.add(entry[0])
                elif self._shard_of(rk) != entry[0]:
                    with self._stray_lock:
                        self._stray.setdefault(rk, set()).add(entry[0])
        if _SEQ_FIELD in doc:  # never trust external sequence stamps
            doc = {f: v for f, v in doc.items() if f != _SEQ_FIELD}
        return entry[0], doc  # type: ignore[return-value]

    # -- writes ------------------------------------------------------------------
    def upsert(self, doc: Mapping[str, Any], key_field: str = "task_id") -> bool:
        shard, redelivery = self._upsert_one(doc, key_field)
        if redelivery is None:
            return False  # first delivery: stored inside _upsert_one
        return self.shards[shard].upsert(redelivery, key_field=key_field)

    def upsert_many(
        self, docs: Iterable[Mapping[str, Any]], key_field: str = "task_id"
    ) -> int:
        """Group a batch per home shard and ingest the groups in parallel.

        Routing takes per-key stripe locks only (concurrent writers
        serialise just on colliding keys); first deliveries land during
        routing, and the re-delivery sub-batches then land through each
        shard's ``upsert_many`` — one shard-lock acquisition per group,
        dispatched concurrently when the batch is large enough to
        amortise pool overhead.
        """
        groups: dict[int, list[Mapping[str, Any]]] = {}
        total = 0
        for doc in docs:
            shard, redelivery = self._upsert_one(doc, key_field)
            total += 1
            if redelivery is None:
                continue
            group = groups.get(shard)
            if group is None:
                groups[shard] = group = []
            group.append(redelivery)
        if not groups:
            return 0
        if len(groups) == 1 or total < self._ingest_parallel_min:
            return sum(
                self.shards[s].upsert_many(batch, key_field=key_field)
                for s, batch in groups.items()
            )
        pool = self._get_pool()
        futures = [
            pool.submit(self.shards[s].upsert_many, batch, key_field)
            for s, batch in groups.items()
        ]
        return sum(f.result() for f in futures)

    def _route_keyless(self, doc: Mapping[str, Any], fallback: bytes) -> int:
        wf = get_path(doc, self._shard_key)
        rk = _route_key(wf) if wf is not None else None
        shard = self._shard_of(rk if rk is not None else fallback)
        if wf is not None and rk is None:
            with self._stray_lock:
                self._unroutable_shards.add(shard)
        return shard

    def insert(self, doc: Mapping[str, Any]) -> None:
        stored = dict(doc)
        # hash keyless docs by identity-ish content so they spread;
        # routing needs no sequence, the stamp happens under the lock
        shard = self._route_keyless(doc, b"k:%d" % id(stored))
        target = self.shards[shard]
        with target._lock:  # see _upsert_one: lock order == seq order
            stored[_SEQ_FIELD] = next(self._seq_counter)
            target.insert(stored)

    def insert_many(self, docs: Iterable[Mapping[str, Any]]) -> int:
        """Bulk keyless load, stamped in argument order.

        All target shard locks are held (in sorted order, so bulk loads
        cannot deadlock each other) from stamping through landing: the
        position==sequence invariant that unsorted limit pushdown
        depends on must hold even when bulk loads race other writers.
        """
        groups: dict[int, list[dict[str, Any]]] = {}
        stamped: list[dict[str, Any]] = []
        for doc in docs:
            stored = dict(doc)
            stored.pop(_SEQ_FIELD, None)
            groups.setdefault(
                self._route_keyless(doc, b"k:%d" % id(stored)), []
            ).append(stored)
            stamped.append(stored)
        if not stamped:
            return 0
        targets = sorted(groups)
        with ExitStack() as stack:
            for s in targets:
                stack.enter_context(self.shards[s]._lock)
            for stored in stamped:
                stored[_SEQ_FIELD] = next(self._seq_counter)
            for s in targets:
                self.shards[s].insert_many(groups[s])
        return len(stamped)

    def clear(self) -> None:
        """Reset the store (not safe against concurrent writers, like
        any store-wide wipe)."""
        for stripe, lock in zip(self._key_stripes, self._stripe_locks):
            with lock:
                stripe.clear()
        with self._stray_lock:
            self._stray.clear()
            self._unroutable_shards.clear()
        self._seq_counter = itertools.count(1)
        for shard in self.shards:
            shard.clear()

    def rebuild_routing(self) -> int:
        """Reconstruct coordinator state from shard contents (cold start).

        The key→home-shard table, stray tracking, unroutable-shard set,
        and global sequence counter live only in coordinator memory; when
        the shards are *durable* backends recovered from disk, this
        rebuilds all four from what the shards actually hold, so routing
        decisions after a restart match the placement decisions made
        before it.  Returns the number of keyed documents re-registered.
        Like :meth:`clear`, not safe against concurrent writers.
        """
        for stripe, lock in zip(self._key_stripes, self._stripe_locks):
            with lock:
                stripe.clear()
        with self._stray_lock:
            self._stray.clear()
            self._unroutable_shards.clear()
        max_seq = 0
        keyed = 0
        for shard_idx, shard in enumerate(self.shards):
            exporter = getattr(shard, "export_state", None)
            if exporter is None:
                raise DatabaseError(
                    f"shard {shard_idx} backend "
                    f"({type(shard).__name__}) does not expose "
                    "export_state(); cannot rebuild routing"
                )
            docs, keys = exporter()
            by_index = {idx: key for key, idx in keys.items()}
            for idx, doc in enumerate(docs):
                seq = doc.get(_SEQ_FIELD)
                if isinstance(seq, int) and seq > max_seq:
                    max_seq = seq
                wf = (
                    doc.get(self._shard_key)
                    if self._shard_key_plain
                    else get_path(doc, self._shard_key)
                )
                key = by_index.get(idx)
                if key is not None:
                    stripe = hash(key) & (_N_STRIPES - 1)
                    with self._stripe_locks[stripe]:
                        self._key_stripes[stripe][key] = [shard_idx, wf]
                    keyed += 1
                if wf is None:
                    continue
                rk = _route_key(wf)
                with self._stray_lock:
                    if rk is None:
                        self._unroutable_shards.add(shard_idx)
                    elif self._shard_of(rk) != shard_idx:
                        # the document's current shard-key value hashes
                        # elsewhere (it changed after placement, or the
                        # key itself routed the doc): targeted queries
                        # for that value must still visit this shard
                        self._stray.setdefault(rk, set()).add(shard_idx)
        self._seq_counter = itertools.count(max_seq + 1)
        return keyed

    # -- routing -----------------------------------------------------------------
    def _routing_values(self, filt: Mapping[str, Any]) -> set[Any] | None:
        """Shard-key literals a matching doc could hold; None = any.

        Only conjuncts that *restrict* the shard key contribute; the
        result is a superset guarantee (every matching document's
        ``workflow_id`` is in the returned set), which is all pruning
        needs — candidates are still verified shard-side.
        """
        values: set[Any] | None = None
        for path, cond in filt.items():
            conj: set[Any] | None = None
            if path == "$and":
                for sub in cond:
                    sv = self._routing_values(sub)
                    if sv is not None:
                        conj = sv if conj is None else conj & sv
            elif path == "$or":
                union: set[Any] = set()
                routable = True
                for sub in cond:
                    sv = self._routing_values(sub)
                    if sv is None:
                        routable = False
                        break
                    union |= sv
                conj = union if routable else None
            elif path == self._shard_key:
                if isinstance(cond, Mapping) and any(
                    k.startswith("$") for k in cond
                ):
                    for op, arg in cond.items():
                        ov: set[Any] | None = None
                        if op == "$eq" and _route_key(arg) is not None:
                            ov = {arg}
                        elif op == "$in" and isinstance(
                            arg, (list, tuple, set, frozenset)
                        ):
                            if all(_route_key(v) is not None for v in arg):
                                ov = set(arg)
                        if ov is not None:
                            conj = ov if conj is None else conj & ov
                elif _route_key(cond) is not None:  # implicit equality
                    conj = {cond}
            if conj is not None:
                values = conj if values is None else values & conj
        return values

    def _targets(self, filt: Mapping[str, Any]) -> tuple[list[int], set[Any] | None]:
        values = self._routing_values(filt) if filt else None
        if values is None:
            return list(range(len(self.shards))), None
        targets: set[int] = set()
        with self._stray_lock:
            # any shard hosting an unroutable workflow_id might hold a
            # value equal to a routable literal (Decimal(5) == 5)
            targets.update(self._unroutable_shards)
            for v in values:
                rk = _route_key(v)
                assert rk is not None  # _routing_values only keeps routables
                targets.add(self._shard_of(rk))
                targets.update(self._stray.get(rk, ()))
        return sorted(targets), values

    # -- reads -------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(s) for s in self.shards)

    def all(self) -> list[dict[str, Any]]:
        return self._merge([shard.all() for shard in self.shards])

    @staticmethod
    def _gather(parts: list[list[dict[str, Any]]]) -> list[dict[str, Any]]:
        """Concatenate per-shard results into global sequence order.

        Single-shard results are re-sorted too: two writers admitted
        concurrently to one shard can transpose neighbouring sequence
        numbers in the shard's local order, and every egress path must
        agree on one global ordering.  Documents still carry the
        sequence field — strip with :meth:`_strip` after any
        limit/projection has discarded what it will.
        """
        docs = parts[0] if len(parts) == 1 else [d for p in parts for d in p]
        docs.sort(key=lambda d: d.get(_SEQ_FIELD, 0))
        return docs

    @staticmethod
    def _strip(docs: list[dict[str, Any]]) -> list[dict[str, Any]]:
        for d in docs:
            d.pop(_SEQ_FIELD, None)
        return docs

    def _merge(self, parts: list[list[dict[str, Any]]]) -> list[dict[str, Any]]:
        return self._strip(self._gather(parts))

    def find(
        self,
        filt: Mapping[str, Any] | None = None,
        *,
        sort: list[tuple[str, int]] | None = None,
        limit: int | None = None,
        projection: list[str] | None = None,
    ) -> list[dict[str, Any]]:
        filt = filt if filt is not None else {}
        # validate up front: routing to zero/one shard must reject a
        # malformed filter exactly like a full scan would
        validate_filter(filt)
        targets, _ = self._targets(filt)
        if not targets:
            return []
        if sort is None and limit is not None:
            # each shard's first `limit` docs (a subsequence of global
            # order) is a superset of the global first `limit`
            parts = [self.shards[s].find(filt, limit=limit) for s in targets]
        else:
            # with a sort, per-shard limits could drop a global winner
            # when shards disagree on mixed-type ordering — fetch all
            # matches and order once at the coordinator
            parts = [self.shards[s].find(filt) for s in targets]
        docs = self._gather(parts)
        if sort:
            for path, direction in reversed(sort):
                sort_documents(docs, path, direction)
        if limit is not None:
            docs = docs[: max(0, limit)]
        self._strip(docs)  # after the limit: only survivors pay
        if projection:
            return [{p: get_path(d, p) for p in projection} for d in docs]
        return docs

    def find_one(self, filt: Mapping[str, Any] | None = None) -> dict[str, Any] | None:
        out = self.find(filt, limit=1)
        return out[0] if out else None

    def count(self, filt: Mapping[str, Any] | None = None) -> int:
        filt = filt if filt is not None else {}
        validate_filter(filt)
        targets, _ = self._targets(filt)
        return sum(self.shards[s].count(filt) for s in targets)

    def execute_partial(self, plan: Any) -> list[Any]:
        """Scatter a pushdown plan: one ``ShardPartial`` per targeted shard.

        The plan's filter routes exactly like :meth:`find` (an equality
        on the routing key still prunes shards), and each shard folds
        its terminal aggregation / local top-k / projection locally so
        only partial states or candidate documents cross the gather
        boundary.  Shards without a native ``execute_partial`` — e.g. a
        third-party backend mounted as a shard — are driven through
        plain ``find()``, the documented capability fallback.
        """
        from repro.query.partial import execute_plan_on_docs

        filt = plan.filter if plan.filter is not None else {}
        validate_filter(filt)
        targets, _ = self._targets(filt)

        def run(s: int) -> Any:
            shard = self.shards[s]
            native = getattr(shard, "execute_partial", None)
            if native is not None:
                parts = native(plan)
                if parts:
                    return parts[0]
            return execute_plan_on_docs(shard.find(filt), plan)

        return [run(s) for s in targets]

    def distinct(self, path: str, filt: Mapping[str, Any] | None = None) -> list[Any]:
        """Distinct non-null values (same set as single-node; emission
        order groups by shard rather than global insertion)."""
        filt = filt if filt is not None else {}
        validate_filter(filt)
        targets, _ = self._targets(filt)
        seen: dict[Any, None] = {}
        for s in targets:
            for v in self.shards[s].distinct(path, filt or None):
                seen.setdefault(v, None)
        return list(seen)

    def field_counts(
        self, path: str, filt: Mapping[str, Any] | None = None
    ) -> dict[Any, int]:
        filt = filt if filt is not None else {}
        validate_filter(filt)
        targets, _ = self._targets(filt)
        out: dict[Any, int] = {}
        for s in targets:
            for v, n in self.shards[s].field_counts(path, filt or None).items():
                out[v] = out.get(v, 0) + n
        return out

    # -- introspection --------------------------------------------------------------
    def version(self) -> int:
        """Monotonic write stamp: the sum of all shard versions.

        Every write lands in exactly one shard (and bumps it), and shard
        versions never reset — including on :meth:`clear`, which bumps
        each shard — so the sum is monotonic and unchanged iff no shard
        accepted a write.  Reading the shards in order without a global
        lock is safe for cache use: a concurrent write can only make the
        sum *larger* than the value a cached result was stored under,
        never reproduce it.

        Persistence contract: with in-memory shards the stamp is
        process-local; with durable shards (``shard_factory`` +
        :func:`repro.storage.durable.open_durable_sharded`) each shard
        restores its own stamp across reopen — monotonic, never reset
        to 0 — so the sum inherits both properties.
        """
        return sum(shard.version() for shard in self.shards)

    def explain(self, filt: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """The coordinator's routing decision plus each shard's plan."""
        filt = filt if filt is not None else {}
        validate_filter(filt)
        targets, values = self._targets(filt)
        per_shard = [
            dict(self.shards[s].explain(filt), shard=s) for s in targets
        ]
        access: dict[str, None] = {}
        for plan in per_shard:
            for name in plan["access_paths"]:
                access.setdefault(name, None)
        return {
            "backend": "sharded",
            "strategy": (
                "targeted" if len(targets) < len(self.shards) else "scatter"
            ),
            "shard_key": self._shard_key,
            "shards": targets,
            "total_shards": len(self.shards),
            "routing_values": (
                sorted(values, key=repr) if values is not None else None
            ),
            "access_paths": list(access),
            "candidates": sum(p["candidates"] for p in per_shard),
            "total_docs": len(self),
            "per_shard": per_shard,
        }
