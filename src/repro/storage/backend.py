"""The storage seam: the protocol every provenance backend implements.

The reference architecture's provenance database is backend-agnostic —
MongoDB, LMDB, Neo4j, or anything else that can answer the Query API
surface (paper §2.3).  :class:`StorageBackend` is that surface as a
structural :class:`typing.Protocol`: the keeper, the Query API, the
lineage subsystem, the agent's tools, and the query-IR pushdown all
depend on *this*, never on a concrete store, so single-node
(:class:`repro.storage.ProvenanceDatabase`) and sharded
(:class:`repro.storage.ShardedProvenanceStore`) deployments are drop-in
interchangeable — and a future persistent or remote backend only has to
implement these methods.

The protocol is ``runtime_checkable`` so wiring code (and the
conformance tests) can assert ``isinstance(store, StorageBackend)``;
being structural, third-party backends need no import of this module to
conform.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Protocol, runtime_checkable

__all__ = ["StorageBackend"]


@runtime_checkable
class StorageBackend(Protocol):
    """Read/write surface a provenance store must provide.

    Semantics every implementation must honour (the parity suites in
    ``tests/storage`` assert them against the single-node reference):

    * **upsert merge** — re-delivery of a key merges via
      :func:`repro.storage.documents.merge_upsert_doc` (non-``None``
      wins), so lifecycle updates collapse into one record;
    * **insertion order** — ``find`` without ``sort`` returns documents
      in global first-insertion order; sorts are stable with nulls last;
    * **exactness** — indexes and routing are pure accelerators: every
      result is verified against the full predicate, so no access path
      may change *what* is returned, only how fast;
    * **reserved field** — the key ``__shard_seq__`` belongs to the
      storage layer (the sharded coordinator records global insertion
      order in it and strips it on egress); documents must not use it;
    * **versioning** — :meth:`version` is monotonically non-decreasing
      and changes whenever a write *may* have changed store contents
      (including ``clear``; it must never reset).  Two calls returning
      the same value guarantee the store's readable contents did not
      change in between, which is what lets the query-result cache
      (:class:`repro.query.QueryCache`) serve repeated reads without
      re-executing them.

      **Persistence clause:** the stamp must be monotonic across the
      store's whole lifetime, *including reopen* — a persistent backend
      persists it alongside the data and must never restart it at 0 (a
      reused stamp could pair a pre-restart cache entry or pagination
      cursor with a post-restart store that holds different contents).
      The durable backend additionally bumps the stamp once on every
      recovery (the *recovery epoch bump*), so a version observed
      before a crash is guaranteed never to be observed again after
      one, even when every acknowledged write survived.

    **Optional capability — operator pushdown.**  A backend *may*
    additionally expose ``execute_partial(plan) -> list[ShardPartial]``
    (see :mod:`repro.query.partial`): given a
    :class:`~repro.query.partial.PushPlan` it runs the plan's filters
    and terminal decomposition locally and returns partial states
    instead of documents.  The query engine probes for the method with
    ``getattr`` and silently uses the classic ``find`` + gather path
    when it is absent, so third-party backends keep working unchanged;
    the sharded coordinator likewise falls back per shard via
    :func:`repro.query.partial.execute_plan_on_docs` over ``find``.
    Implementations must answer for exactly the documents ``find``
    would return for ``plan.filter``.
    """

    # -- writes ---------------------------------------------------------------
    def insert(self, doc: Mapping[str, Any]) -> None: ...

    def insert_many(self, docs: Iterable[Mapping[str, Any]]) -> int: ...

    def upsert(self, doc: Mapping[str, Any], key_field: str = "task_id") -> bool: ...

    def upsert_many(
        self, docs: Iterable[Mapping[str, Any]], key_field: str = "task_id"
    ) -> int: ...

    def clear(self) -> None: ...

    # -- reads ----------------------------------------------------------------
    def __len__(self) -> int: ...

    def all(self) -> list[dict[str, Any]]: ...

    def find(
        self,
        filt: Mapping[str, Any] | None = None,
        *,
        sort: list[tuple[str, int]] | None = None,
        limit: int | None = None,
        projection: list[str] | None = None,
    ) -> list[dict[str, Any]]: ...

    def find_one(
        self, filt: Mapping[str, Any] | None = None
    ) -> dict[str, Any] | None: ...

    def count(self, filt: Mapping[str, Any] | None = None) -> int: ...

    def distinct(
        self, path: str, filt: Mapping[str, Any] | None = None
    ) -> list[Any]: ...

    def field_counts(
        self, path: str, filt: Mapping[str, Any] | None = None
    ) -> dict[Any, int]: ...

    # -- introspection ----------------------------------------------------------
    def explain(self, filt: Mapping[str, Any] | None = None) -> dict[str, Any]: ...

    def version(self) -> int: ...
