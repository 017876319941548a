"""Language-agnostic Query API over the provenance store.

"Users can access provenance data through a language-agnostic Query API,
either programmatically (e.g., via Jupyter), through dashboards such as
Grafana, or ... via natural language" (paper §2.3).  The agent's post-hoc
DB tool and the examples use this facade; it also converts result sets
into the mini-DataFrame so the same query IR can execute over historical
data.

The facade depends only on the
:class:`~repro.storage.backend.StorageBackend` protocol, so it works
unchanged over the single-node store and the sharded store.  Every read
funnels through the backend's ``find``, so targeted lookups (``task``,
status filters, time ranges) automatically use secondary indexes, the
query planner, and — on a sharded store — single-shard routing; see
``docs/query_surface.md`` for the filter grammar and
:meth:`QueryAPI.explain` for per-filter plans.  Catalogue reads
(:meth:`workflows`, :meth:`campaigns`, :meth:`activities`,
:meth:`counts`) answer from the store's indexed distinct-values path
instead of materialising documents.

**Result caching**: frame materialisation (:meth:`to_frame`) is the
expensive read on the interactive path, and interactive questions
repeat.  A versioned :class:`~repro.query.QueryCache` fronts it, keyed
on ``(canonical filter, store version)`` — repeated questions answer
from cache until new provenance bumps the store's
:meth:`~repro.storage.backend.StorageBackend.version`.  The same cache
instance is shared with the agent's database tool (which keys on parsed
query IR), and :meth:`explain` reports its hit accounting.  Stores that
do not implement ``version()`` (minimal third-party backends) simply
bypass the cache.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.dataframe import DataFrame
from repro.query.cache import QueryCache, canonical_filter_key, store_version
from repro.storage import StorageBackend

__all__ = ["QueryAPI", "store_version"]


class QueryAPI:
    """High-level read access to stored provenance."""

    def __init__(
        self,
        database: StorageBackend,
        *,
        cache: QueryCache | None = None,
    ):
        self.database = database
        #: versioned result cache shared with the agent's database tool;
        #: pass an explicit QueryCache to share one across facades
        # explicit None check: an empty cache has len() == 0 and is falsy,
        # and a shared cache is usually handed over empty
        self.cache = QueryCache(max_entries=128) if cache is None else cache

    # -- task-level reads -----------------------------------------------------
    def tasks(
        self,
        filt: Mapping[str, Any] | None = None,
        *,
        sort: list[tuple[str, int]] | None = None,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        base = {"type": "task"}
        if filt:
            base.update(filt)
        return self.database.find(base, sort=sort, limit=limit)

    def task(self, task_id: str) -> dict[str, Any] | None:
        return self.database.find_one({"task_id": task_id})

    def workflows(self) -> list[str]:
        return self.database.distinct("workflow_id")

    def campaigns(self) -> list[str]:
        return self.database.distinct("campaign_id")

    def activities(self, workflow_id: str | None = None) -> list[str]:
        filt = {"workflow_id": workflow_id} if workflow_id else None
        return self.database.distinct("activity_id", filt)

    def counts(self, field: str, filt: Mapping[str, Any] | None = None) -> dict[Any, int]:
        """Document count per value of ``field`` (indexed when possible).

        The shared tally helper: :meth:`status_counts` and the agent's
        monitoring surface both read this, and over an indexed field it
        costs O(distinct values), not O(documents).  Results are cached
        per ``(field, canonical filter, store version)``: monitoring
        dashboards poll these tallies far more often than provenance
        arrives, and a version bump invalidates exactly on write.
        """
        filter_key = canonical_filter_key(filt)
        tallies, _hit, _version = self.cache.read_through(
            ("counts", field, filter_key) if filter_key is not None else None,
            self.database,
            lambda: self.database.field_counts(field, filt),
        )
        # fresh dict per call: mutating an answer must not poison hits
        return dict(tallies)

    def status_counts(self) -> dict[str, int]:
        return self.counts("status")

    def failed_tasks(self) -> list[dict[str, Any]]:
        """Failure triage read, cached like :meth:`to_frame`.

        The cached list is copied per call so a caller appending to its
        answer cannot poison later hits; the documents themselves follow
        the store's own copy discipline.
        """
        docs, _hit, _version = self.cache.read_through(
            ("failed_tasks",),
            self.database,
            lambda: self.database.find({"status": "FAILED"}),
        )
        # fresh dict per document, matching find()'s own copy
        # discipline — mutating an answer must not poison hits
        return [dict(doc) for doc in docs]

    def explain(self, filt: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """Query plan the store would use for ``filt``.

        Single-node stores report index-vs-scan; a sharded store
        additionally reports its routing decision (targeted vs scatter,
        the shards visited, and each shard's plan).  When result caching
        is active the plan also carries the cache's hit accounting under
        ``"cache"`` (hits, misses, hit_rate, invalidations) and the
        store version cache keys are pinned to.
        """
        plan = dict(self.database.explain(filt))
        version = store_version(self.database)
        if version is not None:
            plan["cache"] = dict(self.cache.stats(), store_version=version)
        return plan

    def agent_interactions(self) -> list[dict[str, Any]]:
        """Tool executions and LLM interactions the agent recorded (§4.2)."""
        return self.database.find(
            {"type": {"$in": ["tool_execution", "llm_interaction"]}}
        )

    # -- frame view ---------------------------------------------------------------
    def to_frame(self, filt: Mapping[str, Any] | None = None) -> DataFrame:
        """Flattened DataFrame view so the query IR can run on history.

        Cached per ``(canonical filter, store version)``: the version is
        read *before* the find, so a write racing the materialisation
        can only strand the entry under a stamp that never matches again
        (see :mod:`repro.query.cache`), never serve stale rows.
        DataFrames are immutable, so cache hits share one object safely.
        """
        # unhashable filter leaves (sets, arrays) cannot be keyed
        # distinctly — bypass rather than collapse onto one entry
        filter_key = canonical_filter_key(filt)
        frame, _hit, _version = self.cache.read_through(
            ("to_frame", filter_key) if filter_key is not None else None,
            self.database,
            lambda: DataFrame.from_records(self.database.find(filt), flatten=True),
        )
        return frame
