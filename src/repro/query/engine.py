"""Shared cached-pipeline execution core.

Three surfaces execute query-IR pipelines over the historical store:
the gateway's ``pipeline`` dialect, its ``sql`` dialect (which compiles
to the same IR), and the agent's NL database tool.  All of them must
observe the same discipline — cache key shape
``("db_query", base_filter_key, pipeline)`` read through
:meth:`QueryCache.read_through <repro.query.cache.QueryCache.read_through>`
(store version *before* the store read), prefilter pushdown with a
full-frame retry, list results copied on the way out of the cache — or
they stop sharing entries and the versioned invalidation guarantees
silently erode.  :func:`run_cached_pipeline` is that discipline in one
place.

Not exported from :mod:`repro.query`: this module drives a
:class:`~repro.provenance.query_api.QueryAPI` and is serving
infrastructure, not part of the IR itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Mapping

from repro.dataframe import DataFrame
from repro.errors import QueryExecutionError
from repro.query import ast as q
from repro.query.cache import QueryCache, canonical_filter_key
from repro.query.executor import execute_query
from repro.query.partial import combine_partials
from repro.query.pushdown import merge_filters, pipeline_prefilter, plan_pushdown

__all__ = [
    "CachedResult",
    "PipelineRun",
    "run_cached_pipeline",
    "pipeline_cache_key",
    "describe_result",
]


def describe_result(result: Any) -> str:
    """One-line human summary of an executed pipeline's result."""
    if isinstance(result, DataFrame):
        return f"{len(result)} row(s), columns: {', '.join(result.columns)}"
    if isinstance(result, list):
        return f"{len(result)} distinct value(s)"
    return f"result: {result}"


def pipeline_cache_key(
    base_filter_key: Hashable | None, pipeline: q.Pipeline,
) -> Hashable | None:
    """The shared cache key, or ``None`` when the query must bypass.

    The IR is frozen but its literals come from model or client input
    and may be unhashable (e.g. list comparisons); such queries bypass
    the cache instead of failing.
    """
    if base_filter_key is None:
        return None
    key = ("db_query", base_filter_key, pipeline)
    try:
        hash(key)
    except TypeError:
        return None
    return key


class CachedResult:
    """What one ``db_query`` cache entry holds.

    ``summary`` and ``result`` never change once set.  ``payload`` is a
    slot for the serving layer: the wire form of an immutable frame
    ``result`` depends on nothing but that frame, so the gateway builds
    it once and leaves it here for every later hit on the entry — it
    is dropped with the entry when the store version moves on.
    """

    __slots__ = ("summary", "result", "payload")

    def __init__(self, result: Any):
        self.summary = describe_result(result)
        self.result = result
        self.payload: Any = None


@dataclass(frozen=True)
class PipelineRun:
    """One executed pipeline: what happened and under which store stamp."""

    summary: str
    result: Any
    cache_state: str  # "hit" | "miss"
    version: int | None  # store version the result is pinned to
    #: operator-pushdown decision for this execution: ``None`` when the
    #: backend has no ``execute_partial`` / the query hit the cache /
    #: pushdown was disabled; otherwise ``mode``/``pushed_steps``/
    #: ``coordinator_steps`` plus merge stats, with a ``fallback``
    #: reason when the classic path had to answer instead
    pushdown: dict[str, Any] | None = None
    #: the cache entry behind ``result`` (private to this call when the
    #: query bypassed the cache)
    entry: CachedResult | None = None


def run_cached_pipeline(
    query_api: Any,
    pipeline: q.Pipeline,
    *,
    base_filter: Mapping[str, Any],
    base_filter_key: Hashable | None = None,
    cache: QueryCache | None = None,
    pushdown: bool = True,
    operator_pushdown: bool = True,
) -> PipelineRun:
    """Execute ``pipeline`` over the store with caching and pushdown.

    ``pushdown`` controls predicate pushdown (prefilter + shard
    routing); ``operator_pushdown`` additionally lets backends exposing
    ``execute_partial`` fold terminal aggregations, top-k selection,
    and column projection shard-side, with a guarded fallback to the
    classic gather-everything path whenever the merge cannot reproduce
    the single-store answer exactly.

    Raises :class:`~repro.errors.QueryExecutionError` on failure (never
    caches one).
    """
    if cache is None:
        cache = query_api.cache
    if base_filter_key is None:
        base_filter_key = canonical_filter_key(base_filter)
    push_info: dict[str, Any] | None = None

    def compute() -> CachedResult:
        nonlocal push_info
        result, push_info = _execute(
            query_api, pipeline, base_filter, pushdown, operator_pushdown
        )
        return CachedResult(result)

    entry, hit, version = cache.read_through(
        pipeline_cache_key(base_filter_key, pipeline), query_api.database, compute
    )
    result = entry.result
    if isinstance(result, list):
        # copy list results so a caller mutating its answer cannot
        # poison later hits (frames/scalars are immutable)
        result = list(result)
    return PipelineRun(
        entry.summary, result, "hit" if hit else "miss", version, push_info, entry
    )


def _execute(
    query_api: Any,
    pipeline: q.Pipeline,
    base_filter: Mapping[str, Any],
    pushdown: bool,
    operator_pushdown: bool,
) -> tuple[Any, dict[str, Any] | None]:
    """``(result, pushdown decision)`` of one uncached execution."""
    push_info: dict[str, Any] | None = None
    if pushdown and operator_pushdown:
        runner = getattr(query_api.database, "execute_partial", None)
        plan = plan_pushdown(pipeline, base_filter) if runner else None
        if plan is not None:
            push_info = {
                "mode": plan.mode,
                "pushed_steps": list(plan.pushed_steps),
                "coordinator_steps": list(plan.coordinator_steps),
            }
            try:
                combined = combine_partials(plan, runner(plan))
            except Exception:  # noqa: BLE001 - classic path reproduces errors
                combined, push_info["fallback"] = None, "scatter failed"
            if combined is not None and combined.ok:
                push_info.update(combined.stats)
                return combined.result, push_info
            if combined is not None:
                push_info["fallback"] = combined.reason or "unsupported"  # provlint: disable=falsy-or-default - empty reason means unspecified
    prefilter = pipeline_prefilter(pipeline) if pushdown else {}
    frame = query_api.to_frame(merge_filters(base_filter, prefilter))
    try:
        return execute_query(pipeline, frame), push_info
    except QueryExecutionError:
        if not prefilter:
            raise
        # the reduced frame may lack columns that only appear on
        # excluded documents; retry over the full document set so
        # pushdown never changes observable behaviour
        frame = query_api.to_frame(dict(base_filter))
        return execute_query(pipeline, frame), push_info
