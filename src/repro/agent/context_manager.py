"""Context Manager: the agent's live view of streaming provenance.

Subscribes to the streaming hub and maintains (paper §4.2):

* the **in-memory context** — a bounded buffer of recent task messages,
  exposed as the flattened DataFrame the generated queries run against;
* the **dynamic dataflow schema** — updated on every message;
* the **guidelines** store (static + user-defined).

The buffer is bounded (monitoring recent/active runs); the schema is
not — it is already volume-independent by construction.

The frame view is maintained **incrementally**: messages that arrive
after a frame was built accumulate in a small pending list, and the
next :meth:`ContextManager.to_frame` appends just those rows to the
cached frame (numpy-level column concatenation when dtypes allow), so
steady-state monitoring queries cost O(new messages) instead of
rebuilding the whole buffer.  Only once the bounded deque starts
evicting does the cache fall back to a full rebuild.
"""

from __future__ import annotations

import threading
from collections import deque
from functools import lru_cache
from typing import Any, Mapping

import numpy as np

from repro.agent.guidelines import GuidelineStore
from repro.agent.prompts import PromptBuilder, PromptConfig, render_user_query
from repro.agent.schema import DynamicDataflowSchema
from repro.dataframe import DataFrame, flatten_record
from repro.dataframe.column import Column
from repro.messaging.broker import Broker, Subscription
from repro.messaging.message import Envelope
from repro.provenance.messages import normalise_doc

__all__ = ["ContextManager"]

#: prompt prefixes kept (prompt config x schema revision x guideline set)
_MAX_PREFIXES = 16


def _append_frames(cached: DataFrame, delta: DataFrame) -> DataFrame:
    """Row-append ``delta`` to ``cached``, matching a full rebuild exactly.

    Columns present on both sides with the *same* dtype concatenate at
    the numpy storage level (null encodings agree, and dtype inference
    is stable under concatenation of two same-dtype value sets).  Any
    column missing on one side, or with differing dtypes, rebuilds from
    Python values so the inferred dtype is identical to what
    ``DataFrame.from_records`` over the combined rows would choose.
    """
    n_cached, n_delta = len(cached), len(delta)
    if n_cached == 0:
        return delta
    if n_delta == 0:
        return cached
    cols: dict[str, Column] = {}
    names = list(cached.columns)
    names += [c for c in delta.columns if c not in cached]
    for name in names:
        a = cached.column(name) if name in cached else None
        b = delta.column(name) if name in delta else None
        if a is not None and b is not None and a.dtype == b.dtype:
            cols[name] = Column._from_storage(
                name, np.concatenate([a.values, b.values]), a.dtype
            )
        else:
            vals = (a.to_list() if a is not None else [None] * n_cached) + (
                b.to_list() if b is not None else [None] * n_delta
            )
            cols[name] = Column(name, vals)
    return DataFrame._from_columns(cols, n_cached + n_delta)


class ContextManager:
    """Maintains the agent's in-memory structures from the live stream."""

    def __init__(
        self,
        broker: Broker,
        *,
        buffer_size: int = 10_000,
        pattern: str = "provenance.#",
        record_types: tuple[str, ...] = ("task",),
    ):
        self.broker = broker
        self.schema = DynamicDataflowSchema()
        self.guidelines = GuidelineStore()
        self._buffer: deque[dict[str, Any]] = deque(maxlen=buffer_size)
        self._pattern = pattern
        self._record_types = record_types
        self._subscription: Subscription | None = None
        self._lock = threading.RLock()
        self._frame_cache: DataFrame | None = None
        #: flat records ingested since the cached frame was built; the
        #: next to_frame() appends exactly these (bounded: once the
        #: deque evicts, the cache is marked stale and this stays empty)
        self._frame_pending: list[dict[str, Any]] = []
        self._frame_stale = False
        #: (config, schema revision, guidelines text) -> prompt prefix
        self._kept_prefix = lru_cache(maxsize=_MAX_PREFIXES)(self._render_prefix)
        self.messages_received = 0

    # -- lifecycle -------------------------------------------------------------
    def start(self) -> "ContextManager":
        if self._subscription is None:
            self._subscription = self.broker.subscribe(
                self._pattern, self._on_message
            )
        return self

    def stop(self) -> None:
        if self._subscription is not None:
            self.broker.unsubscribe(self._subscription)
            self._subscription = None

    # -- ingestion ----------------------------------------------------------------
    def _on_message(self, envelope: Envelope) -> None:
        self.ingest(envelope.payload)

    def ingest(self, payload: Mapping[str, Any]) -> None:
        if payload.get("type") not in self._record_types:
            return
        doc = normalise_doc(payload)
        flat = flatten_record(doc)
        with self._lock:
            self.messages_received += 1
            evicting = len(self._buffer) == self._buffer.maxlen
            self._buffer.append(flat)
            self.schema.update(doc)
            if evicting:
                # rows fell off the front: the cached frame can no
                # longer be extended, only rebuilt
                self._frame_stale = True
                self._frame_pending.clear()
            elif self._frame_cache is not None and not self._frame_stale:
                self._frame_pending.append(flat)

    # -- views ------------------------------------------------------------------------
    def to_frame(self) -> DataFrame:
        """The in-memory context as a flattened DataFrame.

        Cached and maintained incrementally: new messages since the
        last call are appended to the cached frame (O(new messages) of
        Python work); a full rebuild happens only on the first call and
        after buffer eviction.
        """
        with self._lock:
            if self._frame_cache is None or self._frame_stale:
                self._frame_cache = DataFrame.from_records(list(self._buffer))
                self._frame_stale = False
                self._frame_pending.clear()
            elif self._frame_pending:
                delta = DataFrame.from_records(self._frame_pending)
                self._frame_cache = _append_frames(self._frame_cache, delta)
                self._frame_pending.clear()
            return self._frame_cache

    def recent(self, n: int = 10) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._buffer)[-n:]

    @property
    def buffer_count(self) -> int:
        with self._lock:
            return len(self._buffer)

    def known_fields(self) -> set[str]:
        return self.schema.all_known_fields()

    # -- prompt material ------------------------------------------------------------------
    def schema_payload(self, include_descriptions: bool = True) -> dict[str, Any]:
        return self.schema.to_prompt_payload(
            include_descriptions=include_descriptions
        )

    def values_payload(self) -> dict[str, Any]:
        return self.schema.values_payload()

    def guidelines_text(self) -> str:
        return self.guidelines.render()

    def prompt_prefix(
        self, config: PromptConfig, guidelines_text: str | None = None
    ) -> str:
        """Every prompt section but the question, for the live context.

        Kept per ``(config, schema revision, guidelines text)``: the
        schema saturates after the first few workflows, so between turns
        this is a lookup.  ``guidelines_text`` defaults to the manager's
        own store; a session passes its own.
        """
        if guidelines_text is None:
            guidelines_text = self.guidelines_text()
        # under the lock ingest() updates the schema under, so the
        # revision read here is the revision of the payloads rendered
        with self._lock:
            return self._kept_prefix(config, self.schema.revision, guidelines_text)

    def _render_prefix(
        self, config: PromptConfig, _revision: int, guidelines_text: str
    ) -> str:
        """Uncached; ``_revision`` only keys the result in ``_kept_prefix``."""
        return PromptBuilder(config).prefix(
            schema_payload=self.schema_payload(),
            values_payload=self.values_payload(),
            guidelines_text=guidelines_text,
        )

    def prompt(
        self,
        config: PromptConfig,
        question: str,
        guidelines_text: str | None = None,
    ) -> str:
        """The prompt a turn sends: the kept prefix plus ``question``."""
        return self.prompt_prefix(config, guidelines_text) + render_user_query(question)

    def add_user_guideline(self, text: str) -> None:
        self.guidelines.add_user_guideline(text)
