"""Versioned query-result cache for interactive serving.

Interactive provenance analysis is extremely repetitive: many sessions
ask the same handful of questions ("how many tasks failed?", "average
duration per activity") against a store that only changes when new
provenance arrives.  :class:`QueryCache` memoises query results keyed on
``(normalized query key, store version)``:

* the **key** canonicalises the query — a parsed query-IR
  :class:`~repro.query.ast.Pipeline` (frozen dataclasses, hashes
  structurally) or a Mongo-style filter document via
  :func:`canonical_filter_key` — so textual re-phrasings that parse to
  the same IR share one entry;
* the **version** is the storage backend's monotonic
  :meth:`~repro.storage.backend.StorageBackend.version` stamp.  New
  provenance bumps it, so every entry cached before the write misses
  from then on — invalidation is free and exact, with no TTLs and no
  write hooks.

Usage discipline (what makes this race-free against concurrent
writers, and what :meth:`QueryCache.read_through` does for every
caller): read ``store.version()`` **before** executing the query and
store the result under that pre-read stamp.  A write that lands during
execution bumps the version, so the (possibly torn) result is cached
under a stamp that can never match again — stale entries are
unreachable by construction, at worst a superfluous re-execution.

The cache is shared infrastructure (one per served store, many
sessions), so it is thread-safe and LRU-bounded.

Restart semantics: the same discipline survives crashes.  A persistent
backend (:class:`repro.storage.DurableStore`) restores ``version()``
monotonically across reopen and bumps it once per recovery, so an entry
cached against the pre-crash store can never match the post-recovery
version — a cache object outliving its store (same process, reopened
backend) re-executes instead of serving pre-crash results
(``tests/api/test_restart_semantics.py`` holds it to that).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Mapping

__all__ = ["QueryCache", "canonical_filter_key", "store_version", "MISS"]


class _Miss:
    """Sentinel distinguishing 'not cached' from a cached ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<cache miss>"


MISS = _Miss()


def store_version(database: Any) -> int | None:
    """The backend's monotonic write stamp, or None when unsupported."""
    reader = getattr(database, "version", None)
    if reader is None:
        return None
    try:
        return int(reader())
    except Exception:  # noqa: BLE001 - a broken stamp must only disable caching
        return None


def canonical_filter_key(filt: Mapping[str, Any] | None) -> Hashable | None:
    """Order-insensitive hashable form of a Mongo-style filter document.

    ``{"a": 1, "b": 2}`` and ``{"b": 2, "a": 1}`` collapse to the same
    key; ``$and``/``$or`` argument *order* is preserved (it is
    semantically order-free but normalising it is not worth the cost).
    Returns ``None`` for filters containing unhashable leaf values
    (regex patterns compare by identity, sets are unordered) — such
    queries simply bypass the cache.
    """
    try:
        return _canon(dict(filt) if filt else {})
    except TypeError:
        return None


def _canon(value: Any) -> Hashable:
    if isinstance(value, Mapping):
        return ("d",) + tuple(
            sorted(((str(k), _canon(v)) for k, v in value.items()))
        )
    if isinstance(value, (list, tuple)):
        return ("l",) + tuple(_canon(v) for v in value)
    hash(value)  # raises TypeError for sets, patterns, arrays, ...
    # type-tag scalars so 1, 1.0 and True (equal, same hash) cannot
    # collide into one entry while rendering different results
    return (type(value).__name__, value)


class QueryCache:
    """Thread-safe LRU cache of query results keyed by (key, version).

    One instance fronts one store.  :meth:`read_through` is the one
    place the read-before-execute ordering lives (see module docstring)
    and the only entry point code outside this module uses — provlint's
    ``cache-read-through`` rule holds it to that; ``get``/``put`` are
    its halves.  A stale entry (same key, older version) is evicted on
    sight and counted as an invalidation.
    """

    def __init__(self, max_entries: int = 512):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, tuple[int, Any]] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._invalidations = 0

    # -- core ------------------------------------------------------------------
    def read_through(
        self, key: Hashable | None, store: Any, compute: Callable[[], Any]
    ) -> tuple[Any, bool, int | None]:
        """``(value, hit, version)`` for ``key`` against ``store``.

        The store's version is read **before** the cache and before
        ``compute()`` reads the store, and a computed value is stored
        under that pre-read stamp, so a write racing the computation
        strands the entry under a version that never matches again.
        ``key=None`` (unhashable query) or a store without ``version()``
        bypasses the cache; an exception from ``compute`` propagates and
        caches nothing.  The value handed back on a hit is the stored
        object: callers returning mutable values copy on the way out.
        """
        version = store_version(store)
        if key is None or version is None:
            return compute(), False, version
        value = self.get(key, version)
        if value is not MISS:
            return value, True, version
        value = compute()
        self.put(key, version, value)
        return value, False, version

    def get(self, key: Hashable | None, version: int) -> Any:
        """Cached value for ``key`` at ``version``, or :data:`MISS`."""
        if key is None:
            return MISS
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] == version:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry[1]
            if entry is not None:
                # new provenance arrived since this was cached
                del self._entries[key]
                self._invalidations += 1
            self._misses += 1
            return MISS

    def peek(self, key: Hashable | None, version: int) -> bool:
        """Whether ``key`` is cached at ``version`` — no counter or LRU
        mutation, so explain-style introspection doesn't distort stats."""
        if key is None:
            return False
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry[0] == version

    def put(self, key: Hashable | None, version: int, value: Any) -> None:
        if key is None:
            return
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None and existing[0] > version:
                # a fresher result landed while we executed; keep it
                return
            self._entries[key] = (version, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # -- introspection ---------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, Any]:
        """Snapshot: hits, misses, hit rate, invalidations, size."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "hit_rate": (self._hits / total) if total else 0.0,
                "invalidations": self._invalidations,
                "entries": len(self._entries),
                "max_entries": self.max_entries,
            }
