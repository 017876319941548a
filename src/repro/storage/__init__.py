"""Pluggable provenance storage backends.

The paper's provenance database is backend-agnostic (§2.3); this
package is the seam that makes it so in code:

* :mod:`repro.storage.backend` — :class:`StorageBackend`, the structural
  protocol every consumer (keeper, Query API, lineage, agent tools,
  query-IR pushdown) depends on;
* :mod:`repro.storage.documents` — the document-level semantics every
  backend shares (dotted-path access, the upsert merge rule, the stable
  nulls-last sort);
* :mod:`repro.storage.memory` — :class:`ProvenanceDatabase`, the
  single-node indexed reference backend;
* :mod:`repro.storage.sharded` — :class:`ShardedProvenanceStore`,
  hash-partitioned by ``workflow_id`` with single-shard routing for
  targeted queries and coordinator-merged scatter-gather for the rest;
* :mod:`repro.storage.durable` — :class:`DurableStore`, the
  crash-recoverable backend: CRC-framed write-ahead-log segments plus
  compacting snapshots around the in-memory reference store, with
  :func:`open_durable_sharded` composing one WAL per shard under the
  sharded coordinator.

All stores are drop-in interchangeable; the parity suites in
``tests/storage`` (``test_sharded_parity.py``, ``test_durable_parity.py``,
``test_backend_protocol.py``) hold them to identical results —
the durability suite additionally proves crash recovery by injecting a
kill at every write boundary.
"""

from repro.storage.backend import StorageBackend
from repro.storage.durable import (
    DurableStore,
    FileOps,
    open_durable_sharded,
)
from repro.storage.documents import (
    get_path,
    merge_upsert_doc,
    path_exists,
    sort_documents,
)
from repro.storage.memory import (
    DEFAULT_EQUALITY_INDEX_FIELDS,
    DEFAULT_RANGE_INDEX_FIELDS,
    ProvenanceDatabase,
    matches_filter,
    validate_filter,
)
from repro.storage.sharded import DEFAULT_NUM_SHARDS, ShardedProvenanceStore

__all__ = [
    "StorageBackend",
    "ProvenanceDatabase",
    "ShardedProvenanceStore",
    "DurableStore",
    "FileOps",
    "open_durable_sharded",
    "DEFAULT_EQUALITY_INDEX_FIELDS",
    "DEFAULT_RANGE_INDEX_FIELDS",
    "DEFAULT_NUM_SHARDS",
    "get_path",
    "path_exists",
    "merge_upsert_doc",
    "sort_documents",
    "matches_filter",
    "validate_filter",
]
