"""Workflow provenance model, storage, and query API.

Implements the paper's provenance substrate (§2.3):

* :mod:`repro.provenance.messages` — the common task-provenance message
  schema (the paper's Listing 1), with validation and flattening;
* :mod:`repro.provenance.prov` — a W3C PROV extension: entities,
  activities, agents and their relations, used to record both workflow
  tasks and the agent's own tool/LLM interactions (§4.2);
* :mod:`repro.provenance.keeper` — the Provenance Keeper service that
  subscribes to the streaming hub, normalises messages into the unified
  schema, and persists them;
* :mod:`repro.provenance.graph` — a networkx graph built from stored
  documents: the reference the live lineage index
  (:mod:`repro.lineage`) is checked against, not a query path;
* :mod:`repro.provenance.query_api` — the language-agnostic Query API
  used by dashboards, notebooks, and the provenance agent.

The store itself lives in :mod:`repro.storage`; its three public names
are re-exported here.
"""

from repro.provenance.messages import (
    COMMON_FIELDS,
    TaskStatus,
    TaskProvenanceMessage,
)
from repro.provenance.prov import (
    ProvActivity,
    ProvAgent,
    ProvDocument,
    ProvEntity,
    Relation,
    RelationKind,
)
from repro.storage import (
    ProvenanceDatabase,
    ShardedProvenanceStore,
    StorageBackend,
)
from repro.provenance.keeper import ProvenanceKeeper
from repro.provenance.graph import ProvenanceGraph
from repro.provenance.query_api import QueryAPI

__all__ = [
    "COMMON_FIELDS",
    "TaskStatus",
    "TaskProvenanceMessage",
    "ProvEntity",
    "ProvActivity",
    "ProvAgent",
    "ProvDocument",
    "Relation",
    "RelationKind",
    "ProvenanceDatabase",
    "ProvenanceKeeper",
    "ProvenanceGraph",
    "QueryAPI",
    "ShardedProvenanceStore",
    "StorageBackend",
]
