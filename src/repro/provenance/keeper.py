"""Provenance Keeper: hub subscriber -> unified schema -> storage backend.

"One or more distributed Provenance Keeper services subscribe to the
streaming hub, convert incoming messages into a unified workflow
provenance schema based on a W3C PROV extension, and store them in a
backend-agnostic provenance database" (paper §2.3).

The keeper: validates and normalises raw payloads into the wire dict
(:func:`~repro.provenance.messages.normalise_doc`), upserts them into
any :class:`~repro.storage.backend.StorageBackend` (lifecycle updates
collapse per ``task_id``), and projects the accepted documents — on
demand, when :attr:`ProvenanceKeeper.prov` is read — into a
:class:`ProvDocument` with activities, the used/generated entities, and
agent associations for the agent's own records.

Concurrency: backends are thread-safe, so ingest does **not** serialise
on a keeper-wide lock — concurrent broker deliveries flow straight into
the store (a :class:`~repro.storage.sharded.ShardedProvenanceStore`
then groups each batch per shard and ingests the groups in parallel).
The exception is a directly-attached ``lineage_index``: database and
index must observe re-deliveries in the same merge order for their
parity guarantee, so that pair is applied under one lock.  Ingest
statistics are kept behind their own lock and exposed as a
:meth:`stats` snapshot (the MCP ``lineage-stats`` resource embeds it).
"""

from __future__ import annotations

import re
import threading
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.errors import SchemaViolationError
from repro.messaging.broker import Broker, Subscription
from repro.messaging.message import Envelope
from repro.provenance.messages import TASK_TOPIC, normalise_doc, validate_doc
from repro.provenance.prov import ProvDocument, RelationKind
from repro.storage import ProvenanceDatabase, StorageBackend

if TYPE_CHECKING:  # pragma: no cover - annotation only, avoids import cycle
    from repro.lineage.index import LineageIndex

__all__ = ["ProvenanceKeeper", "normalise_payload", "normalise_batch", "TASK_TOPIC"]

#: Topic the anomaly detector republishes tagged messages to.
ANOMALY_TOPIC = "provenance.anomaly"


def normalise_payload(
    payload: Mapping[str, Any],
) -> tuple[dict[str, Any] | None, str | None]:
    """Validate one raw payload: ``(document, None)`` or ``(None, reason)``.

    The single definition of what the keeper accepts, and the document
    is the one every consumer stores.  Every consumer that must agree
    with the database's contents (the keeper's own single and batch
    ingest, the standalone lineage service) goes through here, so
    acceptance can never drift between them.  Structurally malformed
    payloads (``normalise_doc`` failures) reject the same way schema
    violations do.
    """
    try:
        doc = normalise_doc(payload)
        validate_doc(doc)
    except SchemaViolationError as exc:
        return None, str(exc)
    except Exception as exc:  # noqa: BLE001 - isolate malformed payloads
        return None, f"malformed payload: {exc!r}"
    return doc, None


def normalise_batch(
    payloads: Iterable[Mapping[str, Any]],
) -> tuple[list[dict[str, Any]], list[tuple[Mapping[str, Any], str]]]:
    """Accepted documents and ``(payload, reason)`` rejects, in arrival
    order; one bad message never discards the rest of its batch."""
    accepted: list[dict[str, Any]] = []
    rejects: list[tuple[Mapping[str, Any], str]] = []
    for payload in payloads:
        doc, reason = normalise_payload(payload)
        if doc is None:
            rejects.append((dict(payload), reason or "rejected"))
        else:
            accepted.append(doc)
    return accepted, rejects


_QUOTED_VALUE = re.compile(r"'[^']*'|\"[^\"]*\"")
_TASK_PREFIX = re.compile(r"^task \S+: ")

#: Hard cap on distinct rejection-reason buckets; overflow folds into
#: "other" so a hostile or broken producer cannot balloon the stats map.
_MAX_REASON_BUCKETS = 64


def _reason_key(reason: str) -> str:
    """Bounded bucket for one rejection reason.

    Schema-violation messages embed payload values (task ids, bad
    statuses), so quoted values and the ``task <id>:`` prefix are
    normalised away before bucketing; malformed-payload reasons embed
    arbitrary reprs and collapse into one bucket.
    """
    if reason.startswith("malformed payload"):
        return "malformed payload"
    reason = _TASK_PREFIX.sub("task <id>: ", reason)
    reason = _QUOTED_VALUE.sub("<value>", reason)
    return reason[:120]


class ProvenanceKeeper:
    """Consumes provenance messages and persists them."""

    def __init__(
        self,
        broker: Broker,
        database: StorageBackend | None = None,
        *,
        keeper_id: str = "keeper-0",
        pattern: str = "provenance.#",
        build_prov_document: bool = True,
        lineage_index: "LineageIndex | None" = None,
    ):
        self.keeper_id = keeper_id
        self.broker = broker
        # explicit None check: an empty store has len() == 0 and is falsy
        self.database: StorageBackend = (
            ProvenanceDatabase() if database is None else database
        )
        self._prov = ProvDocument() if build_prov_document else None
        #: accepted documents not yet replayed into ``_prov`` (the very
        #: dicts handed to the store, in acceptance order)
        self._prov_pending: list[dict[str, Any]] = []
        #: optional live lineage index fed the same accepted documents
        #: the database receives (see repro.lineage)
        self.lineage_index = lineage_index
        self._subscription: Subscription | None = None
        self._pattern = pattern
        # db+lineage must see identical merge order, so the pair is
        # applied atomically; without an index the store's own locking
        # suffices and ingest runs lock-free up to the backend
        self._apply_lock = threading.Lock()
        # the PROV projection is not thread-safe on its own, and its
        # replay order is the order batches took this lock
        self._prov_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.processed_count = 0
        self.rejected: list[tuple[Mapping[str, Any], str]] = []
        self._reject_reasons: dict[str, int] = {}

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> None:
        if self._subscription is None:
            self._subscription = self.broker.subscribe(
                self._pattern, self._on_message, batch_callback=self._on_batch
            )

    def stop(self) -> None:
        if self._subscription is not None:
            self.broker.unsubscribe(self._subscription)
            self._subscription = None

    def __enter__(self) -> "ProvenanceKeeper":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- ingestion ----------------------------------------------------------------
    def _on_message(self, envelope: Envelope) -> None:
        self.ingest(envelope.payload)

    def _on_batch(self, envelopes: list[Envelope]) -> None:
        self.ingest_batch([e.payload for e in envelopes])

    def ingest(self, payload: Mapping[str, Any]) -> bool:
        """Normalise and store one raw payload; False if it was rejected."""
        return self.ingest_batch([payload]) == 1

    def ingest_batch(self, payloads: Iterable[Mapping[str, Any]]) -> int:
        """Normalise and store a batch; returns the number accepted.

        This is the buffer-flush fast path: validation happens before
        any lock, then the whole batch lands through the backend's
        ``upsert_many`` — against a sharded store that means one
        per-shard group per batch, ingested in parallel.
        """
        accepted, rejects = normalise_batch(payloads)
        if rejects:
            self._record_rejects(rejects)
        if accepted:
            self._store(accepted)
            if self._prov is not None:
                with self._prov_lock:
                    self._prov_pending.extend(accepted)
            with self._stats_lock:
                self.processed_count += len(accepted)
        return len(accepted)

    def rebuild_lineage(self) -> int:
        """Cold-start recovery: re-feed stored history into the index.

        A keeper attached to a durable store
        (:class:`repro.storage.DurableStore`) recovers the *database*
        for free, but the :class:`~repro.lineage.LineageIndex` is
        in-memory and restarts empty.  This replays the store's current
        contents through the keeper's own validation into the index —
        under the same apply lock live ingest uses, so a replay racing
        fresh deliveries still observes one merge order.  Idempotent
        (re-applying unchanged documents is a no-op for the index);
        returns the number of documents applied.
        """
        if self.lineage_index is None:
            return 0
        accepted, _rejects = normalise_batch(self.database.all())
        if accepted:
            with self._apply_lock:
                self.lineage_index.apply_many(accepted)
        return len(accepted)

    def _store(self, docs: list[dict[str, Any]]) -> None:
        if self.lineage_index is not None:
            with self._apply_lock:
                self.database.upsert_many(docs, key_field="task_id")
                self.lineage_index.apply_many(docs)
        else:
            self.database.upsert_many(docs, key_field="task_id")

    def _record_rejects(
        self, rejects: list[tuple[Mapping[str, Any], str]]
    ) -> None:
        with self._stats_lock:
            self.rejected.extend(rejects)
            for _, reason in rejects:
                key = _reason_key(reason)
                if (
                    key not in self._reject_reasons
                    and len(self._reject_reasons) >= _MAX_REASON_BUCKETS
                ):
                    key = "other"
                self._reject_reasons[key] = self._reject_reasons.get(key, 0) + 1

    # -- stats -------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """Consistent snapshot of ingest accounting (thread-safe).

        ``accepted``/``rejected`` are message counts;
        ``rejection_reasons`` buckets rejects by
        schema-violation message (bounded vocabulary) with all
        structurally-malformed payloads folded into one bucket.
        """
        with self._stats_lock:
            return {
                "keeper_id": self.keeper_id,
                "accepted": self.processed_count,
                "rejected": len(self.rejected),
                "rejection_reasons": dict(self._reject_reasons),
            }

    # -- PROV projection -------------------------------------------------------------
    @property
    def prov(self) -> ProvDocument | None:
        """The W3C PROV view of everything accepted so far.

        Paid for by its reader: ingest only remembers which documents it
        accepted; reading replays the ones not yet projected, in
        acceptance order.  ``None`` when built with
        ``build_prov_document=False``.
        """
        if self._prov is None:
            return None
        with self._prov_lock:
            pending, self._prov_pending = self._prov_pending, []
            for doc in pending:
                _record_prov(self._prov, doc)
        return self._prov


def _record_prov(prov: ProvDocument, doc: Mapping[str, Any]) -> None:
    act_id = doc["task_id"]
    prov.add_activity(
        act_id,
        started_at=doc["started_at"],
        ended_at=doc["ended_at"],
        activity=doc["activity_id"],
        record_type=doc["type"],
    )
    for name, value in doc["used"].items():
        ent = f"{act_id}/used/{name}"
        prov.add_entity(ent, name=name, value=_compact(value))
        prov.used(act_id, ent)
    for name, value in doc["generated"].items():
        ent = f"{act_id}/generated/{name}"
        prov.add_entity(ent, name=name, value=_compact(value))
        prov.was_generated_by(ent, act_id)
    agent_id, informed_by = doc.get("agent_id"), doc.get("informed_by")
    if agent_id:
        prov.add_agent(agent_id, agent_type="ai-agent")
        prov.was_associated_with(act_id, agent_id)
    if informed_by and informed_by in prov:
        prov.relate(RelationKind.WAS_INFORMED_BY, act_id, informed_by)


def _compact(value: Any, limit: int = 120) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 1] + "…"
