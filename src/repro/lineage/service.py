"""Broker-fed live maintenance of a :class:`LineageIndex`.

Two wiring styles keep the index current:

* :class:`ProvenanceKeeper` accepts a ``lineage_index`` and folds every
  accepted message in during (batch) ingest — index and database then
  observe the *same* validated, normalised documents, which is what the
  parity guarantees rest on;
* :class:`LineageService` subscribes to the hub directly for
  deployments that want lineage without a keeper (e.g. a monitoring
  sidecar).  It applies the keeper's exact validation rules so both
  paths accept and reject identically, and double-feeding (keeper +
  service on one broker) is harmless because
  :meth:`LineageIndex.apply` is idempotent for unchanged documents.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping

from repro.lineage.index import LineageIndex
from repro.messaging.broker import Broker, Subscription
from repro.messaging.message import Envelope
from repro.provenance.keeper import normalise_batch

__all__ = ["LineageService"]


class LineageService:
    """Subscribes to provenance topics and streams them into an index."""

    def __init__(
        self,
        broker: Broker,
        index: LineageIndex | None = None,
        *,
        pattern: str = "provenance.#",
    ):
        self.broker = broker
        # explicit None check: an empty index has len() == 0 and is falsy
        self.index = LineageIndex() if index is None else index
        self._pattern = pattern
        self._subscription: Subscription | None = None
        self._lock = threading.Lock()
        self.rejected_count = 0

    # -- lifecycle --------------------------------------------------------------
    def start(self, *, replay: bool = False) -> "LineageService":
        """Subscribe; with ``replay=True`` also catch up on retained history.

        Replay lets a late-started service (e.g. an agent attached to an
        already-running campaign) reconstruct the graph from the broker's
        log before live deliveries continue — re-delivered documents are
        idempotent, so overlap with live traffic is safe.
        """
        if self._subscription is None:
            self._subscription = self.broker.subscribe(
                self._pattern, self._on_message, batch_callback=self._on_batch
            )
            replayer = getattr(self.broker, "replay", None)
            if replay and replayer is not None:
                replayer(self._pattern, self._on_message)
        return self

    def stop(self) -> None:
        if self._subscription is not None:
            self.broker.unsubscribe(self._subscription)
            self._subscription = None

    def __enter__(self) -> "LineageService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- cold-start recovery -------------------------------------------------------
    def replay_store(self, store: Any) -> int:
        """Rebuild the index from a recovered storage backend's contents.

        The broker-log replay (``start(replay=True)``) only covers
        history the *broker* retained; after a restart on a durable
        store (:class:`repro.storage.DurableStore`), the authoritative
        history is the store itself.  Every stored document goes through
        the keeper's exact validation (:func:`normalise_batch`) so the
        index accepts precisely what ingest accepted — and application
        is idempotent, so overlap with live deliveries or a broker
        replay is harmless.  Returns the number of documents applied.
        """
        return self._apply(store.all())

    # -- ingestion ----------------------------------------------------------------
    def _apply(self, payloads: Iterable[Mapping[str, Any]]) -> int:
        """Keeper-identical validation, then one batched index update."""
        accepted, rejects = normalise_batch(payloads)
        if rejects:
            with self._lock:
                self.rejected_count += len(rejects)
        if accepted:
            self.index.apply_many(accepted)
        return len(accepted)

    def _on_message(self, envelope: Envelope) -> None:
        self._apply([envelope.payload])

    def _on_batch(self, envelopes: list[Envelope]) -> None:
        self._apply([env.payload for env in envelopes])
