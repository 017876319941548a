"""Message envelope shared by all brokers.

Regardless of the underlying broker, all provenance messages adhere to a
common schema (paper §2.3); the envelope carries routing metadata while
``payload`` holds the task-provenance document itself.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

_counter = itertools.count()


@dataclass(frozen=True)
class Envelope:
    """A single published message.

    Attributes
    ----------
    topic:
        Dot-separated routing key, e.g. ``"provenance.task"``.
    payload:
        JSON-serialisable message body.  Immutable once published: the
        broker retains and sizes it later, and every subscriber is handed
        the same object.
    published_at:
        Hub-side timestamp (seconds).
    seq:
        Monotonic sequence number assigned at publish time; consumers can
        rely on it for per-broker total ordering.
    headers:
        Optional routing/diagnostic metadata (e.g. anomaly tags).
    """

    topic: str
    payload: Mapping[str, Any]
    published_at: float = 0.0
    seq: int = field(default_factory=lambda: next(_counter))
    headers: Mapping[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "topic": self.topic,
                "payload": dict(self.payload),
                "published_at": self.published_at,
                "seq": self.seq,
                "headers": dict(self.headers),
            },
            sort_keys=True,
            default=str,
        )

    @classmethod
    def from_json(cls, text: str) -> "Envelope":
        doc = json.loads(text)
        return cls(
            topic=doc["topic"],
            payload=doc["payload"],
            published_at=doc.get("published_at", 0.0),
            seq=doc.get("seq", 0),
            headers=doc.get("headers", {}),
        )

    def size_bytes(self) -> int:
        """Approximate wire size; drives the broker cost models."""
        return len(self.to_json().encode("utf-8"))
