"""The common workflow-task provenance message schema (paper Listing 1).

Every capture mechanism — decorators, adapters, the agent's own tool
recorder — emits this shape onto the streaming hub; every consumer
(Keeper, Context Manager) understands it.  Application-specific data
live under ``used`` (inputs/parameters) and ``generated`` (outputs),
exactly as the W3C PROV verbs suggest.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.dataframe import flatten_record
from repro.errors import SchemaViolationError


class TaskStatus(str, enum.Enum):
    SUBMITTED = "SUBMITTED"
    RUNNING = "RUNNING"
    FINISHED = "FINISHED"
    FAILED = "FAILED"


#: Descriptions of fields common to all tasks.  These are *statically*
#: included in the agent's dynamic dataflow schema (paper §4.2) so
#: queries over campaign/workflow/activity identifiers always resolve.
COMMON_FIELDS: dict[str, dict[str, str]] = {
    "task_id": {
        "type": "str",
        "description": "Unique task execution id (timestamp-derived).",
    },
    "campaign_id": {
        "type": "str",
        "description": "Groups related workflow runs into one campaign.",
    },
    "workflow_id": {
        "type": "str",
        "description": "Identifies one workflow execution (run).",
    },
    "activity_id": {
        "type": "str",
        "description": "The workflow activity (step name) this task executes.",
    },
    "status": {
        "type": "str",
        "description": "Lifecycle state: SUBMITTED, RUNNING, FINISHED, or FAILED.",
    },
    "hostname": {
        "type": "str",
        "description": "Compute node where the task ran (scheduling placement).",
    },
    "started_at": {
        "type": "float",
        "description": "Start timestamp in epoch seconds; use for time-range filters.",
    },
    "ended_at": {
        "type": "float",
        "description": "End timestamp in epoch seconds (null while RUNNING).",
    },
    "duration": {
        "type": "float",
        "description": "ended_at - started_at in seconds (derived; null while RUNNING).",
    },
    "type": {
        "type": "str",
        "description": "Record type: task, workflow, tool_execution, or llm_interaction.",
    },
    "telemetry_at_start.cpu.percent": {
        "type": "float",
        "description": "Node CPU utilisation (%) sampled when the task started.",
    },
    "telemetry_at_end.cpu.percent": {
        "type": "float",
        "description": "Node CPU utilisation (%) sampled when the task ended.",
    },
    "telemetry_at_start.mem.percent": {
        "type": "float",
        "description": "Node memory utilisation (%) sampled when the task started.",
    },
    "telemetry_at_end.mem.percent": {
        "type": "float",
        "description": "Node memory utilisation (%) sampled when the task ended.",
    },
}

_REQUIRED = ("task_id", "workflow_id", "activity_id", "status", "type")

#: Record types, extending plain tasks with the agent's own actions (§4.2).
RECORD_TYPES = ("task", "workflow", "tool_execution", "llm_interaction")

#: Topic the capture layer publishes task messages to.
TASK_TOPIC = "provenance.task"


def validate_doc(doc: Mapping[str, Any]) -> None:
    """Raise :class:`SchemaViolationError` unless ``doc`` is a valid wire dict.

    The single definition of validity: producers (``CaptureContext.emit``)
    and consumers (``normalise_payload``) both check here.
    """
    for key in _REQUIRED:
        if not doc.get(key):
            raise SchemaViolationError(f"missing required field {key!r}")
    if doc["type"] not in RECORD_TYPES:
        raise SchemaViolationError(
            f"unknown record type {doc['type']!r}; expected one of {RECORD_TYPES}"
        )
    if doc["status"] not in TaskStatus.__members__:
        raise SchemaViolationError(f"unknown status {doc['status']!r}")
    started_at, ended_at = doc.get("started_at"), doc.get("ended_at")
    if started_at is not None and ended_at is not None and ended_at < started_at:
        raise SchemaViolationError(
            f"task {doc['task_id']}: ended_at precedes started_at"
        )
    if not isinstance(doc.get("used"), Mapping) or not isinstance(
        doc.get("generated"), Mapping
    ):
        raise SchemaViolationError("used/generated must be mappings")


def normalise_doc(payload: Mapping[str, Any]) -> dict[str, Any]:
    """The wire dict (Listing 1 key order) for any raw payload.

    Ids, hostname, status and type are coerced with ``str()``;
    ``used``/``generated``/telemetry/``tags`` are copied one level;
    ``duration`` is recomputed; unknown top-level keys fold into ``tags``
    so nothing is silently lost.  Raises whatever the coercions raise on a
    structurally malformed payload — validity is :func:`validate_doc`'s job.
    """
    get = payload.get
    doc = {
        "task_id": str(get("task_id", "")),
        "campaign_id": str(get("campaign_id", "")),
        "workflow_id": str(get("workflow_id", "")),
        "activity_id": str(get("activity_id", "")),
        "used": dict(get("used") or {}),
        "generated": dict(get("generated") or {}),
        "started_at": get("started_at"),
        "ended_at": get("ended_at"),
        "duration": None,
        "hostname": str(get("hostname", "")),
        "telemetry_at_start": dict(get("telemetry_at_start") or {}),
        "telemetry_at_end": dict(get("telemetry_at_end") or {}),
        "status": str(get("status", TaskStatus.SUBMITTED.value)),
        "type": str(get("type", "task")),
    }
    tags = dict(get("tags") or {})
    known = TaskProvenanceMessage.__dataclass_fields__
    for key, value in payload.items():
        if key not in known and key != "duration":
            tags[key] = value
    if doc["started_at"] is not None and doc["ended_at"] is not None:
        doc["duration"] = doc["ended_at"] - doc["started_at"]
    for link in ("agent_id", "informed_by"):
        if get(link):
            doc[link] = get(link)
    if tags:
        doc["tags"] = tags
    return doc


@dataclass
class TaskProvenanceMessage:
    """One task-provenance record (the paper's Listing 1).

    ``used`` and ``generated`` carry the application-specific dataflow;
    everything else is the common schema.
    """

    task_id: str
    campaign_id: str
    workflow_id: str
    activity_id: str
    used: dict[str, Any] = field(default_factory=dict)
    generated: dict[str, Any] = field(default_factory=dict)
    started_at: float | None = None
    ended_at: float | None = None
    hostname: str = ""
    telemetry_at_start: dict[str, Any] = field(default_factory=dict)
    telemetry_at_end: dict[str, Any] = field(default_factory=dict)
    status: str = TaskStatus.SUBMITTED.value
    type: str = "task"
    agent_id: str | None = None
    informed_by: str | None = None
    tags: dict[str, Any] = field(default_factory=dict)

    # -- validation ------------------------------------------------------------
    def validate(self) -> None:
        validate_doc(vars(self))

    # -- derived --------------------------------------------------------------
    @property
    def duration(self) -> float | None:
        if self.started_at is None or self.ended_at is None:
            return None
        return self.ended_at - self.started_at

    # -- conversions ------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        doc = {
            "task_id": self.task_id,
            "campaign_id": self.campaign_id,
            "workflow_id": self.workflow_id,
            "activity_id": self.activity_id,
            "used": dict(self.used),
            "generated": dict(self.generated),
            "started_at": self.started_at,
            "ended_at": self.ended_at,
            "duration": self.duration,
            "hostname": self.hostname,
            "telemetry_at_start": dict(self.telemetry_at_start),
            "telemetry_at_end": dict(self.telemetry_at_end),
            "status": self.status,
            "type": self.type,
        }
        if self.agent_id:
            doc["agent_id"] = self.agent_id
        if self.informed_by:
            doc["informed_by"] = self.informed_by
        if self.tags:
            doc["tags"] = dict(self.tags)
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "TaskProvenanceMessage":
        fields = normalise_doc(doc)
        del fields["duration"]  # derived, not a constructor field
        return cls(**fields)

    def flatten(self) -> dict[str, Any]:
        """Dot-flattened form for the agent's in-memory context frame."""
        return flatten_record(self.to_dict())
