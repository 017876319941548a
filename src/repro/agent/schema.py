"""The Dynamic Dataflow Schema (paper §4.1-§4.2).

"Rather than submitting raw provenance records directly to the LLM
service, the system automatically maintains a schema that summarizes how
data flow between tasks, what parameters and outputs are captured, and
how workflows evolve over time."

The schema is inferred incrementally from live messages — no upfront
user definition — and stays *compact*: its size depends on workflow
complexity (number and diversity of activities and their fields), never
on the number of tasks or the volume of provenance.  That invariance is
the paper's key scalability argument and is benchmarked directly
(``benchmarks/bench_ablation_schema.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.dataframe import flatten_record
from repro.provenance.messages import COMMON_FIELDS

__all__ = ["DynamicDataflowSchema", "FieldInfo"]

_MAX_EXAMPLES = 8


@dataclass
class FieldInfo:
    """What the schema knows about one dataflow field."""

    name: str
    inferred_type: str = "unknown"
    examples: list[Any] = field(default_factory=list)
    activities: set[str] = field(default_factory=set)
    occurrences: int = 0

    def observe(self, value: Any, activity: str) -> bool:
        """Fold one value in; True when the type or the activities moved."""
        self.occurrences += 1
        before = (self.inferred_type, len(self.activities))
        self.activities.add(activity)
        t = _type_name(value)
        if self.inferred_type == "unknown":
            self.inferred_type = t
        elif self.inferred_type != t:
            self.inferred_type = _promote(self.inferred_type, t)
        if (
            len(self.examples) < _MAX_EXAMPLES
            and _is_example_worthy(value)
            and value not in self.examples
        ):
            self.examples.append(value)
        return before != (self.inferred_type, len(self.activities))


class DynamicDataflowSchema:
    """Incrementally inferred schema over streaming task provenance."""

    def __init__(self) -> None:
        self._fields: dict[str, FieldInfo] = {}
        self._activities: set[str] = set()
        self._value_examples: dict[str, list[Any]] = {}
        self.messages_seen = 0
        #: moves only when something a prompt payload shows moved (a new
        #: field, activity or example value, a promoted type) — at most
        #: once per message, and not at all once the schema has saturated
        self.revision = 0

    # -- ingestion --------------------------------------------------------------
    def update(self, message: Mapping[str, Any]) -> None:
        """Fold one task message into the schema."""
        self.messages_seen += 1
        activity = str(message.get("activity_id", ""))
        moved = False
        if activity:
            moved = activity not in self._activities
            self._activities.add(activity)
            moved |= self._observe_value("activity_id", activity)
        for section in ("used", "generated"):
            payload = message.get(section) or {}
            if not isinstance(payload, Mapping):
                continue
            flat = flatten_record({section: payload})
            for name, value in flat.items():
                if name.split(".", 1)[-1].startswith("_"):
                    continue  # engine-internal fields like used._upstream
                info = self._fields.get(name)
                if info is None:
                    info = self._fields[name] = FieldInfo(name)
                    moved = True
                moved |= info.observe(value, activity)
                moved |= self._observe_value(name, value)
        # common-field value examples that help disambiguation
        for key in ("status", "hostname"):
            if message.get(key):
                moved |= self._observe_value(key, message[key])
        for key in ("telemetry_at_end", "telemetry_at_start"):
            tele = message.get(key)
            if isinstance(tele, Mapping):
                for name, value in flatten_record({key: tele}).items():
                    moved |= self._observe_value(name, value)
        self.revision += moved

    def _observe_value(self, name: str, value: Any) -> bool:
        """Keep ``value`` as an example of ``name``; True when it was new."""
        if not _is_example_worthy(value):
            return False
        bucket = self._value_examples.setdefault(name, [])
        if len(bucket) < _MAX_EXAMPLES and value not in bucket:
            bucket.append(value)
            return True
        return False

    # -- introspection ---------------------------------------------------------------
    @property
    def activities(self) -> tuple[str, ...]:
        return tuple(sorted(self._activities))

    @property
    def dataflow_fields(self) -> tuple[str, ...]:
        return tuple(sorted(self._fields))

    def field(self, name: str) -> FieldInfo | None:
        return self._fields.get(name)

    def all_known_fields(self) -> set[str]:
        """Common fields + inferred dataflow fields (for validation)."""
        return set(COMMON_FIELDS) | set(self._fields)

    def complexity(self) -> int:
        """Workflow complexity: number of distinct activity/field pairs."""
        return sum(len(info.activities) for info in self._fields.values())

    # -- prompt payloads ----------------------------------------------------------------
    def to_prompt_payload(self, *, include_descriptions: bool = True) -> dict[str, Any]:
        """The JSON object embedded in the prompt's schema section."""
        fields: dict[str, Any] = {}
        for name, meta in COMMON_FIELDS.items():
            entry: dict[str, Any] = {"type": meta["type"]}
            if include_descriptions:
                entry["description"] = meta["description"]
            fields[name] = entry
        for name, info in sorted(self._fields.items()):
            entry = {"type": info.inferred_type}
            if include_descriptions:
                entry["description"] = (
                    f"Application dataflow field captured from "
                    f"{', '.join(sorted(info.activities)) or 'tasks'}."
                )
                entry["activities"] = sorted(info.activities)
            fields[name] = entry
        return {"fields": fields, "activities": sorted(self._activities)}

    def values_payload(self) -> dict[str, list[Any]]:
        """The JSON object for the example-domain-values section."""
        return {
            name: list(examples)
            for name, examples in sorted(self._value_examples.items())
            if examples
        }


def _type_name(value: Any) -> str:
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    if isinstance(value, (list, tuple)):
        return "array"
    if value is None:
        return "unknown"
    return type(value).__name__


def _promote(a: str, b: str) -> str:
    if {a, b} == {"int", "float"}:
        return "float"
    if "unknown" in (a, b):
        return a if b == "unknown" else b
    if a != b:
        return "mixed"
    return a


def _is_example_worthy(value: Any) -> bool:
    if isinstance(value, (bool,)):
        return False
    if isinstance(value, (int, float, str)):
        return not (isinstance(value, str) and len(value) > 60)
    return False
