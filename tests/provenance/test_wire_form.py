"""One wire form, one definition of validity.

``normalise_doc`` / ``validate_doc`` replaced a dataclass round trip
(``from_dict`` -> ``validate`` -> ``to_dict``).  The reference below is
that round trip as it stood before, kept here as the oracle: for any
payload, hostile ones included, ``normalise_payload`` must return the
identical document or the identical reject reason.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace
from typing import Any, Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capture.context import CaptureContext
from repro.errors import SchemaViolationError
from repro.messaging.broker import InProcessBroker
from repro.provenance.keeper import (
    TASK_TOPIC,
    ProvenanceKeeper,
    _reason_key,
    normalise_payload,
)
from repro.provenance.messages import (
    RECORD_TYPES,
    TaskProvenanceMessage,
    TaskStatus,
    normalise_doc,
    validate_doc,
)

_FIELDS = (
    "task_id", "campaign_id", "workflow_id", "activity_id", "used", "generated",
    "started_at", "ended_at", "hostname", "telemetry_at_start", "telemetry_at_end",
    "status", "type", "agent_id", "informed_by", "tags",
)


# -- the reference: the parent commit's dataclass round trip ----------------------
def _ref_from_dict(doc: Mapping[str, Any]) -> SimpleNamespace:
    msg = SimpleNamespace(
        task_id=str(doc.get("task_id", "")),
        campaign_id=str(doc.get("campaign_id", "")),
        workflow_id=str(doc.get("workflow_id", "")),
        activity_id=str(doc.get("activity_id", "")),
        used=dict(doc.get("used") or {}),
        generated=dict(doc.get("generated") or {}),
        started_at=doc.get("started_at"),
        ended_at=doc.get("ended_at"),
        hostname=str(doc.get("hostname", "")),
        telemetry_at_start=dict(doc.get("telemetry_at_start") or {}),
        telemetry_at_end=dict(doc.get("telemetry_at_end") or {}),
        status=str(doc.get("status", "SUBMITTED")),
        type=str(doc.get("type", "task")),
        agent_id=doc.get("agent_id"),
        informed_by=doc.get("informed_by"),
        tags=dict(doc.get("tags") or {}),
    )
    for key, value in doc.items():
        if key not in _FIELDS and key != "duration":
            msg.tags[key] = value
    return msg


def _ref_to_dict(msg: SimpleNamespace) -> dict[str, Any]:
    duration = (
        None
        if msg.started_at is None or msg.ended_at is None
        else msg.ended_at - msg.started_at
    )
    doc = {
        "task_id": msg.task_id,
        "campaign_id": msg.campaign_id,
        "workflow_id": msg.workflow_id,
        "activity_id": msg.activity_id,
        "used": dict(msg.used),
        "generated": dict(msg.generated),
        "started_at": msg.started_at,
        "ended_at": msg.ended_at,
        "duration": duration,
        "hostname": msg.hostname,
        "telemetry_at_start": dict(msg.telemetry_at_start),
        "telemetry_at_end": dict(msg.telemetry_at_end),
        "status": msg.status,
        "type": msg.type,
    }
    if msg.agent_id:
        doc["agent_id"] = msg.agent_id
    if msg.informed_by:
        doc["informed_by"] = msg.informed_by
    if msg.tags:
        doc["tags"] = dict(msg.tags)
    return doc


def _ref_validate(msg: SimpleNamespace) -> None:
    doc = _ref_to_dict(msg)
    for key in ("task_id", "workflow_id", "activity_id", "status", "type"):
        if not doc.get(key):
            raise SchemaViolationError(f"missing required field {key!r}")
    if msg.type not in RECORD_TYPES:
        raise SchemaViolationError(
            f"unknown record type {msg.type!r}; expected one of {RECORD_TYPES}"
        )
    if msg.status not in TaskStatus.__members__:
        raise SchemaViolationError(f"unknown status {msg.status!r}")
    if (
        msg.started_at is not None
        and msg.ended_at is not None
        and msg.ended_at < msg.started_at
    ):
        raise SchemaViolationError(
            f"task {msg.task_id}: ended_at precedes started_at"
        )
    if not isinstance(msg.used, Mapping) or not isinstance(msg.generated, Mapping):
        raise SchemaViolationError("used/generated must be mappings")


def _ref_normalise_payload(payload: Any) -> tuple[dict[str, Any] | None, str | None]:
    try:
        msg = _ref_from_dict(payload)
        _ref_validate(msg)
    except SchemaViolationError as exc:
        return None, str(exc)
    except Exception as exc:  # noqa: BLE001 - same isolation as the keeper
        return None, f"malformed payload: {exc!r}"
    return _ref_to_dict(msg), None


# -- hostile payloads ------------------------------------------------------------
_ids = st.sampled_from([None, "", "t-1", "wf-9", 0, 7, 2.5, ["x"], ("a", "b")])
_times = st.sampled_from([None, 0, 0.0, 1.5, 10, -3.0, "5", "a", 1 + 2j, [1], float("nan")])
_maps = st.sampled_from(
    [None, {}, {"x": 1}, {"a": {"b": [1, 2]}}, {7: "int-key"}, [], [("k", "v")],
     [1, 2], 5, "text", {"agent_id": "shadow"}]
)
_words = st.sampled_from(
    [None, "", "task", "workflow", "tool_execution", "llm_interaction", "banana",
     "FINISHED", "RUNNING", "FAILED", "SUBMITTED", "DONE", 3, ["task"]]
)
_extras = st.dictionaries(
    st.sampled_from(["custom", "duration", "note", "x", "priority"]),
    st.sampled_from([None, 1, "keep", [1, 2], {"n": 1}]),
    max_size=3,
)


@st.composite
def payloads(draw) -> dict[str, Any]:
    value_for = {
        "task_id": _ids, "campaign_id": _ids, "workflow_id": _ids, "activity_id": _ids,
        "hostname": _ids, "agent_id": _ids, "informed_by": _ids,
        "started_at": _times, "ended_at": _times,
        "used": _maps, "generated": _maps, "tags": _maps,
        "telemetry_at_start": _maps, "telemetry_at_end": _maps,
        "status": _words, "type": _words,
    }
    present = draw(st.lists(st.sampled_from(_FIELDS), unique=True))
    payload = {name: draw(value_for[name]) for name in present}
    extras = draw(_extras)
    # extras land before or after the known keys: fold order must not care
    return {**extras, **payload} if draw(st.booleans()) else {**payload, **extras}


def _mostly_valid(payload: dict[str, Any]) -> dict[str, Any]:
    base = {
        "task_id": "t-0", "workflow_id": "wf-0", "activity_id": "act",
        "status": "FINISHED", "type": "task", "started_at": 1.0, "ended_at": 2.0,
    }
    return {**base, **payload}


def _same(a: Any, b: Any) -> bool:
    """Equality that also compares key order and treats NaN as itself."""
    return repr(a) == repr(b)


class TestNormalisePayloadParity:
    @settings(max_examples=400, deadline=None)
    @given(payloads(), st.booleans())
    def test_identical_document_or_identical_reason(self, payload, complete):
        if complete:
            payload = _mostly_valid(payload)
        expected_doc, expected_reason = _ref_normalise_payload(payload)
        doc, reason = normalise_payload(payload)
        assert reason == expected_reason
        assert _same(doc, expected_doc)
        if doc is not None:
            # the typed constructor is a view of the same definition
            assert _same(TaskProvenanceMessage.from_dict(payload).to_dict(), doc)
            TaskProvenanceMessage.from_dict(payload).validate()

    @pytest.mark.parametrize("payload", [None, [], "text", 5, [("task_id", "t")]])
    def test_non_mapping_payloads_are_malformed(self, payload):
        assert normalise_payload(payload) == _ref_normalise_payload(payload)
        assert normalise_payload(payload)[1].startswith("malformed payload")

    def test_copies_are_one_level_and_fresh(self):
        inner = {"deep": [1]}
        payload = _mostly_valid({"used": {"k": inner}, "tags": {"t": 1}, "extra": 2})
        doc = normalise_doc(payload)
        assert doc["used"] is not payload["used"] and doc["used"]["k"] is inner
        assert doc["tags"] == {"t": 1, "extra": 2} and payload["tags"] == {"t": 1}

    def test_stray_duration_is_recomputed_not_trusted(self):
        doc = normalise_doc(_mostly_valid({"duration": 99.0}))
        assert doc["duration"] == 1.0 and "tags" not in doc

    @settings(max_examples=60, deadline=None)
    @given(st.lists(payloads(), max_size=12), st.booleans())
    def test_keeper_buckets_rejects_as_the_reference_does(self, batch, complete):
        if complete:
            batch = [_mostly_valid(p) for p in batch]
        expected = [_ref_normalise_payload(p) for p in batch]
        broker = InProcessBroker()
        keeper = ProvenanceKeeper(broker, build_prov_document=False)
        keeper.start()
        broker.publish_batch(TASK_TOPIC, batch)
        for payload in batch:  # single delivery accounts the same way
            keeper.ingest(payload)
        stats = keeper.stats()
        reasons = [reason for doc, reason in expected if doc is None]
        assert stats["accepted"] == 2 * (len(batch) - len(reasons))
        assert stats["rejected"] == 2 * len(reasons)
        assert stats["rejection_reasons"] == {
            key: 2 * n for key, n in Counter(map(_reason_key, reasons)).items()
        }


class TestProducerSideValidation:
    """``emit`` checks the wire dict with the same five rules."""

    def _valid(self, **overrides) -> dict[str, Any]:
        return normalise_doc(_mostly_valid(overrides))

    def test_wire_dict_is_buffered_as_given(self):
        ctx = CaptureContext()
        doc = self._valid()
        ctx.emit(doc)
        ctx.flush()
        assert ctx.broker.history()[0].payload is doc

    @pytest.mark.parametrize(
        "broken",
        [
            {"task_id": ""},
            {"type": "banana"},
            {"status": "DONE"},
            {"started_at": 10.0, "ended_at": 5.0},
            {"used": [("a", 1)]},
            {"generated": None},
        ],
    )
    def test_invalid_wire_dict_raises_to_the_producer(self, broken):
        ctx = CaptureContext()
        doc = {**self._valid(), **broken}
        with pytest.raises(SchemaViolationError):
            ctx.emit(doc)
        assert ctx.buffer.pending == 0

    def test_dataclass_and_dict_validate_with_the_same_messages(self):
        for broken in ({"type": "banana"}, {"status": "DONE"}, {"activity_id": ""}):
            msg = TaskProvenanceMessage.from_dict(_mostly_valid(broken))
            with pytest.raises(SchemaViolationError) as typed:
                msg.validate()
            with pytest.raises(SchemaViolationError) as wire:
                validate_doc(msg.to_dict())
            assert str(typed.value) == str(wire.value)

    def test_dataclass_with_non_mapping_used_is_rejected(self):
        msg = TaskProvenanceMessage.from_dict(_mostly_valid({}))
        msg.used = [("a", 1)]
        with pytest.raises(SchemaViolationError, match="must be mappings"):
            CaptureContext().emit(msg)
