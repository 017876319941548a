"""Tests for the in-memory provenance document store."""

from __future__ import annotations

import pytest

from repro.errors import DatabaseError
from repro.storage import ProvenanceDatabase, get_path


@pytest.fixture
def db(task_records) -> ProvenanceDatabase:
    database = ProvenanceDatabase()
    # store nested docs (unflattened), as the keeper would
    for r in task_records:
        doc = {
            k: v
            for k, v in r.items()
            if not k.startswith("telemetry_at_end.")
        }
        doc["telemetry_at_end"] = {
            "cpu": {"percent": r["telemetry_at_end.cpu.percent"]}
        }
        doc["generated"] = {
            "bond_id": r["generated.bond_id"],
            "bd_enthalpy": r["generated.bd_enthalpy"],
        }
        del doc["generated.bond_id"], doc["generated.bd_enthalpy"]
        database.insert(doc)
    return database


class TestGetPath:
    def test_nested_access(self):
        assert get_path({"a": {"b": {"c": 1}}}, "a.b.c") == 1

    def test_missing_returns_none(self):
        assert get_path({"a": 1}, "a.b") is None


class TestFind:
    def test_implicit_eq(self, db):
        assert len(db.find({"status": "FINISHED"})) == 2

    def test_range_operators(self, db):
        assert len(db.find({"duration": {"$gt": 0.4, "$lte": 0.5}})) == 2

    def test_in_operator(self, db):
        assert len(db.find({"status": {"$in": ["FAILED", "RUNNING"]}})) == 2

    def test_regex_on_nested_path(self, db):
        assert len(db.find({"generated.bond_id": {"$regex": "^C-H"}})) == 2

    def test_exists(self, db):
        assert len(db.find({"agent_id": {"$exists": True}})) == 0
        assert len(db.find({"agent_id": {"$exists": False}})) == 4

    def test_or(self, db):
        out = db.find({"$or": [{"status": "FAILED"}, {"status": "RUNNING"}]})
        assert len(out) == 2

    def test_sort_and_limit(self, db):
        out = db.find({}, sort=[("duration", -1)], limit=1)
        assert out[0]["task_id"] == "1000.1_0"

    def test_sort_nulls_last(self, db):
        out = db.find({}, sort=[("duration", 1)])
        assert out[-1]["duration"] is None

    def test_projection(self, db):
        out = db.find({"status": "FAILED"}, projection=["task_id", "generated.bond_id"])
        assert out == [{"task_id": "1000.4_3", "generated.bond_id": "O-H_1"}]

    def test_unknown_operator_raises(self, db):
        with pytest.raises(DatabaseError):
            db.find({"duration": {"$frob": 1}})

    def test_type_mismatch_is_no_match(self, db):
        assert db.find({"status": {"$gt": 5}}) == []


class TestUpsert:
    def test_insert_then_replace(self):
        db = ProvenanceDatabase()
        assert db.upsert({"task_id": "t1", "status": "RUNNING"}) is False
        assert db.upsert({"task_id": "t1", "status": "FINISHED"}) is True
        assert len(db) == 1
        assert db.find_one({"task_id": "t1"})["status"] == "FINISHED"

    def test_merge_keeps_earlier_fields(self):
        db = ProvenanceDatabase()
        db.upsert({"task_id": "t1", "telemetry_at_start": {"cpu": 10}})
        db.upsert({"task_id": "t1", "status": "FINISHED", "telemetry_at_start": None})
        doc = db.find_one({"task_id": "t1"})
        assert doc["telemetry_at_start"] == {"cpu": 10}

    def test_upsert_requires_key(self):
        with pytest.raises(DatabaseError):
            ProvenanceDatabase().upsert({"status": "FINISHED"})


class TestOperatorEdgeCases:
    def test_in_with_non_container_argument_raises(self, db):
        with pytest.raises(DatabaseError, match=r"\$in requires"):
            db.find({"status": {"$in": "FINISHED"}})

    def test_nin_with_non_container_argument_raises(self, db):
        with pytest.raises(DatabaseError, match=r"\$nin requires"):
            db.find({"status": {"$nin": 5}})

    def test_in_with_set_argument_and_unhashable_value(self):
        db = ProvenanceDatabase()
        db.insert({"task_id": "t1", "tags": ["a", "b"]})
        # unhashable stored value against a set argument must not raise
        assert db.find({"tags": {"$in": {"x", "y"}}}) == []
        assert db.find({"tags": {"$nin": {"x", "y"}}})[0]["task_id"] == "t1"

    def test_in_matches_unhashable_stored_value(self):
        db = ProvenanceDatabase()
        db.insert({"task_id": "t1", "tags": ["a", "b"]})
        assert db.find({"tags": {"$in": [["a", "b"]]}})[0]["task_id"] == "t1"

    def test_in_has_no_substring_semantics(self):
        db = ProvenanceDatabase()
        db.insert({"task_id": "t1", "status": "FIN"})
        with pytest.raises(DatabaseError):
            db.find({"status": {"$in": "FINISHED"}})

    def test_regex_non_string_pattern_raises(self, db):
        with pytest.raises(DatabaseError, match=r"\$regex pattern must be a string"):
            db.find({"generated.bond_id": {"$regex": 123}})

    def test_regex_invalid_pattern_raises_database_error(self, db):
        with pytest.raises(DatabaseError, match=r"invalid \$regex pattern"):
            db.find({"generated.bond_id": {"$regex": "(unclosed"}})

    def test_malformed_or_raises(self, db):
        with pytest.raises(DatabaseError, match=r"\$or requires"):
            db.find({"$or": {"status": "FAILED"}})

    def test_bad_arguments_raise_even_without_matching_docs(self):
        # validation must not depend on the planner reaching any document
        db = ProvenanceDatabase()
        with pytest.raises(DatabaseError):
            db.find({"status": {"$in": "oops"}})
        with pytest.raises(DatabaseError):
            db.find({"status": {"$regex": 1}})


class TestMisc:
    def test_distinct(self, db):
        assert set(db.distinct("hostname")) == {
            "frontier00084",
            "frontier00085",
            "frontier00086",
        }

    def test_count(self, db):
        assert db.count({"workflow_id": "w1"}) == 3

    def test_clear(self, db):
        db.clear()
        assert len(db) == 0
