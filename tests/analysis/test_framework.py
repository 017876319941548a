"""Framework-level tests for provlint: registry, suppressions, baseline, CLI.

Rule *behaviour* is covered in ``test_rules.py``; these tests pin the
machinery every rule rides on — and the CLI contract the CI gate
depends on (exit codes, strict-mode failures for unused suppressions
and stale baseline entries).
"""

from __future__ import annotations

import io
import json

import pytest

from repro.analysis import Baseline, Finding, all_rules, get_rule, run_analysis
from repro.analysis.__main__ import main
from repro.analysis.baseline import BaselineEntry
from repro.analysis.engine import BAD_SUPPRESSION
from repro.analysis.suppressions import scan_suppressions

EXPECTED_RULES = {
    "blocking-call-under-lock",
    "cache-read-through",
    "exception-contract",
    "falsy-or-default",
    "lock-ordering",
    "schema-discipline",
    "wal-write-discipline",
}

FALSY_SOURCE = """\
class QueryAPI:
    def __init__(self, store, cache=None):
        self.cache = cache or QueryCache()
"""


def write(tmp_path, name, source):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return str(path)


class TestRegistry:
    def test_all_expected_rules_registered(self):
        assert {r.id for r in all_rules()} >= EXPECTED_RULES

    def test_every_rule_names_its_historical_bug(self):
        for rule in all_rules():
            assert rule.summary, rule.id
            assert rule.rationale, rule.id

    def test_get_rule_round_trip_and_unknown(self):
        assert get_rule("falsy-or-default").id == "falsy-or-default"
        with pytest.raises(KeyError):
            get_rule("no-such-rule")


class TestSuppressions:
    def test_same_line_marker_silences_finding(self, tmp_path):
        write(
            tmp_path,
            "m.py",
            "class A:\n"
            "    def f(self, c=None):\n"
            "        self.c = c or dict()  # provlint: disable=falsy-or-default - test\n",
        )
        result = run_analysis([str(tmp_path)])
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == ["falsy-or-default"]
        assert result.unused_suppressions == []

    def test_standalone_marker_binds_to_next_code_line(self, tmp_path):
        write(
            tmp_path,
            "m.py",
            "class A:\n"
            "    def f(self, c=None):\n"
            "        # provlint: disable=falsy-or-default - test\n"
            "        self.c = c or dict()\n",
        )
        result = run_analysis([str(tmp_path)])
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_unused_suppression_reported(self, tmp_path):
        write(
            tmp_path,
            "m.py",
            "x = 1  # provlint: disable=falsy-or-default - silences nothing\n",
        )
        result = run_analysis([str(tmp_path)])
        assert result.findings == []
        assert len(result.unused_suppressions) == 1
        assert not result.ok

    def test_unknown_rule_id_is_a_finding(self, tmp_path):
        write(tmp_path, "m.py", "x = 1  # provlint: disable=falsy-or-defualt\n")
        result = run_analysis([str(tmp_path)])
        assert [f.rule for f in result.findings] == [BAD_SUPPRESSION]
        # ...and not double-reported as an unused suppression
        assert result.unused_suppressions == []

    def test_justification_tail_not_parsed_as_rule_ids(self):
        index = scan_suppressions(
            "m.py",
            "x = 1  # provlint: disable=rule-a, rule-b - why this is fine\n",
        )
        assert index.suppressions[0].rules == ("rule-a", "rule-b")

    def test_suppression_only_silences_named_rule(self, tmp_path):
        write(
            tmp_path,
            "m.py",
            "class A:\n"
            "    def f(self, c=None):\n"
            "        self.c = c or dict()  # provlint: disable=exception-contract - wrong rule\n",
        )
        result = run_analysis([str(tmp_path)])
        assert [f.rule for f in result.findings] == ["falsy-or-default"]


class TestBaseline:
    def finding(self, snippet="self.c = c or dict()", line=3):
        return Finding(
            rule="falsy-or-default",
            path="m.py",
            line=line,
            message="msg",
            snippet=snippet,
        )

    def test_partition_matches_by_snippet_not_line(self):
        base = Baseline(
            [BaselineEntry("falsy-or-default", "m.py", "self.c = c or dict()", line=99)]
        )
        new, old = base.partition([self.finding(line=3)])
        assert new == [] and len(old) == 1
        assert base.stale_entries() == []

    def test_duplicated_pattern_exceeds_budget(self):
        base = Baseline(
            [BaselineEntry("falsy-or-default", "m.py", "self.c = c or dict()")]
        )
        new, old = base.partition([self.finding(line=3), self.finding(line=9)])
        assert len(old) == 1 and len(new) == 1

    def test_stale_entry_detected(self):
        base = Baseline(
            [BaselineEntry("falsy-or-default", "m.py", "code that was fixed")]
        )
        new, old = base.partition([])
        assert new == [] and old == []
        assert len(base.stale_entries()) == 1

    def test_update_preserves_notes(self, tmp_path):
        previous = Baseline(
            [
                BaselineEntry(
                    "falsy-or-default",
                    "m.py",
                    "self.c = c or dict()",
                    note="audited 2026-08",
                )
            ]
        )
        updated = Baseline.from_findings([self.finding()], previous=previous)
        assert updated.entries[0].note == "audited 2026-08"
        path = tmp_path / "base.json"
        updated.dump(str(path))
        reloaded = Baseline.load(str(path))
        assert reloaded.entries[0].key() == updated.entries[0].key()
        assert reloaded.entries[0].note == "audited 2026-08"

    def test_load_missing_file_is_empty(self, tmp_path):
        assert Baseline.load(str(tmp_path / "nope.json")).entries == []

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text('{"something": "else"}')
        with pytest.raises(ValueError):
            Baseline.load(str(path))


class TestCli:
    def run(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_list_rules(self):
        code, text = self.run("--list-rules")
        assert code == 0
        for rule_id in EXPECTED_RULES:
            assert rule_id in text

    def test_no_paths_is_usage_error(self):
        code, _ = self.run()
        assert code == 2

    def test_clean_tree_exits_zero(self, tmp_path):
        write(tmp_path, "m.py", "def f(x=None):\n    return x\n")
        code, _ = self.run("--check", str(tmp_path), "--baseline", str(tmp_path / "b.json"))
        assert code == 0

    def test_finding_fails_the_gate(self, tmp_path):
        write(tmp_path, "m.py", FALSY_SOURCE)
        code, text = self.run(
            "--check", str(tmp_path), "--baseline", str(tmp_path / "b.json")
        )
        assert code == 1
        assert "falsy-or-default" in text
        assert "hint:" in text

    def test_update_baseline_then_check_passes(self, tmp_path):
        write(tmp_path, "m.py", FALSY_SOURCE)
        baseline = str(tmp_path / "b.json")
        code, _ = self.run(
            "--update-baseline", str(tmp_path), "--baseline", baseline
        )
        assert code == 0
        code, text = self.run("--check", str(tmp_path), "--baseline", baseline)
        assert code == 0, text
        # a second copy of the same pattern is NOT absorbed
        write(
            tmp_path,
            "m2.py",
            FALSY_SOURCE.replace("QueryAPI", "OtherAPI"),
        )
        code, _ = self.run("--check", str(tmp_path), "--baseline", baseline)
        assert code == 1

    def test_stale_baseline_fails_check_only(self, tmp_path):
        write(tmp_path, "m.py", "def f(x=None):\n    return x\n")
        baseline = str(tmp_path / "b.json")
        Baseline(
            [BaselineEntry("falsy-or-default", "gone.py", "was fixed")]
        ).dump(baseline)
        code, _ = self.run(str(tmp_path), "--baseline", baseline)
        assert code == 0  # report mode tolerates staleness
        code, text = self.run("--check", str(tmp_path), "--baseline", baseline)
        assert code == 1
        assert "stale-baseline" in text

    def test_unused_suppression_fails_check(self, tmp_path):
        write(
            tmp_path,
            "m.py",
            "x = 1  # provlint: disable=falsy-or-default - nothing here\n",
        )
        code, text = self.run(
            "--check", str(tmp_path), "--baseline", str(tmp_path / "b.json")
        )
        assert code == 1
        assert "unused-suppression" in text

    def test_json_format(self, tmp_path):
        write(tmp_path, "m.py", FALSY_SOURCE)
        code, text = self.run(
            str(tmp_path),
            "--format",
            "json",
            "--baseline",
            str(tmp_path / "b.json"),
        )
        assert code == 1
        data = json.loads(text)
        assert data["findings"][0]["rule"] == "falsy-or-default"
        assert data["findings"][0]["line"] == 3
        assert data["ok"] is False

    def test_syntax_error_reported_not_fatal(self, tmp_path):
        write(tmp_path, "bad.py", "def broken(:\n")
        write(tmp_path, "good.py", "x = 1\n")
        code, text = self.run(
            "--check", str(tmp_path), "--baseline", str(tmp_path / "b.json")
        )
        assert code == 1
        assert "parse-error" in text
