import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from qprelax.generators import horn_instance
from qprelax.report import compare_report

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("answers", ROOT / "scripts" / "answers.py")
answers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(answers)

ENTRY = {
    "status": "OPTIMAL",
    "value": (2.5).hex(),
    "iterations": 7,
    "certificate_sha256": None,
    "point_sha256": "ab" * 32,
}


def grade(old, new):
    return answers.GROUPS[answers.grade(old, new)]


def with_field(key, value, entry=ENTRY):
    return {**entry, key: value}


class TestGrade:
    """Each pair of entries falls in the first group that holds it."""

    def test_identical_entries_are_bitwise(self):
        assert grade(ENTRY, dict(ENTRY)) == "bitwise"

    def test_one_ulp_is_within_the_tight_tolerance(self):
        ulp = with_field("value", float(np.nextafter(2.5, 3.0)).hex())
        assert grade(ENTRY, ulp) == "within 1e-12"

    def test_values_grade_by_their_distance(self):
        assert grade(ENTRY, with_field("value", (2.5 + 1e-9).hex())) == \
            "within COMPARISON_TOLERANCE"
        assert grade(ENTRY, with_field("value", (2.6).hex())) == "changed"
        assert grade(ENTRY, with_field("iterations", 8)) == "changed"

    def test_changed_bytes_are_not_graded_by_size(self):
        assert grade(ENTRY, with_field("point_sha256", "cd" * 32)) == "changed"

    def test_verdicts_and_missing_entries_change_the_status(self):
        assert grade(ENTRY, with_field("status", "MAX_ITER")) == "status changed"
        assert grade(ENTRY, with_field("certificate_sha256", "ef" * 32)) == "status changed"
        assert grade(ENTRY, None) == "status changed"
        check = with_field("passed.lower bound", True)
        assert grade(check, with_field("passed.lower bound", False)) == "status changed"

    def test_diff_counts_every_key_of_both_files(self):
        out = answers.diff({"a": ENTRY, "b": ENTRY}, {"a": ENTRY, "c": ENTRY})
        assert out["entries"] == 3
        assert out["groups"]["bitwise"] == 1 and out["groups"]["status changed"] == 2
        assert out["differences"] == {"b": "status changed", "c": "status changed"}


class TestCommand:
    """``--diff`` exits 1 only on a status change."""

    def run_diff(self, tmp_path, capsys, old, new):
        paths = [tmp_path / "old.json", tmp_path / "new.json"]
        for path, entries in zip(paths, (old, new)):
            answers.write(entries, path)
        rc = answers.main(["--diff", *map(str, paths)])
        return rc, json.loads(capsys.readouterr().out)

    def test_flipped_status_exits_1(self, tmp_path, capsys):
        rc, out = self.run_diff(tmp_path, capsys, {"x": ENTRY},
                                {"x": with_field("status", "INFEASIBLE")})
        assert rc == 1 and out["differences"] == {"x": "status changed"}

    def test_value_change_exits_0(self, tmp_path, capsys):
        rc, out = self.run_diff(tmp_path, capsys, {"x": ENTRY},
                                {"x": with_field("value", (2.6).hex())})
        assert rc == 0 and out["groups"]["changed"] == 1


class TestReportEntry:
    def test_horn_report_survives_a_write_and_a_read(self, tmp_path):
        entry = answers.report_entry(compare_report(horn_instance()[0]))
        assert entry["DNN.status"] == "UNBOUNDED" and entry["DNN.certificate_sha256"]
        assert entry["oracle.status"] == "OPTIMAL" and entry["vertices"] == 2
        assert sum(key.startswith("passed.") for key in entry) == 9
        path = tmp_path / "answers.json"
        answers.write({"horn5": entry}, path)
        read = answers.read(path)
        assert read == {"horn5": entry}
        assert grade(entry, read["horn5"]) == "bitwise"

    @pytest.mark.parametrize("key", ["oracle.value", "copositivity.min", "DNN.value"])
    def test_values_are_float_hex(self, key):
        entry = answers.report_entry(compare_report(horn_instance()[0]))
        assert isinstance(float.fromhex(entry[key]), float)
