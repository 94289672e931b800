"""Identity reports and the JSON writer: NaN-propagating summaries, one
member per line at the top two levels, values that parse back unchanged and
bytes that repeat."""

import json
import math

import pytest

from circlebops import cli
from circlebops.report import SCHEMA, IdentityReport, dump_json


def nan_report() -> IdentityReport:
    rep = IdentityReport("with a NaN")
    rep.add("a", "first anchor", 1e-12, 1e-9, n=0)
    rep.add("b", "second anchor", float("nan"), 1e-9, n=0)
    rep.add("b", "second anchor", 1e-13, 1e-9, n=1)
    rep.add("a", "first anchor", 3e-12, 1e-9, n=1)
    return rep


def same(a, b) -> bool:
    """Structural equality with NaN equal to NaN and types kept apart."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


class TestSummaries:
    def test_nan_residual_propagates(self):
        rep = nan_report()
        assert not rep.passed
        assert math.isnan(rep.max_residual)
        by_name = rep.max_by_name()
        assert list(by_name) == ["a", "b"]
        assert by_name["a"] == 3e-12
        assert math.isnan(by_name["b"])

    def test_nan_last_or_first_is_kept(self):
        # Python's max drops a NaN that comes after a number, keeps one before
        for order in ((1e-12, float("nan")), (float("nan"), 1e-12)):
            rep = IdentityReport("t")
            for res in order:
                rep.add("x", "anchor", res, 1e-9)
            assert math.isnan(rep.max_residual)
            assert math.isnan(rep.max_by_name()["x"])

    def test_finite_summaries(self):
        rep = IdentityReport("t")
        assert rep.max_residual == 0.0 and rep.max_by_name() == {}
        rep.add("x", "anchor", 2e-10, 1e-9)
        rep.add("x", "anchor", 5e-10, 1e-9)
        rep.add("y", "anchor", float("inf"), 1e-9)
        assert rep.max_residual == float("inf")
        assert rep.max_by_name() == {"x": 5e-10, "y": float("inf")}

    def test_cli_fail_line_shows_nan(self, tmp_path, monkeypatch, capsys):
        weight = tmp_path / "w.json"
        weight.write_text(json.dumps({"moments": [[0, 1.0, 0.0]]}), encoding="utf-8")
        monkeypatch.setitem(cli.HANDLERS, "build", lambda cfg, w, tbl, out: [nan_report()])
        assert cli.main(["build", "--weight", str(weight), "--out", str(tmp_path / "o")]) == 1
        assert "[FAIL] with a NaN: max residual nan" in capsys.readouterr().out


def nested_payload() -> dict:
    rep = nan_report()
    rep.add("c", "third anchor", float("inf"), 1e-9, n=2, where="z_2")
    rep.notes = {
        "levels": {str(n): {"kappa": [1.0, -0.5 * n], "log": []} for n in range(3)},
        "empty_list": [],
        "empty_dict": {},
        "flag": True,
        "none": None,
        "text": "a \"quoted\" κ",
    }
    return rep.to_dict()


class TestWriter:
    def test_round_trip(self, tmp_path):
        payload = nested_payload()
        path = tmp_path / "r.json"
        dump_json(payload, path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("}\n")
        assert same(json.loads(text), json.loads(json.dumps(payload, sort_keys=True)))
        assert json.loads(text)["schema"] == SCHEMA

    def test_empty_and_scalar_members(self, tmp_path):
        payload = {"z": [], "y": {}, "x": 1.5, "w": [[]], "v": {"u": {}}}
        dump_json(payload, tmp_path / "e.json")
        text = (tmp_path / "e.json").read_text(encoding="utf-8")
        assert json.loads(text) == payload
        assert '"y": {},' in text and '"z": []\n' in text

    def test_non_string_keys_are_written_as_json_does(self, tmp_path):
        payload = {"notes": {2: "b", 1: "a"}}
        dump_json(payload, tmp_path / "k.json")
        got = json.loads((tmp_path / "k.json").read_text(encoding="utf-8"))
        assert got == json.loads(json.dumps(payload, sort_keys=True)) == {"notes": {"1": "a", "2": "b"}}

    def test_same_bytes_twice(self, tmp_path):
        dump_json(nested_payload(), tmp_path / "a.json")
        dump_json(nested_payload(), tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("k", [0, 1, 7])
    def test_one_line_per_entry(self, tmp_path, k):
        rep = IdentityReport("lines")
        for n in range(k):
            rep.add("x", "an anchor", 1e-12 * n, 1e-9, n=n, where="z_1")
        dump_json(rep.to_dict(), tmp_path / "r.json")
        lines = (tmp_path / "r.json").read_text(encoding="utf-8").splitlines()
        entry_lines = [line for line in lines if '"anchor"' in line]
        assert len(entry_lines) == k
        for n, line in enumerate(entry_lines):
            assert json.loads(line.strip().rstrip(",")) == rep.entries[n].to_dict()

    def test_top_two_levels_one_member_per_line(self, tmp_path):
        dump_json(nested_payload(), tmp_path / "r.json")
        lines = (tmp_path / "r.json").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "{" and lines[-1] == "}"
        top = [line for line in lines if line.startswith('  "')]
        assert [line.split('"')[1] for line in top] == [
            "entries", "max_residual", "notes", "passed", "schema", "title"
        ]
        notes = [line.strip() for line in lines if line.startswith('    "')]
        assert notes[:2] == ['"empty_dict": {},', '"empty_list": [],']
        assert '"levels": {"0": {"kappa": [1.0, -0.0], "log": []}, ' in notes[3]
