"""Identity reports and the JSON writer: NaN-propagating summaries, one
member per line at the top two levels, values that parse back unchanged and
bytes that repeat."""

import json
import math
import re
from collections import Counter

import numpy as np
import pytest

from circlebops import cli
from circlebops.numerics import rel_residuals
from circlebops.report import SCHEMA, IdentityReport, PerFamily, dump_json

from conftest import COMPLEX_M4_SPEC, INSIDE_COMPLEX_SPEC, STRICT_SPEC


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


# mismatch rows of the two row families in rows_report
FIRST = np.array([[1e-12, 0.0], [np.nan, 1.0], [3e-10, np.inf]])
OTHER = np.array([[2e-7, 1e-9], [4e-2, 0.0], [1e-8, 3e-7]])


def rows_report() -> IdentityReport:
    """Two row families over three rows, each with a gate of its own (NaN and
    infinite residuals in the first), merged after a one-entry report."""
    rep = IdentityReport("one entry")
    rep.add("lone", "a lone entry", 2.0, 1.0)
    rows = IdentityReport("rows")
    rows.add_rows(
        [("x", "first family", FIRST, np.ones((3, 2))),
         ("y", "κ family", OTHER, [2.0, 1e4, 3.0])],
        [1e-9, 1e-6], [0, 1, 2], ["z_1", "z_2", "z_1"],
    )
    rows.add_rows([("x", "first family", FIRST[:2, 0])], 1e-9, [5, 6])
    rep.extend(rows)
    return rep


def rows_report_by_add() -> IdentityReport:
    """rows_report built one entry at a time with add: row by row, and in a
    row family by family."""
    rep = IdentityReport("one entry")
    rep.add("lone", "a lone entry", 2.0, 1.0)
    x = rel_residuals(FIRST, np.ones((3, 2)))
    y = rel_residuals(OTHER, [2.0, 1e4, 3.0])
    for k, where in enumerate(["z_1", "z_2", "z_1"]):
        rep.add("x", "first family", x[k], 1e-9, n=k, where=where)
        rep.add("y", "κ family", y[k], 1e-6, n=k, where=where)
    for k, r in enumerate(rel_residuals(FIRST[:2, 0])):
        rep.add("x", "first family", r, 1e-9, n=5 + k)
    return rep


def records(entries) -> list[tuple]:
    return [(e.name, e.anchor, e.n, e.where, e.tol.hex(), e.residual.hex(), e.passed)
            for e in entries]


def same_bytes(rep: IdentityReport, tmp_path) -> bool:
    """The report written from its columns and from its to_dict()."""
    dump_json(rep, tmp_path / "columns.json")
    dump_json(rep.to_dict(), tmp_path / "dict.json")
    return (tmp_path / "columns.json").read_bytes() == (tmp_path / "dict.json").read_bytes()


class TestColumns:
    def test_rows_match_entries_added_one_by_one(self):
        rep, ref = rows_report(), rows_report_by_add()
        assert len(rep.entries) == 9
        assert records(rep.entries) == records(ref.entries)
        assert records(rep.failures()) == records(ref.failures())
        assert [e.name for e in rep.failures()] == ["lone", "x", "y", "x", "x"]
        assert same(rep.max_by_name(), ref.max_by_name())
        assert list(rep.max_by_name()) == ["lone", "x", "y"]
        assert math.isnan(rep.max_by_name()["x"]) and rep.max_by_name()["y"] == 4e-6
        assert not rep.passed and math.isnan(rep.max_residual)

    def test_entries_are_read_only_records(self):
        rep = rows_report()
        assert isinstance(rep.entries, tuple)
        assert rep.entries[0].to_dict() == {
            "name": "lone", "anchor": "a lone entry", "residual": 2.0, "tol": 1.0, "passed": False,
        }

    def test_empty_report(self):
        rep = IdentityReport("empty")
        assert rep.passed and rep.entries == () and rep.failures() == []

    def test_groups_interleave_position_by_position(self):
        # a two-axis group (levels by points), a group at the second level
        # only and a one-row-a-level group: at each level their rows in turn
        rep = IdentityReport("groups")
        pts = OTHER.reshape(2, 3)  # two levels by three points
        rep.add_groups([
            ([("p", "points", pts, 2.0 * np.ones((2, 3)))], 1e-6, [[4], [5]], ["a", "b", "c"]),
            ([("s", "second level", FIRST[2:, 0])], 1e-9, [5], None, [1]),
            ([("r", "one row", FIRST[:2, 0]), ("q", "one row", OTHER[:2, 1])], [1e-9, 1e-6], [4, 5], None),
        ])
        ref = IdentityReport("groups")
        for k, n in enumerate((4, 5)):
            for where, residual in zip("abc", rel_residuals(pts[k], 2.0 * np.ones(3))):
                ref.add("p", "points", residual, 1e-6, n=n, where=where)
            if n == 5:
                ref.add("s", "second level", rel_residuals(FIRST[2:, 0])[0], 1e-9, n=5)
            ref.add("r", "one row", rel_residuals(FIRST[:2, 0])[k], 1e-9, n=n)
            ref.add("q", "one row", rel_residuals(OTHER[:2, 1])[k], 1e-6, n=n)
        assert records(rep.entries) == records(ref.entries)

    def test_one_group_with_family_masks_and_wheres(self, tmp_path):
        # one group over levels 3..6: a family at every level, one held at
        # the last three (a mask), one at the first and last with no where;
        # NaN and +-inf residuals, and gates 0.0, -0.0 and 1e-9
        levels = np.array([3, 4, 5, 6])
        a = np.array([[1e-12, 2.0], [np.nan, 1.0], [0.0, -0.0], [3e-10, 1.0]])
        b = np.array([[np.inf, 1.0], [2e-7, 0.5], [0.0, 0.0]])
        c = np.array([-np.inf, 1e-9])
        held = np.array([False, True, True, True]), np.array([True, False, False, True])
        rep = IdentityReport("one group")
        rep.add_groups([(
            [("a", "every level", a, 2.0 * np.ones((4, 2))), ("b", "κ held", b, [1.0, 4.0]), ("c", "ends", c)],
            [0.0, -0.0, 1e-9], levels, PerFamily([["p3", "p4", "p5", "p6"], "z^1", None]), None,
            PerFamily([None, *held]),
        )])
        ref = IdentityReport("one group")
        residuals = [iter(rel_residuals(a, 2.0 * np.ones((4, 2)))), iter(rel_residuals(b, [1.0, 4.0])),
                     iter(rel_residuals(c))]
        for k, n in enumerate(levels.tolist()):
            ref.add("a", "every level", next(residuals[0]), 0.0, n=n, where=f"p{n}")
            if held[0][k]:
                ref.add("b", "κ held", next(residuals[1]), -0.0, n=n, where="z^1")
            if held[1][k]:
                ref.add("c", "ends", next(residuals[2]), 1e-9, n=n)
        assert records(rep.entries) == records(ref.entries)
        assert {e.name: e.tol.hex() for e in rep.entries} == {"a": "0x0.0p+0", "b": "-0x0.0p+0", "c": "0x1.12e0be826d695p-30"}
        assert records(rep.failures()) == records(ref.failures())
        assert same(rep.max_by_name(), ref.max_by_name()) and list(rep.max_by_name()) == ["a", "c", "b"]
        assert same_bytes(rep, tmp_path)
        text = (tmp_path / "columns.json").read_text(encoding="utf-8")
        assert '"residual": NaN, "tol": 0.0' in text and '"residual": Infinity, "tol": -0.0' in text

    def test_rel_residuals_nan_rule(self):
        # a NaN in a term drops that term for its row only; a NaN in the
        # mismatch makes the row's residual NaN, and the entry fails
        mismatch = np.array([[4.0, 0.0], [4.0, 0.0], [np.nan, 0.0]])
        first = np.array([[np.nan, 8.0], [2.0, 8.0], [1.0, 1.0]])
        second = np.array([[2.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        got = rel_residuals(mismatch, first, second)
        assert got[0] == 2.0 and got[1] == 0.5 and math.isnan(got[2])
        rep = IdentityReport("nan rule")
        rep.add_rows([("x", "rows", mismatch, first, second)], 3.0, [0, 1, 2])
        assert [e.passed for e in rep.entries] == [True, True, False] and not rep.passed

    def test_rows_must_match_their_labels(self):
        with pytest.raises(ValueError, match="leading shape"):
            IdentityReport("t").add_rows([("x", "three rows", FIRST[:, 0])], 1e-9, [0, 1])


class TestBulkWriter:
    def test_synthetic_reports(self, tmp_path):
        rep = rows_report()
        rep.add("signs", "an anchor with \"quotes\"", -math.inf, math.inf, n=None, where=None)
        rep.notes = {"levels": {"0": [1.0, math.nan]}, "text": "ünïcode"}
        assert same_bytes(rep, tmp_path)
        text = (tmp_path / "columns.json").read_text(encoding="utf-8")
        assert "NaN" in text and "-Infinity" in text and "\\u03ba family" in text
        assert same_bytes(IdentityReport("no entries"), tmp_path)
        assert '"entries": [],' in (tmp_path / "columns.json").read_text(encoding="utf-8")
        assert same_bytes(nan_report(), tmp_path)
        # repeated gates, 0.0 and -0.0 among them (equal as dict keys, not
        # as text), around NaN and infinite residuals
        gates = IdentityReport("repeated gates")
        rows = [(0.0, 0.0), (math.nan, -0.0), (math.inf, 1e-09), (-0.0, 0.0),
                (1e-10, 1e-09), (0.0, -0.0), (-math.inf, 1e-09), (math.nan, 0.0)]
        for k, (residual, tol) in enumerate(rows):
            gates.add("gate", "gates that repeat", residual, tol, n=k % 3)
        assert same_bytes(gates, tmp_path)
        text = (tmp_path / "columns.json").read_text(encoding="utf-8")
        assert re.findall(r'"tol": ([^,}]+)', text) == [json.dumps(tol) for _, tol in rows]

    @pytest.mark.parametrize("spec, argv, count", [
        (STRICT_SPEC, ["verify-all", "--n", "4"], 6),
        (COMPLEX_M4_SPEC, ["verify-all", "--n", "4"], 6),
        (INSIDE_COMPLEX_SPEC, ["verify-all", "--n", "4"], 6),
        (STRICT_SPEC, ["build", "--n", "21"], 1),
        (STRICT_SPEC, ["deform", "--n", "3", "--steps", "64"], 1),
    ], ids=["flagship", "complex_m4", "inside_complex", "build-21", "deform"])
    def test_every_verify_all_report(self, tmp_path, monkeypatch, spec, argv, count):
        reports = []

        def keep(payload, path):
            if isinstance(payload, IdentityReport):
                reports.append(payload)
            dump_json(payload, path)

        weight, traj = tmp_path / "w.json", tmp_path / "t.json"
        weight.write_text(json.dumps(spec), encoding="utf-8")
        traj.write_text(json.dumps({"j": 2, "to": [2, -0.05], "t1": 0.1}), encoding="utf-8")
        monkeypatch.setattr(cli, "dump_json", keep)
        argv = argv + ["--weight", str(weight), "--trajectory", str(traj), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 0
        assert len(reports) == count
        for rep in reports:
            assert same_bytes(rep, tmp_path), rep.title


class TestVerdicts:
    def test_verify_all_computes_each_verdict_once(self, tmp_path, monkeypatch):
        # a flagship verify-all --n 4 computes each report's verdict once,
        # when its file is written; the summary, the status lines and the
        # exit code read it: 6 calls for six reports
        calls = []
        ok = IdentityReport._ok
        monkeypatch.setattr(IdentityReport, "_ok", lambda rep: calls.append(rep.title) or ok(rep))
        weight = tmp_path / "w.json"
        weight.write_text(json.dumps(STRICT_SPEC), encoding="utf-8")
        argv = ["verify-all", "--weight", str(weight), "--n", "4", "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 0
        assert len(calls) == 6
        assert set(Counter(calls).values()) == {1} and len(set(calls)) == 6
