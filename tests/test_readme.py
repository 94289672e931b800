"""The README's library sketch and CLI examples run as written, and its
level-ceiling table holds: every row passes at its level and fails one
level up on the entry it names."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from circlebops.cli import main

from conftest import COMPLEX_M4_SPEC, INSIDE_COMPLEX_SPEC, STRICT_SPEC

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    text = README.read_text(encoding="utf-8")
    sketch = re.search(r"^## Library sketch\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert sketch is not None
    names: dict = {}
    exec(compile(sketch.group(1), "README.md", "exec"), names)
    m = len(names["w"].singularities)
    assert names["times"].shape == (65,)
    assert names["flow"].shape == (65, 4 * m + 7)


def test_cli_examples_run(tmp_path, monkeypatch):
    # each circlebops line of the subcommand block, on the README's weight
    # spec and trajectory written to w.json and t.json, with out/ in tmp_path
    text = README.read_text(encoding="utf-8")
    section = re.search(r"^## CLI\n(.*?)^## ", text, re.S | re.M).group(1)
    blocks = re.findall(r"^```(\w+)\n(.*?)^```", section, re.S | re.M)
    specs = [json.loads(body) for lang, body in blocks if lang == "json"]
    weight = next(spec for spec in specs if "singularities" in spec)
    trajectory = next(spec for spec in specs if "path" in spec)
    (tmp_path / "w.json").write_text(json.dumps(weight), encoding="utf-8")
    (tmp_path / "t.json").write_text(json.dumps(trajectory), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = [line for lang, body in blocks if lang == "sh" for line in body.splitlines()
             if line.startswith("circlebops ")]
    assert len(lines) == 8
    for line in lines:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(shlex.split(line, comments=True)[1:]) == 0, line
    assert (tmp_path / "out" / "verify_report.json").is_file()


SPECS = {"flagship": STRICT_SPEC, "m = 4": COMPLEX_M4_SPEC, "inside-complex": INSIDE_COMPLEX_SPEC}
ROW = re.compile(r"^\| (.+?) \| `(.+?)` \| (\d+) \| `(\w+)` \(.+?\) \|$", re.M)


def ceiling_rows():
    text = README.read_text(encoding="utf-8")
    table = re.search(r"^## Level ceilings\n(.*?)^## ", text, re.S | re.M).group(1)
    return ROW.findall(table)


CELLS = pytest.mark.parametrize(
    "weight, command, level, entry",
    ceiling_rows(),
    ids=[f"{weight.replace(' = ', '')}-{command}" for weight, command, _, _ in ceiling_rows()],
)


def test_ceiling_table_covers_every_weight_and_command():
    cells = {(weight, command) for weight, command, _, _ in ceiling_rows()}
    commands = ("build", "coeffs", "rhp-check", "verify-all")
    assert cells == {(weight, command) for weight in SPECS for command in commands}


@CELLS
def test_ceiling_table_row(weight, command, level, entry, tmp_path):
    # the command exits 0 at its ceiling, and 1 one level up with the named
    # entry among the failures
    spec = tmp_path / "weight.json"
    spec.write_text(json.dumps(SPECS[weight]), encoding="utf-8")
    run = [command, "--weight", str(spec), "--n"]
    assert main(run + [level, "--out", str(tmp_path / "at")]) == 0
    assert main(run + [str(int(level) + 1), "--out", str(tmp_path / "above")]) == 1
    failed = {
        e["name"]
        for path in (tmp_path / "above").glob("*.json")
        for e in json.loads(path.read_text()).get("entries", [])
        if not e["passed"]
    }
    assert entry in failed, failed


@CELLS
def test_above_the_ceiling_exits_one(weight, command, level, entry, tmp_path):
    # an accuracy wall is a failed identity, never a structural error: every
    # fourth level from one above the ceiling through 40 exits 1, with a
    # failing entry in the files it writes
    spec = tmp_path / "weight.json"
    spec.write_text(json.dumps(SPECS[weight]), encoding="utf-8")
    for n in sorted({*range(int(level) + 1, 41, 4), 40}):
        out = tmp_path / str(n)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([command, "--weight", str(spec), "--n", str(n), "--out", str(out)]) == 1, n
        assert any(not e["passed"] for path in out.glob("*.json")
                   for e in json.loads(path.read_text()).get("entries", [])), n
