import csv
import io
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import circlebops
from circlebops import cli, deform, moments, pipeline
from circlebops import weight as weight_module
from circlebops.bops import BopsSystem, build_system
from circlebops.cli import main, parse_trajectory, parse_weight_spec
from circlebops.moments import compute_moments, table_from_moments
from circlebops.weight import weight_from_json

from conftest import COMPLEX_M4_SPEC, INSIDE_COMPLEX_SPEC, STRICT_SPEC


LAURENT_SPEC = {
    "singularities": [
        {"z": [0, 0], "rho": [-1, 0]},
        {"z": [-1, 0], "rho": [2, 0]},
    ],
    "strict": False,
}

RAW_MOMENTS_SPEC = {
    "moments": [[k, 0.0, 0.0] for k in range(-10, -1)]
    + [[-1, 1.0, 0.0], [0, 2.0, 0.0], [1, 1.0, 0.0]]
    + [[k, 0.0, 0.0] for k in range(2, 11)]
}

TRAJ_SPEC = {"j": 2, "path": "linear", "from": [2, 0], "to": [2.1, 0], "t0": 0.0, "t1": 0.1}

# z^9.5 (z - 0.9)^-10.5 (z - 2)^0.5: max |w_k| is about 1.2e8
LARGE_MOMENTS_SPEC = {
    "singularities": [
        {"z": [0, 0], "rho": [9.5, 0]},
        {"z": [0.9, 0], "rho": [-10.5, 0]},
        {"z": [2, 0], "rho": [0.5, 0]},
    ],
    "strict": True,
}


NO_TRAJECTORY = object()  # a deform run without --trajectory
NAN, INF = float("nan"), float("inf")  # json.dumps writes them as NaN and Infinity


class RawJSON(str):
    """A spec's text as written, for a literal json.dumps never writes."""


HUGE_T1 = RawJSON('{"j": 2, "to": [2, -0.05], "t1": 1e400}')  # 1e400 parses to inf


def write(tmp_path: Path, name: str, payload) -> str:
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, RawJSON) else json.dumps(payload), encoding="utf-8")
    return str(path)


class TestCorpus:
    @pytest.mark.parametrize(
        "spec, command, n",
        [
            (INSIDE_COMPLEX_SPEC, "verify-all", 3),
            (STRICT_SPEC, "verify-all", 0),
            (STRICT_SPEC, "coeffs", 10),
            (STRICT_SPEC, "coeffs", 15),
            (STRICT_SPEC, "verify-all", 5),
            (COMPLEX_M4_SPEC, "verify-all", 5),
            (STRICT_SPEC, "verify-all", 7),
            (COMPLEX_M4_SPEC, "verify-all", 7),
            (STRICT_SPEC, "rhp-check", 14),
        ],
        ids=[
            "inside-complex-verify-all-3",
            "flagship-verify-all-0",
            "flagship-coeffs-10",
            "flagship-coeffs-15",
            "flagship-verify-all-5",
            "complex-m4-verify-all-5",
            "flagship-verify-all-7",
            "complex-m4-verify-all-7",
            "flagship-rhp-check-14",
        ],
    )
    def test_passes(self, tmp_path, capsys, spec, command, n):
        weight = write(tmp_path, "w.json", spec)
        code = main([command, "--weight", weight, "--n", str(n), "--out", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().out


class TestParseWeightSpec:
    def test_singularity_form_round_trips(self, tmp_path):
        weight, table = parse_weight_spec(write(tmp_path, "w.json", STRICT_SPEC))
        assert table is None
        assert weight.m == 3
        assert weight.singularities[1].location == 2

    def test_raw_moments_form(self, tmp_path):
        weight, table = parse_weight_spec(write(tmp_path, "m.json", RAW_MOMENTS_SPEC))
        assert weight is None
        assert table.moment(0) == 2.0

    def test_integral_floats_parse_as_integers(self, tmp_path):
        # a moments row's k and a trajectory's j written as 1.0 and 2.0 read as 1 and 2
        rows = [[float(k), re, im] for k, re, im in RAW_MOMENTS_SPEC["moments"]]
        _, table = parse_weight_spec(write(tmp_path, "m.json", {"moments": rows}))
        assert np.array_equal(table.values, parse_weight_spec(write(tmp_path, "r.json", RAW_MOMENTS_SPEC))[1].values)
        weight = weight_from_json(STRICT_SPEC)
        traj = parse_trajectory(write(tmp_path, "t.json", {"j": 2.0, "to": [2, -0.05]}), weight)
        assert traj.moving == 1

    def test_raw_moments_reproduce_closed_form_system(self, tmp_path):
        _, table = parse_weight_spec(write(tmp_path, "m.json", RAW_MOMENTS_SPEC))
        via_raw = build_system(table, 6)
        via_closed = build_system(table_from_moments([(-1, 1), (0, 2), (1, 1)], 10), 6)
        assert np.max(np.abs(via_raw.phi - via_closed.phi)) < 1e-12
        assert np.max(np.abs(via_raw.kappas - via_closed.kappas)) < 1e-12

    def test_strict_and_annulus_members_are_not_read(self, tmp_path):
        # members of earlier spec versions: the weight and its validation
        # report are those of the spec without them
        plain = {"singularities": STRICT_SPEC["singularities"]}
        legacy = {**plain, "strict": False, "annulus": ["a", 2]}
        for name, spec in (("plain", plain), ("legacy", legacy)):
            assert main(["build", "--weight", write(tmp_path, f"{name}.json", spec), "--n", "2",
                         "--out", str(tmp_path / name)]) == 0
        assert parse_weight_spec(write(tmp_path, "l.json", legacy))[0] == weight_from_json(plain)
        assert ((tmp_path / "legacy" / "validation_report.json").read_bytes()
                == (tmp_path / "plain" / "validation_report.json").read_bytes())

    def test_trajectory_from_is_the_principal_weight_there(self, tmp_path):
        # 'from' starts the flow from a fresh weight on sheet 0, not from the
        # spec's weight continued to 'from' (one sheet up for 2 -> 2+0.05i)
        weight = weight_from_json(STRICT_SPEC)
        traj = parse_trajectory(write(tmp_path, "t.json", {"j": 2, "from": [2, 0.05], "to": [2, 0.1]}), weight)
        fresh = weight_from_json({"singularities": [
            STRICT_SPEC["singularities"][0], {"z": [2, 0.05], "rho": [0.5, 0]}, STRICT_SPEC["singularities"][2],
        ]})
        assert traj.weight0 == fresh
        assert [s.sheet for s in traj.weight0.singularities] == [0, 0, 0]
        assert weight.with_locations(fresh.locations).singularities[1].sheet == 1

    def test_ambiguous_spec_rejected(self, tmp_path):
        payload = dict(STRICT_SPEC)
        payload["moments"] = [[0, 1.0, 0.0]]
        path = write(tmp_path, "both.json", payload)
        from circlebops.errors import CircleBopsError

        with pytest.raises(CircleBopsError):
            parse_weight_spec(path)


class TestExitCodes:
    def test_verify_all_laurent_passes(self, tmp_path):
        weight = write(tmp_path, "w.json", LAURENT_SPEC)
        code = main(
            ["verify-all", "--weight", weight, "--n", "3", "--out", str(tmp_path / "out")]
        )
        assert code == 0
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert report["passed"] is True
        assert report["schema"] == "v1"

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        assert main(["build", "--weight", str(path), "--out", str(tmp_path)]) == 2

    def test_existence_failure_exits_two(self, tmp_path):
        # all-ones moments: I^0_2 = 0
        payload = {"moments": [[k, 1.0, 0.0] for k in range(-8, 9)]}
        weight = write(tmp_path, "degen.json", payload)
        assert main(["build", "--weight", weight, "--n", "4", "--out", str(tmp_path)]) == 2

    def test_build_past_the_ceiling_exits_one(self, tmp_path):
        # the system exists at N = 40; double-precision orthonormality fails
        weight = write(tmp_path, "w.json", STRICT_SPEC)
        assert main(["build", "--weight", weight, "--n", "40", "--out", str(tmp_path / "b")]) == 1
        report = json.loads((tmp_path / "b" / "identity_report.json").read_text())
        assert "orthonormality" in {e["name"] for e in report["entries"] if not e["passed"]}

    def test_moments_on_degenerate_table_exits_zero(self, tmp_path):
        # the all-ones table has no system from level 2 on; moments builds none
        payload = {"moments": [[k, 1.0, 0.0] for k in range(-8, 9)]}
        weight = write(tmp_path, "degen.json", payload)
        assert main(["moments", "--weight", weight, "--n", "4", "--out", str(tmp_path / "m")]) == 0
        with open(tmp_path / "m" / "determinants.csv", newline="") as fh:
            rows = {(r[0], r[1]): complex(float(r[2]), float(r[3])) for r in list(csv.reader(fh))[1:]}
        assert rows[("0", "1")] == 1.0
        assert abs(rows[("0", "2")]) < 1e-15

    def test_window_too_small_exits_two(self, tmp_path):
        payload = {"moments": [[-1, 1.0, 0.0], [0, 2.0, 0.0], [1, 1.0, 0.0]]}
        weight = write(tmp_path, "small.json", payload)
        assert main(["build", "--weight", weight, "--n", "4", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command", ["moments", "build", "verify-all"])
    def test_inside_singularity_at_the_circle_exits_two(self, tmp_path, capsys, command):
        # at |z_2| = 1 - 1e-9 the moment series would need about 4e10 orders:
        # refused at once, not computed until memory or time runs out
        spec = {"singularities": [{"z": [0, 0], "rho": [-1.5, 0]}, {"z": [1 - 1e-9, 0], "rho": [0.5, 0]},
                                  {"z": [2, 0], "rho": [0.5, 0]}], "strict": True}
        weight = write(tmp_path, "w.json", spec)
        start = time.perf_counter()
        assert main([command, "--weight", weight, "--n", "4", "--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 5.0
        assert "too close to the circle" in capsys.readouterr().err

    def test_large_moments_meet_the_trapezoid_on_their_scale(self, tmp_path):
        # the trapezoid converges by 2,048 points to about 3e-14 of max |w_k|;
        # an absolute stop rule would double to QUAD_MAX_POINTS and exit 2
        weight = write(tmp_path, "w.json", LARGE_MOMENTS_SPEC)
        start = time.perf_counter()
        assert main(["build", "--weight", weight, "--n", "4", "--out", str(tmp_path / "b")]) == 0
        assert time.perf_counter() - start < 1.0
        report = json.loads((tmp_path / "b" / "identity_report.json").read_text())
        (entry,) = [e for e in report["entries"] if e["name"] == "moments_vs_quadrature"]
        assert entry["passed"] and "where" not in entry
        assert main(["verify-all", "--weight", weight, "--n", "4", "--out", str(tmp_path / "v")]) in (0, 1)

    def test_unconverged_trapezoid_fails_its_entry(self, tmp_path, monkeypatch):
        monkeypatch.setattr(moments, "QUAD_MAX_POINTS", 512)
        weight = write(tmp_path, "w.json", LARGE_MOMENTS_SPEC)
        assert main(["build", "--weight", weight, "--n", "4", "--out", str(tmp_path / "b")]) == 1
        report = json.loads((tmp_path / "b" / "identity_report.json").read_text())
        (entry,) = [e for e in report["entries"] if not e["passed"]]
        assert entry["name"] == "moments_vs_quadrature"
        assert entry["residual"] == float("inf")
        assert entry["where"].startswith("unconverged at 512 points, last change ")

    def test_unknown_branch_convention_exits_two(self, tmp_path):
        spec = {**STRICT_SPEC, "branch": {"convention": "principal"}}
        weight = write(tmp_path, "w.json", spec)
        assert main(["build", "--weight", weight, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "weight_spec, trajectory, message",
        [
            (STRICT_SPEC, {"to": [2, -0.05]}, "member 'j'"),
            (STRICT_SPEC, {"j": 2, "from": [2, 0]}, "member 'to'"),
            (STRICT_SPEC, {"j": 7, "from": [2, 0], "to": [2, -0.05]}, "'j' = 7 names no singularity"),
            (
                {"singularities": [{"z": [0, 0], "rho": [-1, 0]}, {"z": [2, 0]}], "strict": True},
                None,
                "singularity 2 needs the member 'rho'",
            ),
            (STRICT_SPEC, {"j": 2, "to": 5}, "trajectory 'to' must be a pair of numbers"),
            (STRICT_SPEC, [], "trajectory spec must be a JSON object"),
            (
                {"singularities": [{"z": [0, 0], "rho": [-1, 0]}, {"z": 5, "rho": [0.5, 0]}]},
                None,
                "singularity 2 'z' must be a pair of numbers",
            ),
            (STRICT_SPEC, {"j": [2], "to": [2, -0.05]}, "trajectory 'j' must be a number"),
            ({**STRICT_SPEC, "branch": ["radial"]}, None, "'branch' must be an object"),
            (5, None, "weight spec must be a JSON object"),
            ({"moments": 5}, None, "'moments' must be a list of [k, re, im] rows"),
            ({"moments": [[0, "1", 0]]}, None, "moments row 1 must be [k, re, im] numbers"),
            ({"moments": [[-1, 1.0, 0.0], [0, 2.0]]}, None, "moments row 2 must be [k, re, im] numbers"),
            ({"strict": True}, None, "weight spec needs 'singularities' or 'moments'"),
            (STRICT_SPEC, {"j": 2, "path": "circle", "to": [2, -0.05]}, "unsupported trajectory path 'circle'"),
            (LAURENT_SPEC, {"j": 2, "to": [-1, -0.05]}, "deformation flows need a strict semi-classical weight"),
            (STRICT_SPEC, NO_TRAJECTORY, "deform needs --trajectory PATH"),
            (
                {"singularities": [{"z": [0, 0], "rho": [-1, 0]}, {"z": [NAN, 0], "rho": [0.5, 0]}]},
                None,
                "singularity 2 'z' must be finite, got [nan, 0]",
            ),
            (
                {"singularities": [{"z": [0, 0], "rho": [-1, 0]}, {"z": [2, 0], "rho": [INF, 0]}]},
                None,
                "singularity 2 'rho' must be finite, got [inf, 0]",
            ),
            ({"moments": [[0, 1.0, 0.0], [1, 0.5, -INF]]}, None, "moments row 2 must be finite"),
            (STRICT_SPEC, {"j": 2, "to": [2, NAN]}, "trajectory 'to' must be finite"),
            (STRICT_SPEC, {"j": 2, "from": [INF, 0], "to": [2, -0.05]}, "trajectory 'from' must be finite"),
            (STRICT_SPEC, {"j": 2, "to": [2, -0.05], "t0": NAN}, "trajectory 't0' must be finite, got nan"),
            (STRICT_SPEC, HUGE_T1, "trajectory 't1' must be finite, got inf"),
            (STRICT_SPEC, {"j": 2.7, "to": [2, -0.05]}, "trajectory 'j' must be an integer, got 2.7"),
            ({"moments": [[0, 1.0, 0.0], [0.5, 0.1, 0.0]]}, None, "moments row 2 'k' must be an integer, got 0.5"),
            (
                STRICT_SPEC,
                {"j": 2, "to": [2, -0.05], "t0": -1e308, "t1": 1e308},
                "the time span t1 - t0 must be finite, got inf",
            ),
        ],
        ids=["trajectory-without-j", "trajectory-without-to", "trajectory-j-past-m", "weight-without-rho",
             "trajectory-to-not-a-pair", "trajectory-not-an-object", "weight-z-not-a-pair",
             "trajectory-j-not-a-number", "weight-branch-not-an-object",
             "weight-not-an-object", "moments-not-a-list", "moments-row-not-numbers",
             "moments-row-of-two", "weight-without-singularities-or-moments", "trajectory-path-not-linear",
             "deform-on-relaxed-weight", "deform-without-trajectory", "weight-z-nan", "weight-rho-infinity",
             "moments-row-infinity", "trajectory-to-nan", "trajectory-from-infinity", "trajectory-t0-nan",
             "trajectory-t1-1e400", "trajectory-j-not-an-integer", "moments-row-k-not-an-integer",
             "trajectory-span-overflows"],
    )
    @pytest.mark.filterwarnings("error")
    def test_malformed_spec_exits_two(self, tmp_path, capsys, weight_spec, trajectory, message):
        # a missing member, a member of the wrong type or shape, a number
        # that is not finite, an index past the weight, or a deform run the
        # weight or flags cannot make is a malformed input: exit 2 with the
        # cause named and no warning, not a KeyError, IndexError, TypeError,
        # AttributeError or OverflowError
        weight = write(tmp_path, "w.json", weight_spec)
        argv = ["build", "--weight", weight, "--n", "2"]
        if trajectory is not None:
            argv = ["deform", "--weight", weight, "--n", "2", "--steps", "4"]
            if trajectory is not NO_TRAJECTORY:
                argv += ["--trajectory", write(tmp_path, "t.json", trajectory)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["build", "verify-all"])
    def test_negative_level_exits_two(self, tmp_path, capsys, command):
        weight = write(tmp_path, "w.json", STRICT_SPEC)
        assert main([command, "--weight", weight, "--n", "-1", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "--n" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"), ("--seed", "-1"),
    ])
    @pytest.mark.parametrize("command", ["build", "verify-all"])
    def test_bad_tolerance_or_seed_exits_two(self, tmp_path, capsys, command, flag, value):
        weight = write(tmp_path, "w.json", STRICT_SPEC)
        argv = [command, "--weight", weight, "--n", "2", flag, value, "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_coeffs_on_relaxed_weight_exits_two(self, tmp_path):
        weight = write(tmp_path, "w.json", LAURENT_SPEC)
        assert main(["coeffs", "--weight", weight, "--out", str(tmp_path)]) == 2

    def test_cmd_flag_alias(self, tmp_path, capsys):
        weight = write(tmp_path, "w.json", LAURENT_SPEC)
        code = main(
            ["--cmd", "moments", "--weight", weight, "--n", "3", "--out", str(tmp_path / "m")]
        )
        assert code == 0
        with open(tmp_path / "m" / "moments.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "re", "im"]
        # --cmd with no name after it names no subcommand: exit 2, one error line
        capsys.readouterr()
        assert main(["--weight", weight, "--out", str(tmp_path / "none"), "--cmd"]) == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1 and "Traceback" not in err
        assert not (tmp_path / "none").exists()


class TestRepeatedRuns:
    def test_runs_in_one_process_match_fresh_processes(self, tmp_path):
        # the parser is built once per process and shared by every main call;
        # after other subcommands, --help and bad argv, each run must still
        # write what the same argv writes in a process of its own
        weight = write(tmp_path, "w.json", STRICT_SPEC)
        traj = write(tmp_path, "t.json", TRAJ_SPEC)
        runs = [
            ["build", "--weight", weight, "--n", "2", "--tol", "2"],
            ["deform", "--weight", weight, "--trajectory", traj, "--n", "1", "--steps", "8"],
            ["--cmd", "build", "--weight", weight, "--n", "3", "--seed", "5"],
            ["moments", "--weight", weight, "--n", "3"],  # defaults after the options above
            # two seeds back to back: no state of one verify-all reaches the next
            ["verify-all", "--weight", weight, "--n", "4", "--seed", "3"],
            ["verify-all", "--weight", weight, "--n", "4", "--seed", "11"],
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(circlebops.__file__).parents[1])}
        for i, argv in enumerate(runs):
            assert main(["--help"]) == 0
            assert main(["build", "--n", "x"]) == 2
            assert main(argv + ["--out", str(tmp_path / f"same{i}")]) == 0
            fresh = tmp_path / f"fresh{i}"
            cmd = [sys.executable, "-m", "circlebops.cli", *argv, "--out", str(fresh)]
            assert subprocess.run(cmd, env=env, capture_output=True).returncode == 0
            names = sorted(p.name for p in fresh.iterdir())
            assert names and names == sorted(p.name for p in (tmp_path / f"same{i}").iterdir())
            for name in names:
                assert (tmp_path / f"same{i}" / name).read_bytes() == (fresh / name).read_bytes()


class TestArtifacts:
    def test_moments_csv_values(self, tmp_path):
        weight = write(tmp_path, "w.json", LAURENT_SPEC)
        main(["moments", "--weight", weight, "--n", "3", "--out", str(tmp_path / "m")])
        with open(tmp_path / "m" / "determinants.csv", newline="") as fh:
            rows = {(r[0], r[1]): complex(float(r[2]), float(r[3])) for r in list(csv.reader(fh))[1:]}
        assert abs(rows[("0", "3")] - 4.0) < 1e-9
        assert abs(rows[("1", "3")] - 1.0) < 1e-9

    def test_build_outputs_system_json(self, tmp_path):
        weight = write(tmp_path, "w.json", LAURENT_SPEC)
        main(["build", "--weight", weight, "--n", "4", "--out", str(tmp_path / "b")])
        system = json.loads((tmp_path / "b" / "system.json").read_text())
        lev1 = system["levels"][1]
        assert abs(lev1["r"][0] + 0.5) < 1e-10
        assert system["method"] == "both"

    def test_deform_flow_csv(self, tmp_path):
        weight = write(tmp_path, "w.json", STRICT_SPEC)
        traj = write(tmp_path, "t.json", TRAJ_SPEC)
        code = main(
            [
                "deform", "--weight", weight, "--trajectory", traj,
                "--n", "2", "--steps", "32", "--out", str(tmp_path / "d"),
            ]
        )
        assert code == 0
        with open(tmp_path / "d" / "flow.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 34  # header + 33 grid points
        report = json.loads((tmp_path / "d" / "deform_report.json").read_text())
        assert report["passed"] is True
        # every flowed value is written exactly: t, kappa, r, rbar, then the
        # m = 3 residue matrices entry by entry, and nothing else
        assert {len(row) for row in rows} == {7 + 8 * 3}
        path = parse_trajectory(traj, parse_weight_spec(weight)[0])
        initial, _, _ = deform.moment_rebuild(path, path.t0, 2)
        times, flow = deform.integrate_flow(initial, path, (path.t0, path.t1), 32)
        assert len(rows) == len(flow) + 1
        for row, t, y in zip(rows[1:], times.tolist(), flow.tolist()):
            want = [t]
            for value in y[-3:] + y[:12]:  # kappa, r, rbar, then A_1..A_3
                want += [value.real, value.imag]
            assert [float(cell) for cell in row] == want

    def test_csv_files_are_csv_writer_bytes(self, tmp_path, monkeypatch):
        # every CSV of verify-all, deform and moments runs, written again
        # from the same rows through csv.writer, gives the same bytes
        written = []
        write_csv = cli._write_csv

        def spy(path, header, rows):
            written.append((path, header, rows))
            write_csv(path, header, rows)

        monkeypatch.setattr(cli, "_write_csv", spy)
        weight = write(tmp_path, "w.json", STRICT_SPEC)
        traj = write(tmp_path, "t.json", TRAJ_SPEC)
        for argv in (
            ["verify-all", "--n", "4"],
            ["deform", "--trajectory", traj, "--n", "2", "--steps", "8"],
            ["moments", "--n", "3"],
        ):
            assert main(argv + ["--weight", weight, "--out", str(tmp_path / argv[0])]) == 0
        assert sorted(Path(path).name for path, _, _ in written) == [
            "determinants.csv", "eps_samples.csv", "flow.csv", "moments.csv", "psi_coefficients.csv"
        ]
        for path, header, rows in written:
            assert {type(x) for row in rows for x in row} <= {int, float}
            buf = io.StringIO(newline="")
            writer = csv.writer(buf)
            writer.writerow(header)
            writer.writerows(rows)
            assert Path(path).read_bytes() == buf.getvalue().encode("utf-8")

    @pytest.mark.parametrize("steps, resolved", [(32, True), (256, True)])
    def test_deform_richardson_resolved(self, tmp_path, steps, resolved):
        # a 256-step flow alone is round-off (both errors about 3e-14), so
        # its check resolves on a coarser grid than the flow
        weight = write(tmp_path, "w.json", STRICT_SPEC)
        traj = write(tmp_path, "t.json", TRAJ_SPEC)
        argv = ["deform", "--weight", weight, "--trajectory", traj, "--n", "2"]
        assert main(argv + ["--steps", str(steps), "--out", str(tmp_path / "d")]) == 0
        report = json.loads((tmp_path / "d" / "deform_report.json").read_text())
        conv = report["notes"]["richardson"]
        assert conv["resolved"] is resolved
        assert 12.0 <= conv["ratio"] <= 20.0
        assert conv["steps"] < steps


class TestDeterminism:
    def test_verify_all_reports_identical(self, tmp_path):
        weight = write(tmp_path, "w.json", STRICT_SPEC)
        for sub in ("r1", "r2"):
            code = main(
                [
                    "verify-all", "--weight", weight, "--n", "2",
                    "--seed", "11", "--out", str(tmp_path / sub),
                ]
            )
            assert code == 0
        for name in (
            "verify_report.json",
            "identity_report.json",
            "coeffs_report.json",
            "matrix_report.json",
            "rhp_report.json",
        ):
            a = (tmp_path / "r1" / name).read_bytes()
            b = (tmp_path / "r2" / name).read_bytes()
            assert a == b, name


    def test_recurrences_read_no_seed(self, tmp_path):
        # the 17 recurrence families are checked on coefficients: each
        # residual is the same bits at any seed, while the points move
        weight = write(tmp_path, "w.json", STRICT_SPEC)
        families = {"coupled_recurrence", "coupled_recurrence_star", "three_term_recurrence",
                    "three_term_recurrence_star", "psi_three_term", "psistar_three_term",
                    *(f"linear_{tag}" for tag in "abcdefghijk")}
        seen = set()
        for command, n, report in (("build", "8", "identity_report.json"), ("assoc", "4", "assoc_report.json"),
                                   ("coeffs", "4", "coeffs_report.json")):
            rows = []
            for seed in ("3", "11"):
                out = tmp_path / f"{command}-{seed}"
                assert main([command, "--weight", weight, "--n", n, "--seed", seed, "--out", str(out)]) == 0
                entries = json.loads((out / report).read_text())["entries"]
                rows.append([(e["name"], e["n"], e["residual"].hex()) for e in entries if e["name"] in families])
            assert rows[0] == rows[1], command
            seen |= {name for name, _, _ in rows[0]}
        assert seen == families
        samples = [(tmp_path / f"assoc-{seed}" / "eps_samples.csv").read_bytes() for seed in ("3", "11")]
        assert samples[0] != samples[1]


class TestOneBundle:
    ARGS = ["--n", "3", "--seed", "5", "--tol", "2"]

    @pytest.mark.parametrize(
        "spec, commands, args",
        [
            (STRICT_SPEC, ("build", "assoc", "coeffs", "rhp-check"), ARGS),
            (LAURENT_SPEC, ("build", "assoc", "rhp-check"), ARGS),
            # at the default level psi_n's product rounds by its size, so a
            # command run alone must build the levels verify-all builds
            (STRICT_SPEC, ("assoc", "rhp-check"), []),
            (COMPLEX_M4_SPEC, ("assoc", "rhp-check"), []),
        ],
        ids=["flagship", "laurent", "flagship-default", "complex-m4-default"],
    )
    def test_verify_all_files_match_subcommands(self, tmp_path, spec, commands, args):
        weight = write(tmp_path, "w.json", spec)
        argv = ["--weight", weight] + args
        assert main(["verify-all"] + argv + ["--out", str(tmp_path / "all")]) == 0
        for command in commands:
            solo = tmp_path / command
            assert main([command] + argv + ["--out", str(solo)]) == 0
            for path in solo.iterdir():
                assert path.read_bytes() == (tmp_path / "all" / path.name).read_bytes(), (
                    command, path.name,
                )

    def test_verify_all_builds_one_bundle(self, tmp_path, monkeypatch):
        # one moment table, and one trapezoid check of it in the build suite
        calls = []
        for module, name in ((pipeline, "factorised_moments"), (cli, "compute_moments")):
            real = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
            )
        weight = write(tmp_path, "w.json", STRICT_SPEC)
        assert main(["verify-all", "--weight", weight, "--n", "2", "--out", str(tmp_path)]) == 0
        assert calls == ["factorised_moments", "compute_moments"]

    def test_verify_all_validates_the_weight_once(self, tmp_path, monkeypatch):
        # the parse, the validation report and every strictness test read one
        # relaxed report per weight object: one report is ever made
        seen = []
        real = weight_module.ValidationReport
        monkeypatch.setattr(weight_module, "ValidationReport", lambda: seen.append(1) or real())
        weight = write(tmp_path, "w.json", STRICT_SPEC)
        assert main(["verify-all", "--weight", weight, "--n", "4", "--out", str(tmp_path)]) == 0
        assert len(seen) == 1

    def test_quadrature_reaches_only_the_build_suite(self, tmp_path, monkeypatch):
        # the trapezoid checks the moments in the build suite only; no other
        # command runs it, deform's rebuilds included
        windows = []
        real = moments.compute_moments

        def trapezoid(w, window):
            windows.append(window)
            return real(w, window)

        for module in [m for name, m in sys.modules.items() if name.startswith("circlebops")]:
            if hasattr(module, "compute_moments"):
                monkeypatch.setattr(module, "compute_moments", trapezoid)
        weight = write(tmp_path, "w.json", STRICT_SPEC)
        traj = write(tmp_path, "t.json", TRAJ_SPEC)
        argv = ["--weight", weight, "--n", "2"]
        for command in ("moments", "build", "assoc", "coeffs", "verify-all",
                        "rhp-check", "deform", "heine-check"):
            windows.clear()
            extra = ["--trajectory", traj, "--steps", "16"] if command == "deform" else []
            assert main([command] + argv + extra + ["--out", str(tmp_path / command)]) in (0, 1)
            assert windows == ([48] if command in ("build", "verify-all") else []), command

    def test_tol_scales_every_gate(self, tmp_path):
        # doubling is exact in binary floating point, so every entry's tol
        # must read exactly twice its value at --tol 1
        weight = write(tmp_path, "w.json", STRICT_SPEC)
        traj = write(tmp_path, "t.json", TRAJ_SPEC)
        for command in ("build", "assoc", "coeffs", "verify-all", "rhp-check",
                        "deform", "heine-check"):
            extra = ["--trajectory", traj, "--steps", "16"] if command == "deform" else []
            tols = []
            for scale in ("1", "2"):
                out = tmp_path / command / scale
                argv = [command, "--weight", weight, "--n", "4", "--seed", "3", "--tol", scale]
                assert main(argv + extra + ["--out", str(out)]) in (0, 1), command
                by_entry = {}
                for path in sorted(out.glob("*.json")):
                    for e in json.loads(path.read_text()).get("entries", []):
                        key = (path.name, e["name"], e.get("n"), e.get("where"))
                        by_entry.setdefault(key, []).append(e["tol"])
                tols.append(by_entry)
            once, twice = tols
            assert once and once.keys() == twice.keys(), command
            wrong = [k for k in once if twice[k] != [2.0 * t for t in once[k]]]
            assert not wrong, (command, wrong[:5])

    def test_tol_four_moves_only_the_gates(self, tmp_path):
        # the gate of every report entry is its stated value times --tol: at
        # --tol 4 every entry keeps its name, anchor, n, where and residual,
        # entry by entry, and its gate reads exactly 4 times its gate at
        # --tol 1 (a power of two scales a float exactly); every other file
        # keeps its bytes
        weight = write(tmp_path, "w.json", STRICT_SPEC)
        down = {"j": 2, "path": "linear", "from": [2, 0], "to": [2, -0.05], "t0": 0.0, "t1": 0.1}
        traj = write(tmp_path, "down.json", down)
        keep = lambda e: (e["name"], e["anchor"], e.get("n"), e.get("where"), e["residual"])
        for command in ("build", "assoc", "coeffs", "rhp-check", "heine-check", "deform", "verify-all"):
            extra = ["--n", "4"]
            if command == "deform":
                extra = ["--n", "3", "--trajectory", traj, "--steps", "256"]
            runs = []
            for scale in ("1", "4"):
                out = tmp_path / command / scale
                assert main([command, "--weight", weight, "--tol", scale, *extra, "--out", str(out)]) == 0
                runs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
            once, four = runs
            assert once.keys() == four.keys(), command
            reports = 0
            for name, text in once.items():
                entries = json.loads(text).get("entries") if name.endswith(".json") else None
                if entries is None:
                    assert four[name] == text, (command, name)
                    continue
                reports += 1
                scaled = json.loads(four[name])["entries"]
                assert entries and list(map(keep, scaled)) == list(map(keep, entries)), (command, name)
                assert [e["tol"] for e in scaled] == [4.0 * e["tol"] for e in entries], (command, name)
            assert reports == (6 if command == "verify-all" else 2 if command == "assoc" else 1), command


class TestFootprint:
    def test_no_command_loads_numpy_random_or_openssl(self, tmp_path):
        # the sample points come from random.Random: no command loads
        # numpy.random, nor through it secrets, hashlib and OpenSSL; and
        # numerics does its own polynomial arithmetic, so none loads
        # numpy.polynomial
        weight = write(tmp_path, "w.json", STRICT_SPEC)
        traj = write(tmp_path, "t.json", TRAJ_SPEC)
        script = textwrap.dedent("""\
            import sys
            from circlebops.cli import COMMANDS, main
            weight, traj, out = sys.argv[1:]
            for command in COMMANDS:
                extra = ["--trajectory", traj, "--steps", "8"] if command == "deform" else []
                code = main([command, "--weight", weight, "--n", "2", *extra, "--out", f"{out}/{command}"])
                assert code == 0, command
            banned = ("numpy.random", "secrets", "hashlib", "_hashlib", "numpy.polynomial")
            print(sorted(name for name in banned if name in sys.modules))
        """)
        env = {**os.environ, "PYTHONPATH": str(Path(circlebops.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", script, weight, traj, str(tmp_path)],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[-1] == "[]"


class TestIdentityFailureExit:
    def test_impossible_tolerance_exits_one(self, tmp_path):
        weight_path = tmp_path / "w.json"
        weight_path.write_text(json.dumps(LAURENT_SPEC), encoding="utf-8")
        code = main(
            [
                "build", "--weight", str(weight_path), "--n", "4",
                "--tol", "1e-9", "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1  # residuals cannot beat a 1e-18 ceiling

    def test_tight_tolerance_exits_one(self, tmp_path):
        # U and the quadruples are read ungated: at --tol 1e-10 their
        # out-of-band ratios fail report entries, and nothing exits 2
        weight = write(tmp_path, "w.json", STRICT_SPEC)
        for command in ("coeffs", "verify-all"):
            argv = [command, "--weight", weight, "--n", "2", "--tol", "1e-10"]
            assert main(argv + ["--out", str(tmp_path / command)]) == 1, command

    def test_validation_report_emitted(self, tmp_path):
        weight_path = tmp_path / "w.json"
        weight_path.write_text(json.dumps(STRICT_SPEC), encoding="utf-8")
        main(["build", "--weight", str(weight_path), "--n", "3", "--out", str(tmp_path / "v")])
        report = json.loads((tmp_path / "v" / "validation_report.json").read_text())
        assert report["passed"] is True
        assert any(
            c["name"] == "exponents_not_nonnegative_integers" for c in report["conditions"]
        )


class TestSystemWriter:
    """system.json is written from the store in bulk, one level a line, and
    reads back as the store: every number bit for bit, -0.0 and NaN kept."""

    @staticmethod
    def same_bytes(system, tmp_path) -> bytes:
        cli._dump_system(system, tmp_path / "system.json")
        text = (tmp_path / "system.json").read_bytes()
        payload = json.loads(text)
        levels = payload["levels"]
        assert (payload["schema"], payload["method"]) == ("v1", "both")
        assert payload["existence_log"] == system.existence_log
        assert float.hex(payload["cross_check_deviation"]) == float.hex(system.cross_check_deviation)
        assert sum(b'"cbar"' in line for line in text.splitlines()) == len(levels) == system.nmax + 1
        r, rbar = system.reflections
        for n, level in enumerate(levels):
            assert level["n"] == n
            for key, want in (("c", system.phi[n, : n + 1]), ("cbar", system.phibar[n, : n + 1]),
                              ("kappa", system.kappas[n]), ("r", r[n]), ("rbar", rbar[n])):
                got = np.array(level[key], dtype=float)
                assert got.tobytes() == np.column_stack((want.real, want.imag)).reshape(got.shape).tobytes()
        return text

    @pytest.mark.parametrize("nmax", [0, 1, 8, 32])
    def test_flagship_raw_and_laurent(self, tmp_path, strict, nmax):
        rng = np.random.default_rng(5)
        p = rng.normal(size=7) + 1j * rng.normal(size=7)
        w = np.correlate(p, p, "full") / np.vdot(p, p)  # w_k for k = -6..6
        w[6] += 1.0
        tables = [
            compute_moments(strict["weight"], 48),
            table_from_moments([(k, w[k + 6]) for k in range(-6, 7)], window=40),
            table_from_moments([(-1, 1.0), (0, 2.0), (1, 1.0)], window=40),
        ]
        for table in tables:
            self.same_bytes(build_system(table, nmax), tmp_path)

    def test_synthetic_store(self, tmp_path, laurent):
        # -0.0, a large, a small and a subnormal float in every slot, a NaN
        # cross-check deviation and a logged level
        base = np.array([-0.0 + 1e16j, 1e-05 - 0.0j, 5e-324 + 1.0j])
        phi = np.tril(np.outer([1.0, -2.0, 0.5], np.ones(3))) * base
        system = BopsSystem(laurent["table"], np.array([1e16 - 0.0j, 1e-05 + 5e-324j, -1.0 + 0j]),
                            phi, -phi, [3], [0.0, np.nan, 1e-12])
        text = self.same_bytes(system, tmp_path).decode()
        for literal in ("-0.0", "1e+16", "1e-05", "5e-324", "NaN"):
            assert literal in text, literal
