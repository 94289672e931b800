import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import circlebops
from circlebops import deform, pipeline
from circlebops.bops import build_system
from circlebops.cli import RunConfig, main, parse_trajectory, parse_weight_spec
from circlebops.config import DEFAULT_TOL
from circlebops.moments import closed_form_table

from conftest import INSIDE_COMPLEX_SPEC, STRICT_SPEC


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


def write(tmp_path: Path, name: str, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestCorpus:
    @pytest.mark.parametrize(
        "spec, command, n",
        [
            (INSIDE_COMPLEX_SPEC, "verify-all", 3),
            (STRICT_SPEC, "coeffs", 10),
            (STRICT_SPEC, "coeffs", 15),
            (STRICT_SPEC, "verify-all", 5),
        ],
        ids=[
            "inside-complex-verify-all-3",
            "flagship-coeffs-10",
            "flagship-coeffs-15",
            "flagship-verify-all-5",
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

    def test_raw_moments_reproduce_closed_form_system(self, tmp_path):
        _, table = parse_weight_spec(write(tmp_path, "m.json", RAW_MOMENTS_SPEC))
        via_raw = build_system(table, 6)
        via_closed = build_system(closed_form_table({-1: 1, 0: 2, 1: 1}, 10), 6)
        for a, b in zip(via_raw.levels, via_closed.levels):
            assert np.max(np.abs(a.c - b.c)) < 1e-12
            assert abs(a.kappa - b.kappa) < 1e-12

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

    def test_coeffs_on_relaxed_weight_exits_two(self, tmp_path):
        weight = write(tmp_path, "w.json", LAURENT_SPEC)
        assert main(["coeffs", "--weight", weight, "--out", str(tmp_path)]) == 2

    def test_cmd_flag_alias(self, tmp_path):
        weight = write(tmp_path, "w.json", LAURENT_SPEC)
        code = main(
            ["--cmd", "moments", "--weight", weight, "--n", "3", "--out", str(tmp_path / "m")]
        )
        assert code == 0
        with open(tmp_path / "m" / "moments.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "re", "im"]


class TestRepeatedRuns:
    def test_runs_in_one_process_match_fresh_processes(self, tmp_path):
        # the parser is built once per process and shared by every main call;
        # after other subcommands, --help and bad argv, each run must still
        # write what the same argv writes in a process of its own
        weight = write(tmp_path, "w.json", STRICT_SPEC)
        traj = write(tmp_path, "t.json", TRAJ_SPEC)
        runs = [
            ["moments", "--weight", weight, "--n", "2", "--quad-points", "128"],
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
        cfg = RunConfig(weight, "deform", n=2, steps=32)
        path = parse_trajectory(traj, parse_weight_spec(weight)[0])
        initial, _ = deform.moment_rebuild(path, path.t0, 2, cfg.quad(), cfg.tol())
        for row, st in zip(rows[1:], deform.integrate_flow(initial, path, (path.t0, path.t1), 32)):
            want = [st.t]
            for value in [st.kappa, st.r, st.rbar, *st.a.ravel().tolist()]:
                want += [value.real, value.imag]
            assert [float(cell) for cell in row] == want

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


class TestOneBundle:
    ARGS = ["--n", "3", "--seed", "5", "--quad-points", "512", "--tol", "2"]

    @pytest.mark.parametrize(
        "spec, commands",
        [
            (STRICT_SPEC, ("build", "assoc", "coeffs", "rhp-check")),
            (LAURENT_SPEC, ("build", "assoc", "rhp-check")),
        ],
        ids=["flagship", "laurent"],
    )
    def test_verify_all_files_match_subcommands(self, tmp_path, spec, commands):
        weight = write(tmp_path, "w.json", spec)
        argv = ["--weight", weight] + self.ARGS
        assert main(["verify-all"] + argv + ["--out", str(tmp_path / "all")]) == 0
        for command in commands:
            solo = tmp_path / command
            assert main([command] + argv + ["--out", str(solo)]) == 0
            for path in solo.iterdir():
                assert path.read_bytes() == (tmp_path / "all" / path.name).read_bytes(), (
                    command, path.name,
                )

    def test_verify_all_builds_one_bundle(self, tmp_path, monkeypatch):
        calls = []
        real = pipeline.compute_moments
        monkeypatch.setattr(
            pipeline, "compute_moments", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        weight = write(tmp_path, "w.json", STRICT_SPEC)
        assert main(["verify-all", "--weight", weight, "--n", "2", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_quadrature_and_tolerances_reach_every_suite(self, tmp_path, monkeypatch):
        # every moment table, deform's rebuilds included, comes from pipeline
        quads, tols = [], []
        real = pipeline.compute_moments

        def moments(w, window, quad):
            quads.append(quad)
            return real(w, window, quad)

        monkeypatch.setattr(pipeline, "compute_moments", moments)
        real_quad = pipeline.compute_coeff_quad

        def coeff_quad(*args, tol, **kwargs):
            tols.append(tol)
            return real_quad(*args, tol=tol, **kwargs)

        monkeypatch.setattr(pipeline, "compute_coeff_quad", coeff_quad)
        weight = write(tmp_path, "w.json", STRICT_SPEC)
        traj = write(tmp_path, "t.json", TRAJ_SPEC)
        argv = ["--weight", weight, "--n", "2", "--quad-points", "512", "--tol", "2"]
        for command in ("moments", "build", "assoc", "coeffs", "verify-all",
                        "rhp-check", "deform", "heine-check"):
            quads.clear()
            extra = ["--trajectory", traj, "--steps", "16"] if command == "deform" else []
            assert main([command] + argv + extra + ["--out", str(tmp_path / command)]) in (0, 1)
            assert quads and all(q.start_points == 512 for q in quads), command
        assert tols and all(t == DEFAULT_TOL.scaled(2.0) for t in tols)


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

    def test_validation_report_emitted(self, tmp_path):
        weight_path = tmp_path / "w.json"
        weight_path.write_text(json.dumps(STRICT_SPEC), encoding="utf-8")
        main(["build", "--weight", str(weight_path), "--n", "3", "--out", str(tmp_path / "v")])
        report = json.loads((tmp_path / "v" / "validation_report.json").read_text())
        assert report["passed"] is True
        assert any(
            c["name"] == "exponents_not_nonnegative_integers" for c in report["conditions"]
        )
