"""Command-line front end.

Subcommands: moments, build, assoc, coeffs, verify-all, rhp-check, deform,
heine-check.  The flag form ``--cmd NAME`` is accepted as an alias for the
subcommand.  Exit codes: 0 = all identity suites pass, 1 = an identity
failed (the report names it), 2 = structural error (validation, existence,
malformed input, a negative --n or --seed, a --tol that is not positive and
finite).

A run's one point set is drawn from --seed through the standard library's
``random.Random(seed)``, whose ``random()`` stream Python keeps the same
across versions, and reports carry no timestamps, so a fixed configuration
produces byte-identical report files.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from functools import cache
from pathlib import Path

import numpy as np

from .assoc import verify_assoc_identities, verify_expansions
from .bops import BopsSystem, build_system, verify_scalar_identities
from .coeffs import (
    MEMBERS,
    dpainleve_ratio_check,
    spectral_derivative_check,
    verify_bilinear,
    verify_expansion_forms,
    verify_linear_relations,
)
from .deform import LinearTrajectory, verify_flow
from .errors import CircleBopsError, QuadratureError, WeightValidationError
from .lax import rhp_jump_check, verify_matrix_system
from .moments import (
    HEINE_CHECK_TOL,
    QUAD_TOL,
    compute_moments,
    heine_oracle,
    table_from_moments,
    toeplitz_det,
)
from .numerics import circle_samples
from .pipeline import build_bundle, moment_table
from .report import SCHEMA, IdentityReport, _Text, dump_json
from .weight import SemiClassicalWeight, Singularity, finite_number, json_pair, weight_from_json

def parse_weight_spec(path):
    """Accept a singularity-list weight or a raw-moments table.  Returns
    (weight | None, table | None); exactly one is set.  Having both forms in
    one file is ambiguous and rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise WeightValidationError(f"weight spec must be a JSON object, got {payload!r}")
    has_sing = "singularities" in payload
    has_moments = "moments" in payload
    if has_sing and has_moments:
        raise CircleBopsError(
            "ambiguous weight spec: both 'singularities' and 'moments' present"
        )
    if has_moments:
        rows = payload["moments"]
        if not isinstance(rows, list):
            raise WeightValidationError(f"'moments' must be a list of [k, re, im] rows, got {rows!r}")
        for i, row in enumerate(rows, start=1):
            if not (isinstance(row, list) and len(row) == 3
                    and all(isinstance(v, (int, float)) for v in row)):
                raise WeightValidationError(f"moments row {i} must be [k, re, im] numbers, got {row!r}")
            if not all(map(finite_number, row)):
                raise WeightValidationError(f"moments row {i} must be finite, got {row!r}")
            if row[0] != int(row[0]):
                raise WeightValidationError(f"moments row {i} 'k' must be an integer, got {row[0]!r}")
        return None, table_from_moments((int(k), complex(re, im)) for k, re, im in rows)
    if has_sing:
        weight = weight_from_json(payload)
        weight.validation  # raises for duplicate locations or no origin singularity
        return weight, None
    raise CircleBopsError("weight spec needs 'singularities' or 'moments'")


def _write_csv(path, header, rows):
    """An excel-dialect CSV file of int and float rows: a field is the repr
    of its number, as csv.writer writes it, and none needs quoting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def _sample_points(args: argparse.Namespace, weight):
    """The run's one point set: 6 points on |z| = 0.45, then 6 on |z| = 2.2,
    drawn from --seed away from the weight's singularities."""
    rng = random.Random(args.seed)
    avoid = list(weight.locations) if weight is not None else []
    return np.concatenate([circle_samples(rng, 6, radius, avoid=avoid) for radius in (0.45, 2.2)])


def _bundle(args: argparse.Namespace, weight, table, quads: bool = False):
    """The one bundle of a run: levels 0..n+3 on a strict weight and 0..n+2
    otherwise, so that a command run alone builds the levels verify-all
    builds; with ``quads`` also the quadruples 0..n+1 (what coeffs and the
    matrix suite read), which need a strict weight."""
    strict = weight is not None and weight.strict
    if quads and not strict:
        raise CircleBopsError("this pipeline needs a strict regular semi-classical weight")
    return build_bundle(weight if weight is not None else table, args.n + 2 + strict,
                        quad_ns=range(args.n + 2) if quads else ())


# ---------------------------------------------------------------------------
# Subcommand implementations: each returns a list of IdentityReports
# ---------------------------------------------------------------------------

def cmd_moments(args: argparse.Namespace, weight, table, out: Path):
    tbl = moment_table(weight if weight is not None else table, args.n + 1)
    _write_csv(out / "moments.csv", ["k", "re", "im"],
               [[k, w.real, w.imag] for k, w in enumerate(tbl.values.tolist(), -tbl.window)])
    dets = [(eps, n, toeplitz_det(tbl, eps, n)) for eps in (-1, 0, 1) for n in range(args.n + 1)]
    _write_csv(out / "determinants.csv", ["epsilon", "n", "re", "im"],
               [[eps, n, value.real, value.imag] for eps, n, value in dets])
    return []


def _levels(args: argparse.Namespace, weight, table) -> BopsSystem:
    """Levels 0..n of a run: on the raw table, or on the weight's moments."""
    source = weight if table is None else table
    return build_system(moment_table(source, args.n), args.n)


def _dump_system(system: BopsSystem, path: Path) -> None:
    """system.json from the store in bulk: every float of the levels from one
    encoder call, each level's line assembled from their texts; the bytes
    dump_json writes for the payload of one dict a level."""
    size = system.nmax + 1
    tri = np.tril_indices(size)  # row by row, the coefficients of each level
    values = np.concatenate((system.phi[tri], system.phibar[tri], system.kappas,
                             *system.reflections))
    text = json.dumps(values.view(float).tolist())[1:-1].split(", ")
    pairs = ["[%s, %s]" % pair for pair in zip(text[::2], text[1::2])]
    half = len(tri[0])
    c, cbar = ([", ".join(pairs[at + n * (n + 1) // 2 : at + (n + 1) * (n + 2) // 2])
                for n in range(size)] for at in (0, half))
    kappa, r, rbar = (pairs[2 * half + i * size : 2 * half + (i + 1) * size] for i in range(3))
    lines = ['{"c": [%s], "cbar": [%s], "kappa": %s, "n": %d, "r": %s, "rbar": %s}' % row
             for row in zip(c, cbar, kappa, range(size), r, rbar)]
    levels = _Text("[\n    " + ",\n    ".join(lines) + "\n  ]")
    dump_json({"schema": SCHEMA, "method": "both", "cross_check_deviation": system.cross_check_deviation,
               "existence_log": system.existence_log, "levels": levels}, path)


def cmd_build(args: argparse.Namespace, weight, system: BopsSystem, out: Path):
    """The build suite's files and report on the levels of ``system``; on a
    weight also the largest gap of its moments from the trapezoid's, over
    max(1, max_k |w_k|): infinite, so failing, when the trapezoid does not
    converge, its entry then naming the points and the last change."""
    report = verify_scalar_identities(system, _sample_points(args, weight), args.tol)
    if weight is not None:
        dump_json(weight.validation.to_dict(), out / "validation_report.json")
        values = system.table.values
        try:
            gap = np.max(np.abs(values - compute_moments(weight, system.table.window).values))
            gap, where = gap / max(1.0, np.max(np.abs(values))), None
        except QuadratureError as exc:
            gap, where = float("inf"), f"unconverged at {exc.points} points, last change {exc.residual:.3e}"
        report.add("moments_vs_quadrature", "the trigonometric moments of the weight",
                   gap, QUAD_TOL * args.tol, where=where)
    _dump_system(system, out / "system.json")
    dump_json(report, out / "identity_report.json")
    return [report]


def cmd_assoc(args: argparse.Namespace, weight, bundle, out: Path):
    samples = _sample_points(args, weight)
    report, (_, _, eps, epsstar) = verify_assoc_identities(bundle.asys, range(args.n), samples, args.tol)
    exp = verify_expansions(bundle.asys, range(args.n + 1), args.tol)
    _write_csv(out / "psi_coefficients.csv", ["n", "k", "re", "im"],
               [[n, k, c.real, c.imag] for n in range(args.n + 1) for k, c in enumerate(bundle.asys.psi(n).tolist())])
    _write_csv(out / "eps_samples.csv", ["n", "z_re", "z_im", "eps_re", "eps_im", "epsstar_re", "epsstar_im"],
               [[n, z.real, z.imag, e.real, e.imag, es.real, es.imag] for n in range(args.n + 1)
                for z, e, es in zip(samples.tolist(), eps[n].tolist(), epsstar[n].tolist())])
    dump_json(report, out / "assoc_report.json")
    dump_json(exp, out / "assoc_expansions.json")
    return [report, exp]


def cmd_coeffs(args: argparse.Namespace, weight, bundle, out: Path):
    ns = range(args.n + 1)
    reports = [
        verify_expansion_forms(bundle, ns[1:], args.tol),
        verify_linear_relations(bundle, args.tol),
        verify_bilinear(bundle, ns, args.tol),
        spectral_derivative_check(bundle, ns, _sample_points(args, weight), args.tol),
        dpainleve_ratio_check(bundle, range(args.n), args.tol),
    ]
    quads, levels = bundle.quads, bundle.quads.levels.tolist()
    # each member's [[re, im], ...] at every level
    members = [np.stack((c.real, c.imag), axis=-1).tolist() for c in map(quads.member, range(len(MEMBERS)))]
    coeff_payload = {
        "schema": SCHEMA,
        "quads": {str(n): {name: c[k] for name, c in zip(MEMBERS, members)} for k, n in enumerate(levels)},
        "fit_residuals": {str(n): dict(zip(MEMBERS, r)) for n, r in zip(levels, quads.ratios.tolist())},
        "seed": args.seed,
    }
    dump_json(coeff_payload, out / "coeff_functions.json")
    merged = IdentityReport("coefficient-function identity web")
    for r in reports:
        merged.extend(r)
    dump_json(merged, out / "coeffs_report.json")
    return [merged]


def cmd_rhp(args: argparse.Namespace, weight, bundle, out: Path):
    report = rhp_jump_check(bundle, range(1, args.n + 1), args.tol)
    dump_json(report, out / "rhp_report.json")
    return [report]


def parse_trajectory(path, weight) -> LinearTrajectory:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise CircleBopsError("trajectory spec must be a JSON object")
    if payload.get("path", "linear") != "linear":
        raise CircleBopsError(f"unsupported trajectory path {payload.get('path')!r}")
    for key in ("j", "to"):
        if key not in payload:
            raise CircleBopsError(f"trajectory needs the member {key!r}")
    for key in ("j", "t0", "t1"):
        if not finite_number(payload.get(key, 0.0)):
            kind = "finite" if isinstance(payload[key], (int, float)) else "a number"
            raise CircleBopsError(f"trajectory {key!r} must be {kind}, got {payload[key]!r}")
    if payload["j"] != int(payload["j"]):
        raise CircleBopsError(f"trajectory 'j' must be an integer, got {payload['j']!r}")
    j = int(payload["j"]) - 1  # singularities are 1-indexed in the JSON
    if not 0 <= j < weight.m:
        raise CircleBopsError(f"trajectory 'j' = {j + 1} names no singularity of 1..{weight.m}")
    target = complex(*json_pair(payload["to"], "trajectory 'to'"))
    t0 = float(payload.get("t0", 0.0))
    t1 = float(payload.get("t1", 1.0))
    if "from" in payload:
        # the principal weight at 'from', not the spec's continued there
        start = complex(*json_pair(payload["from"], "trajectory 'from'"))
        if start != weight.singularities[j].location:
            sings = list(weight.singularities)
            sings[j] = Singularity(start, sings[j].exponent)
            weight = SemiClassicalWeight(tuple(sings))
    return LinearTrajectory(weight, moving=j, target=target, t0=t0, t1=t1)


def cmd_deform(args: argparse.Namespace, weight, table, out: Path):
    if weight is None or not weight.strict:
        raise CircleBopsError("deformation flows need a strict semi-classical weight")
    if args.trajectory is None:
        raise CircleBopsError("deform needs --trajectory PATH")
    traj = parse_trajectory(args.trajectory, weight)
    report, times, flow = verify_flow(traj, args.n, args.steps, args.tol)
    # t, then kappa, r, rbar and the entries of A_1..A_m, each as (re, im)
    m = weight.m
    values = np.concatenate((flow[:, 4 * m + 4 :], flow[:, : 4 * m]), axis=1)
    rows = np.column_stack((times, values.view(float))).tolist()
    header = ["t", "kappa_re", "kappa_im", "r_re", "r_im", "rbar_re", "rbar_im"]
    for j in range(m):
        for entry in ("11", "12", "21", "22"):
            header.extend([f"a{j + 1}_{entry}_re", f"a{j + 1}_{entry}_im"])
    _write_csv(out / "flow.csv", header, rows)
    dump_json(report, out / "deform_report.json")
    return [report]


def cmd_heine(args: argparse.Namespace, weight, table, out: Path):
    source = weight if weight is not None else table
    tbl = moment_table(source, 4)
    report = IdentityReport("Heine-identity oracle")
    for n in (1, 2, 3):
        det = toeplitz_det(tbl, 0, n)
        report.add("heine_vs_toeplitz", "due to the well known identity",
                   abs(heine_oracle(source, n) - det) / max(1.0, abs(det)), HEINE_CHECK_TOL * args.tol, n=n)
    dump_json(report, out / "heine_report.json")
    return [report]


def cmd_verify_all(args: argparse.Namespace, weight, table, out: Path):
    """Every suite on one bundle.  The build suite reads the bundle's levels
    0..n, bit for bit those `build` makes on the same moment table."""
    strict = weight is not None and weight.strict
    bundle = _bundle(args, weight, table, strict)
    reports = cmd_build(args, weight, bundle.sys.prefix(args.n), out)
    reports += cmd_assoc(args, weight, bundle, out)
    if strict:
        reports += cmd_coeffs(args, weight, bundle, out)
        matrix = verify_matrix_system(bundle, range(1, args.n + 1), args.tol)
        dump_json(matrix, out / "matrix_report.json")
        reports.append(matrix)
    reports += cmd_rhp(args, weight, bundle, out)
    suites = [{"title": r.title, "passed": r.passed, "max_residual": r.max_residual, "identities": r.max_by_name()}
              for r in reports]  # each report's verdict is computed once, when its file is written
    dump_json({"schema": SCHEMA, "passed": all(r["passed"] for r in suites), "suites": suites},
              out / "verify_report.json")
    return reports


HANDLERS = {
    "moments": cmd_moments,
    "build": lambda args, w, tbl, out: cmd_build(args, w, _levels(args, w, tbl), out),
    "assoc": lambda args, w, tbl, out: cmd_assoc(args, w, _bundle(args, w, tbl), out),
    "coeffs": lambda args, w, tbl, out: cmd_coeffs(args, w, _bundle(args, w, tbl, quads=True), out),
    "verify-all": cmd_verify_all,
    "rhp-check": lambda args, w, tbl, out: cmd_rhp(args, w, _bundle(args, w, tbl), out),
    "deform": cmd_deform,
    "heine-check": cmd_heine,
}
COMMANDS = tuple(HANDLERS)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args keeps no state."""
    parser = argparse.ArgumentParser(
        prog="circlebops",
        description="Bi-orthogonal polynomials on the unit circle: "
        "construction, identity verification and deformation flows.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--weight", required=True, help="weight spec JSON")
        p.add_argument("--n", type=int, default=4, help="maximum level")
        p.add_argument("--seed", type=int, default=7, help="sample-point seed")
        p.add_argument("--tol", type=float, default=1.0, help="tolerance scale factor (1.0 = defaults)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--steps", type=int, default=64, help="flow integration steps")
        p.add_argument("--trajectory", "--traj", dest="trajectory", default=None)
    return parser


def _normalize_argv(argv):
    """Support the flag form --cmd NAME by rewriting it into the subcommand."""
    argv = list(argv)
    if "--cmd" in argv:
        idx = argv.index("--cmd")
        if idx + 1 >= len(argv):
            return argv
        command = argv[idx + 1]
        del argv[idx : idx + 2]
        argv.insert(0, command)
    return argv


def main(argv=None) -> int:
    argv = _normalize_argv(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    for flag, ok, rule in (
        ("n", args.n >= 0, "a level must be >= 0"),
        ("seed", args.seed >= 0, "a seed must be >= 0"),
        ("tol", 0 < args.tol < float("inf"), "a tolerance scale must be positive and finite"),
    ):
        if not ok:
            print(f"error: argument --{flag}: {rule}, got {getattr(args, flag)}", file=sys.stderr)
            return 2
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        weight, table = parse_weight_spec(args.weight)
        reports = HANDLERS[args.command](args, weight, table, out)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 2
    except (CircleBopsError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for rep in reports:
        print(f"[{'pass' if rep.passed else 'FAIL'}] {rep.title}: max residual {rep.max_residual:.3e}")
        for entry in [] if rep.passed else rep.failures()[:10]:
            print(f"    {entry.name} (n={entry.n}, {entry.where}): {entry.residual:.3e} > {entry.tol:.1e}")
    return 0 if all(rep.passed for rep in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
